//! Credit/window flow control: how a slow receiver bounds a fast
//! sender's memory.
//!
//! The scheme is the classic cumulative-credit window, denominated in
//! **samples per antenna** (the unit both endpoints already meter):
//!
//! * The receiver owns a [`CreditGrantor`] with a `window` (maximum
//!   samples in flight) and a `quantum` (granularity of grant
//!   announcements). As frames are consumed it advances its
//!   `delivered` ledger and, whenever a fresh grant would move the
//!   announced allowance by at least one quantum, emits a CREDIT
//!   control frame carrying the **cumulative** total
//!   `delivered + window`.
//! * The sender owns a [`CreditWindow`]: `limit` (the largest
//!   cumulative grant seen) minus `used` (cumulative samples put on
//!   the wire) is its spending room. When the room is smaller than
//!   one pacing chunk the sender simply does not pull from the
//!   transmitter — the packet queue behind it is bounded
//!   ([`StreamingTransmitter::with_queue_capacity`]), so end-to-end
//!   memory is bounded no matter how slow the receiver is.
//!
//! Cumulative values make the control plane self-healing: a lost
//! CREDIT frame is repaired by the next one (grants are monotone and
//! the sender takes the max), and duplicates/reordering are no-ops.
//! Frames lost on the **data** plane would leak window — the receiver
//! counts sequence-gap estimates as delivered for exactly this
//! reason, and a session reset ([`ControlMsg::Hello`]) restores both
//! ends to the initial window.
//!
//! The invariant the property tests pin: at every step,
//! `granted − delivered == in-flight allowance ≤ window`, and
//! `granted` never decreases within a session.
//!
//! [`StreamingTransmitter::with_queue_capacity`]:
//!     mimo_core::StreamingTransmitter::with_queue_capacity
//! [`ControlMsg::Hello`]: crate::frame::ControlMsg::Hello

/// Sender-side credit ledger. See the module docs.
#[derive(Debug, Clone, Copy)]
pub struct CreditWindow {
    /// The initial allowance, restored on session reset.
    initial: u64,
    /// Largest cumulative grant seen this session.
    limit: u64,
    /// Cumulative samples (per antenna) put on the wire this session.
    used: u64,
}

impl CreditWindow {
    /// A fresh window with `initial` samples of pre-granted allowance
    /// (must equal the peer grantor's window for the ledgers to
    /// agree).
    pub fn new(initial: u64) -> Self {
        Self { initial, limit: initial, used: 0 }
    }

    /// Samples the sender may still put on the wire.
    pub fn available(&self) -> u64 {
        self.limit.saturating_sub(self.used)
    }

    /// Cumulative samples spent this session.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Records `n` samples put on the wire.
    pub fn consume(&mut self, n: u64) {
        self.used += n;
    }

    /// Folds in a CREDIT announcement. Grants are cumulative, so
    /// stale/reordered ones are absorbed by the max.
    pub fn on_grant(&mut self, granted: u64) {
        self.limit = self.limit.max(granted);
    }

    /// Rewinds to the initial allowance (new session).
    pub fn reset(&mut self) {
        self.limit = self.initial;
        self.used = 0;
    }
}

/// Receiver-side credit ledger. See the module docs.
#[derive(Debug, Clone, Copy)]
pub struct CreditGrantor {
    window: u64,
    quantum: u64,
    /// Cumulative samples (per antenna) consumed off the wire this
    /// session — decoded frames and sequence-gap estimates alike.
    delivered: u64,
    /// Cumulative allowance announced so far (starts at `window`:
    /// the implicit initial grant both sides agree on).
    granted: u64,
}

impl CreditGrantor {
    /// A grantor allowing `window` samples in flight, announcing in
    /// steps of at least `quantum` (clamped into `1..=window`).
    pub fn new(window: u64, quantum: u64) -> Self {
        let window = window.max(1);
        Self {
            window,
            quantum: quantum.clamp(1, window),
            delivered: 0,
            granted: window,
        }
    }

    /// The configured in-flight bound.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Cumulative samples consumed this session.
    // phylint: allow(test_only_api) -- test support: crates/transport/tests/codec.rs
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Cumulative allowance announced this session.
    pub fn granted(&self) -> u64 {
        self.granted
    }

    /// Allowance the peer may still be using: `granted − delivered`.
    /// Bounded by the window at all times.
    // phylint: allow(test_only_api) -- test support: crates/transport/tests/codec.rs
    pub fn in_flight(&self) -> u64 {
        self.granted - self.delivered
    }

    /// Records `n` samples consumed off the wire (a decoded frame's
    /// samples, or a sequence-gap estimate — lost samples spent the
    /// sender's credit too and must be refunded).
    pub fn on_delivered(&mut self, n: u64) {
        self.delivered += n;
    }

    /// The next cumulative grant to announce, if it has advanced by
    /// at least one quantum past the last announcement. Call
    /// [`CreditGrantor::mark_granted`] once the CREDIT frame is
    /// actually on the wire (sends can be refused by backpressure).
    pub fn due(&self) -> Option<u64> {
        let target = self.delivered + self.window;
        (target >= self.granted + self.quantum).then_some(target)
    }

    /// Commits an announced grant.
    pub fn mark_granted(&mut self, total: u64) {
        debug_assert!(total >= self.granted, "grants are monotone");
        self.granted = self.granted.max(total);
    }

    /// Rewinds to the session-start state (new session).
    pub fn reset(&mut self) {
        self.delivered = 0;
        self.granted = self.window;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grantor_announces_in_quanta_and_bounds_in_flight() {
        let mut g = CreditGrantor::new(1000, 300);
        assert_eq!(g.due(), None, "nothing consumed yet");
        g.on_delivered(299);
        assert_eq!(g.due(), None, "under one quantum");
        g.on_delivered(1);
        assert_eq!(g.due(), Some(1300));
        g.mark_granted(1300);
        assert_eq!(g.in_flight(), 1000);
        assert!(g.in_flight() <= g.window());
        g.on_delivered(1000);
        assert_eq!(g.due(), Some(2300));
    }

    #[test]
    fn window_tracks_grants_monotonically() {
        let mut w = CreditWindow::new(500);
        assert_eq!(w.available(), 500);
        w.consume(500);
        assert_eq!(w.available(), 0);
        w.on_grant(800);
        assert_eq!(w.available(), 300);
        // A stale (reordered) smaller grant changes nothing.
        w.on_grant(600);
        assert_eq!(w.available(), 300);
        w.reset();
        assert_eq!(w.available(), 500);
        assert_eq!(w.used(), 0);
    }

    #[test]
    fn paired_ledgers_agree_over_a_lossy_exchange() {
        // Sender and receiver ledgers driven by turns, with every
        // other CREDIT frame "lost": the survivors keep the link
        // moving because grants are cumulative.
        let (mut w, mut g) = (CreditWindow::new(256), CreditGrantor::new(256, 64));
        let mut sent = 0u64;
        let mut lose = false;
        while sent < 10_000 {
            let room = w.available().min(64);
            if room > 0 {
                w.consume(room);
                sent += room;
                g.on_delivered(room);
            }
            if let Some(total) = g.due() {
                g.mark_granted(total);
                lose = !lose;
                if !lose {
                    w.on_grant(total);
                }
            }
            assert!(g.in_flight() <= g.window());
        }
    }
}
