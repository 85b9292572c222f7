//! Closed-loop link adaptation: EVM-driven per-burst rate selection.
//!
//! The paper's rate ladder (BPSK r=1/2 … 64-QAM r=3/4, [`Mcs::ALL`])
//! only pays off when the link picks the rate itself. This module
//! closes that loop on the receiver's repaired [`ChannelQuality`]
//! measurement:
//!
//! * [`RateThresholds`] — per-row **entry** and **exit** EVM ceilings
//!   (the worst post-equalization EVM at which each row still decodes
//!   reliably), derived row-by-row from the table's
//!   modulation × code-rate pairs and calibrated against this
//!   receiver's measured AWGN decode cliffs.
//! * [`RateController`] — maps each burst's worst-stream EVM to the
//!   next burst's rate index, with hysteresis (entry stricter than
//!   exit) and up/down dwell counters so a single lucky (or unlucky)
//!   burst cannot flap the rate.
//! * [`LinkAdaptor`] — wraps a [`MimoTransmitter`] and a controller so
//!   the TX side *is* the loop: `transmit` sends at the controller's
//!   current rate via [`MimoTransmitter::transmit_burst_with`], and
//!   `feedback` digests the receiver's per-burst outcome.
//!
//! The controller adapts on [`ChannelQuality::worst_stream_evm_db`],
//! not the aggregate: a burst only decodes if its weakest spatial
//! stream decodes, and the whole point of the repaired diagnostics is
//! that streams 1–3 are no longer invisible.
//!
//! [`crate::LinkSimulation::run_adaptive`] drives the full
//! TX → channel → RX → controller loop over hundreds of bursts; the
//! `fig_link_adapt` bench records adaptive goodput against every fixed
//! rate across an SNR sweep.
//!
//! # Examples
//!
//! ```
//! use mimo_core::adapt::{LinkAdaptor, RateController};
//! use mimo_core::{LinkGeometry, Mcs, MimoReceiver, MimoTransmitter, PhyConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tx = MimoTransmitter::new(PhyConfig::paper_synthesis())?;
//! let mut link = LinkAdaptor::new(tx, RateController::for_geometry(&LinkGeometry::mimo()));
//! let mut rx = MimoReceiver::from_geometry(LinkGeometry::mimo())?;
//!
//! // The loop starts at the most robust rate and climbs as the
//! // receiver keeps reporting clean EVM.
//! assert_eq!(link.current_mcs(), Mcs::most_robust());
//! for _ in 0..8 {
//!     let burst = link.transmit(&[0x5A; 200])?;          // clean wire
//!     let result = rx.receive_burst(&burst.streams);
//!     link.feedback(result.as_ref().ok().map(|r| &r.diagnostics.quality));
//! }
//! assert!(link.current_mcs().index() > Mcs::most_robust().index());
//! # Ok(())
//! # }
//! ```

use crate::config::LinkGeometry;
use crate::error::PhyError;
use crate::mcs::Mcs;
use crate::rx::ChannelQuality;
use crate::tx::{MimoTransmitter, TxBurst};

/// Constant-measurement hysteresis of the default thresholds: each
/// row's exit ceiling sits this far above its entry ceiling, so a
/// measurement hovering exactly at an entry boundary cannot flap the
/// rate up and back down.
const EXIT_SLACK_DB: f64 = 0.3;

/// Per-MCS EVM thresholds, one **entry** and one **exit** ceiling per
/// table row (worst-stream EVM, dB — lower is better).
///
/// Two ceilings because the EVM measurement itself is rate-dependent:
/// EVM is measured against the *decided* (nearest) constellation
/// point, so near a dense constellation's cliff some errors snap to a
/// closer wrong point and the reported EVM is optimistic by 1–2 dB
/// relative to the same channel measured under a sparser
/// constellation. A controller climbing the ladder therefore judges
/// row `i` by `enter_evm_db(i)` — calibrated in the measurement space
/// of row `i−1`, where the decision to climb is actually taken — and
/// abandons row `i` by `exit_evm_db(i)`, calibrated in row `i`'s own
/// measurement space.
///
/// The defaults are derived row-by-row from the [`Mcs`] table
/// (constellation order × code rate select the constants), calibrated
/// against this receiver's measured AWGN decode cliffs: each entry
/// ceiling is the worst-stream EVM observed one row below at the
/// lowest SNR where the row decodes reliably, and each exit ceiling
/// sits a small constant slack (0.3 dB) above its entry ceiling. The
/// `fig_link_adapt` bench regenerates the supporting evidence
/// (adaptive vs fixed-rate goodput across an SNR sweep).
#[derive(Debug, Clone, PartialEq)]
pub struct RateThresholds {
    /// `enter_evm_db[i]` admits a climb into `Mcs::ALL[i]`.
    enter_evm_db: Vec<f64>,
    /// `exit_evm_db[i]` abandons `Mcs::ALL[i]` when exceeded.
    exit_evm_db: Vec<f64>,
}

impl RateThresholds {
    /// The table-derived default ceilings (see the type docs).
    pub fn table_default() -> Self {
        use mimo_coding::CodeRate as R;
        use mimo_modem::Modulation as M;
        let enter_evm_db: Vec<f64> = Mcs::ALL
            .iter()
            .map(|mcs| match (mcs.modulation(), mcs.code_rate()) {
                // The most robust row is the unconditional fallback.
                (M::Bpsk, R::Half) => 0.0,
                (M::Bpsk, _) => -4.0,
                (M::Qpsk, R::Half) => -6.8,
                (M::Qpsk, _) => -7.9,
                (M::Qam16, R::Half) => -11.6,
                (M::Qam16, _) => -13.0,
                (M::Qam64, R::ThreeQuarters) => -19.3,
                (M::Qam64, _) => -17.8,
            })
            .collect();
        let exit_evm_db = enter_evm_db.iter().map(|e| e + EXIT_SLACK_DB).collect();
        Self {
            enter_evm_db,
            exit_evm_db,
        }
    }

    /// Builds thresholds from an explicit per-row
    /// `(enter_evm_db, exit_evm_db)` function over the MCS table (e.g.
    /// calibrated against a measured waterfall).
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::BadConfig`] if any ceiling is non-finite or
    /// a row's exit ceiling is stricter than its entry ceiling (that
    /// would re-introduce single-measurement flapping).
    // phylint: allow(test_only_api) -- test support: crates/core/src/adapt.rs
    pub fn from_fn(mut f: impl FnMut(Mcs) -> (f64, f64)) -> Result<Self, PhyError> {
        let pairs: Vec<(f64, f64)> = Mcs::ALL.iter().map(|&m| f(m)).collect();
        for (mcs, &(enter, exit)) in Mcs::ALL.iter().zip(&pairs) {
            if !enter.is_finite() || !exit.is_finite() {
                return Err(PhyError::BadConfig(format!(
                    "rate thresholds for {mcs} must be finite, got ({enter}, {exit})"
                )));
            }
            if exit < enter {
                return Err(PhyError::BadConfig(format!(
                    "exit ceiling {exit} for {mcs} is stricter than entry ceiling {enter}"
                )));
            }
        }
        Ok(Self {
            enter_evm_db: pairs.iter().map(|p| p.0).collect(),
            exit_evm_db: pairs.iter().map(|p| p.1).collect(),
        })
    }

    /// The worst-stream EVM (dB) that still admits a climb into this
    /// row, measured one row below.
    pub fn enter_evm_db(&self, mcs: Mcs) -> f64 {
        self.enter_evm_db[usize::from(mcs.index())]
    }

    /// The worst-stream EVM (dB) above which this row is abandoned,
    /// measured at the row itself.
    pub fn exit_evm_db(&self, mcs: Mcs) -> f64 {
        self.exit_evm_db[usize::from(mcs.index())]
    }

    /// The highest-rate table index whose entry ceiling admits
    /// `evm_db`. Index 0 (the most robust row) is the unconditional
    /// fallback, so the result is always a valid table index.
    fn best_supported(&self, evm_db: f64) -> usize {
        self.enter_evm_db
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &ceiling)| evm_db <= ceiling)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

impl Default for RateThresholds {
    fn default() -> Self {
        Self::table_default()
    }
}

/// The EVM-driven rate controller: one decision per received burst.
///
/// # Decision rule
///
/// Each [`RateController::update`] call digests one burst of feedback
/// (`Some(quality)` for a bit-exact burst, `None` for a lost one) and
/// returns the rate for the *next* burst:
///
/// * **Downshift** — when the worst-stream EVM violates the *current*
///   row's exit ceiling, or the burst was lost outright, a down-dwell
///   counter increments; after the down-dwell count (see
///   [`RateController::with_dwell`]) of consecutive bad bursts the
///   rate drops — directly to the best row
///   whose entry ceiling the measured EVM still clears (lost bursts,
///   having no measurement, step down one row).
/// * **Upshift** — otherwise, when the EVM clears the *next* row's
///   entry ceiling (the thresholds already carry the enter/exit
///   hysteresis), an up-dwell counter increments; after the up-dwell
///   count of such bursts in a row the rate climbs
///   **one step**. One step, not a jump: the EVM
///   measurement is only trustworthy near the rate it was taken at
///   (see [`RateThresholds`]), so each rung re-measures before the
///   next.
/// * **Hold** — anything else resets both counters, so a single lucky
///   (or unlucky) burst can never flap the rate.
///
/// The returned index is always a valid [`Mcs::ALL`] row: upshift
/// saturates at the top of the table, downshift at the bottom.
#[derive(Debug, Clone)]
pub struct RateController {
    thresholds: RateThresholds,
    up_dwell: u32,
    down_dwell: u32,
    current: usize,
    up_count: u32,
    down_count: u32,
}

impl RateController {
    /// Builds a controller from explicit thresholds, starting at the
    /// most robust rate with a 2-burst up dwell and a 2-burst down
    /// dwell.
    pub fn new(thresholds: RateThresholds) -> Self {
        Self {
            thresholds,
            up_dwell: 2,
            down_dwell: 2,
            current: usize::from(Mcs::most_robust().index()),
            up_count: 0,
            down_count: 0,
        }
    }

    /// The table-default controller for a link geometry. (The
    /// thresholds are geometry-independent today — EVM already
    /// normalizes out carrier count — but deriving from the geometry
    /// keeps the call site honest about which link it adapts.)
    pub fn for_geometry(_geometry: &LinkGeometry) -> Self {
        Self::new(RateThresholds::table_default())
    }

    /// Sets the up/down dwell counts (clamped to at least 1).
    #[must_use]
    pub fn with_dwell(mut self, up: u32, down: u32) -> Self {
        self.up_dwell = up.max(1);
        self.down_dwell = down.max(1);
        self
    }

    /// Sets the starting rate.
    #[must_use]
    pub fn with_initial(mut self, mcs: Mcs) -> Self {
        self.current = usize::from(mcs.index());
        self
    }

    /// The rate the next burst should use.
    pub fn current(&self) -> Mcs {
        // The controller clamps `current` to the table on every
        // update (pinned by the on-table proptest); should that
        // invariant ever break, degrade to the most robust rate
        // rather than panicking mid-link.
        Mcs::ALL
            .get(self.current)
            .copied()
            .unwrap_or(Mcs::most_robust())
    }

    /// The thresholds in use.
    pub fn thresholds(&self) -> &RateThresholds {
        &self.thresholds
    }

    /// Digests one burst of receiver feedback (`None` = the burst was
    /// lost) and returns the rate for the next burst. See the type
    /// docs for the decision rule.
    pub fn update(&mut self, feedback: Option<&ChannelQuality>) -> Mcs {
        match feedback {
            Some(quality) => {
                let evm = quality.worst_stream_evm_db();
                let top = Mcs::ALL.len() - 1;
                let climbable = self.current < top
                    && evm <= self.thresholds.enter_evm_db(Mcs::ALL[self.current + 1]);
                if evm > self.thresholds.exit_evm_db(self.current()) {
                    self.up_count = 0;
                    self.down_count += 1;
                    if self.down_count >= self.down_dwell {
                        // Drop to the best row the measurement still
                        // supports — never upward, and always at
                        // least one step.
                        self.current = self
                            .thresholds
                            .best_supported(evm)
                            .min(self.current.saturating_sub(1));
                        self.down_count = 0;
                    }
                } else if climbable {
                    self.down_count = 0;
                    self.up_count += 1;
                    if self.up_count >= self.up_dwell {
                        self.current += 1;
                        self.up_count = 0;
                    }
                } else {
                    self.up_count = 0;
                    self.down_count = 0;
                }
            }
            None => {
                // A lost burst carries no measurement: step down one.
                self.up_count = 0;
                self.down_count += 1;
                if self.down_count >= self.down_dwell {
                    self.current = self.current.saturating_sub(1);
                    self.down_count = 0;
                }
            }
        }
        self.current()
    }
}

impl Default for RateController {
    fn default() -> Self {
        Self::new(RateThresholds::table_default())
    }
}

/// A transmitter with the rate loop closed around it: bursts go out at
/// the controller's current rate, and the receiver's per-burst outcome
/// feeds the next decision.
#[derive(Debug, Clone)]
pub struct LinkAdaptor {
    tx: MimoTransmitter,
    controller: RateController,
}

impl LinkAdaptor {
    /// Wraps a transmitter and a controller.
    pub fn new(tx: MimoTransmitter, controller: RateController) -> Self {
        Self { tx, controller }
    }

    /// The rate the next [`LinkAdaptor::transmit`] will use.
    pub fn current_mcs(&self) -> Mcs {
        self.controller.current()
    }

    /// The controller state.
    pub fn controller(&self) -> &RateController {
        &self.controller
    }

    /// The wrapped transmitter.
    pub fn transmitter(&self) -> &MimoTransmitter {
        &self.tx
    }

    /// Transmits one burst at the controller's current rate via
    /// [`MimoTransmitter::transmit_burst_with`].
    ///
    /// # Errors
    ///
    /// See [`MimoTransmitter::transmit_burst_with`].
    pub fn transmit(&self, payload: &[u8]) -> Result<TxBurst, PhyError> {
        self.tx.transmit_burst_with(self.controller.current(), payload)
    }

    /// Reports one burst's receive outcome (`None` = lost burst) and
    /// returns the rate the next burst will use.
    pub fn feedback(&mut self, quality: Option<&ChannelQuality>) -> Mcs {
        self.controller.update(quality)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quality(evm_db: f64) -> ChannelQuality {
        ChannelQuality {
            evm_db,
            per_stream_evm_db: vec![evm_db; 4],
            mean_phase_rad: 0.0,
        }
    }

    /// Feeds a constant EVM long enough for the controller to settle;
    /// returns the settled rate index. (64 updates cover climbing the
    /// whole table at any dwell ≤ 8.)
    fn settle(ctrl: &mut RateController, evm_db: f64) -> u8 {
        let q = quality(evm_db);
        for _ in 0..64 {
            ctrl.update(Some(&q));
        }
        ctrl.current().index()
    }

    #[test]
    fn thresholds_default_covers_the_table_and_is_finite() {
        let t = RateThresholds::table_default();
        for mcs in Mcs::ALL {
            assert!(t.enter_evm_db(mcs).is_finite(), "{mcs}");
            assert!(t.exit_evm_db(mcs).is_finite(), "{mcs}");
            // Leaving must always be easier than entering, or a
            // constant measurement at an entry boundary would flap.
            assert!(t.exit_evm_db(mcs) >= t.enter_evm_db(mcs), "{mcs}");
        }
        // Entry ceilings tighten strictly up the ladder (row 0 is the
        // unconditional fallback).
        for pair in Mcs::ALL.windows(2) {
            assert!(
                t.enter_evm_db(pair[1]) < t.enter_evm_db(pair[0]),
                "{} vs {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn from_fn_rejects_bad_ceilings() {
        assert!(RateThresholds::from_fn(|_| (f64::NEG_INFINITY, 0.0)).is_err());
        assert!(RateThresholds::from_fn(|_| (0.0, f64::NAN)).is_err());
        // Exit stricter than entry re-introduces flapping: rejected.
        assert!(RateThresholds::from_fn(|_| (-10.0, -11.0)).is_err());
        assert!(RateThresholds::from_fn(|m| {
            let enter = -3.0 * m.index() as f64;
            (enter, enter + 1.0)
        })
        .is_ok());
    }

    #[test]
    fn best_supported_is_monotone_in_evm() {
        // Sweep worst→best EVM: the selected rate never decreases.
        let t = RateThresholds::table_default();
        let mut last = 0;
        for step in 0..=800 {
            let evm = -(step as f64) / 10.0; // 0 dB down to -80 dB
            let idx = t.best_supported(evm);
            assert!(idx >= last, "EVM {evm}: index {idx} < {last}");
            last = idx;
        }
        assert_eq!(last, Mcs::ALL.len() - 1);
    }

    #[test]
    fn controller_climbs_one_step_per_dwell_and_settles() {
        let mut ctrl = RateController::default().with_dwell(2, 2);
        let q = quality(-60.0);
        let mut indices = Vec::new();
        for _ in 0..20 {
            indices.push(ctrl.update(Some(&q)).index());
        }
        // One step every `up_dwell` bursts, then saturation at the top.
        assert_eq!(indices[1], 1, "first step after the dwell window");
        assert!(indices.windows(2).all(|w| w[1] >= w[0] && w[1] - w[0] <= 1));
        assert_eq!(*indices.last().unwrap() as usize, Mcs::ALL.len() - 1);
    }

    #[test]
    fn lost_bursts_step_down_after_the_dwell() {
        let mut ctrl = RateController::default()
            .with_initial(Mcs::Qam64R34)
            .with_dwell(2, 2);
        assert_eq!(ctrl.update(None), Mcs::Qam64R34, "one loss holds");
        assert_eq!(ctrl.update(None), Mcs::Qam64R23, "second loss steps down");
        // And it never leaves the table at the bottom.
        for _ in 0..40 {
            ctrl.update(None);
        }
        assert_eq!(ctrl.current(), Mcs::Bpsk12);
    }

    #[test]
    fn measured_downshift_jumps_to_the_supported_row() {
        let mut ctrl = RateController::default()
            .with_initial(Mcs::Qam64R34)
            .with_dwell(2, 2);
        // EVM that only supports QPSK r=1/2: after the down dwell the
        // controller drops straight there, not one step at a time.
        let t = RateThresholds::table_default();
        let evm = t.enter_evm_db(Mcs::Qpsk12) - 0.2;
        assert!(evm > t.enter_evm_db(Mcs::Qpsk34), "stimulus sits between rows");
        let q = quality(evm);
        ctrl.update(Some(&q));
        assert_eq!(ctrl.current(), Mcs::Qam64R34, "dwell holds the first bad burst");
        ctrl.update(Some(&q));
        assert_eq!(ctrl.current(), Mcs::Qpsk12, "second bad burst drops to support");
    }

    #[test]
    fn adapts_on_the_worst_stream_not_the_aggregate() {
        let mut ctrl = RateController::default().with_dwell(1, 1);
        // Aggregate says 64-QAM, stream 3 says BPSK: stay low.
        let q = ChannelQuality {
            evm_db: -40.0,
            per_stream_evm_db: vec![-45.0, -45.0, -45.0, -3.5],
            mean_phase_rad: 0.0,
        };
        for _ in 0..8 {
            ctrl.update(Some(&q));
        }
        assert_eq!(ctrl.current(), Mcs::Bpsk12);
    }

    #[test]
    fn settled_rate_is_monotone_in_evm() {
        // Fresh controllers settled on constant EVM: a cleaner link
        // never settles on a slower rate.
        let mut last = 0u8;
        for step in 0..=40 {
            let evm = -(step as f64) * 2.0; // 0 → -80 dB
            let mut ctrl = RateController::default().with_dwell(1, 1);
            let settled = settle(&mut ctrl, evm);
            assert!(settled >= last, "EVM {evm}: {settled} < {last}");
            last = settled;
        }
        assert_eq!(last as usize, Mcs::ALL.len() - 1);
    }

    #[test]
    fn link_adaptor_round_trip_feeds_transmit_burst_with() {
        let tx = MimoTransmitter::new(crate::PhyConfig::paper_synthesis()).unwrap();
        let mut link = LinkAdaptor::new(
            tx,
            RateController::default().with_dwell(1, 1),
        );
        let mut rx =
            crate::MimoReceiver::from_geometry(LinkGeometry::mimo()).unwrap();
        let payload: Vec<u8> = (0..100).map(|i| (i * 3) as u8).collect();
        let mut rates = Vec::new();
        for _ in 0..10 {
            let burst = link.transmit(&payload).unwrap();
            let result = rx.receive_burst(&burst.streams).unwrap();
            assert_eq!(result.payload, payload);
            assert_eq!(result.diagnostics.mcs, link.current_mcs());
            rates.push(link.current_mcs());
            link.feedback(Some(&result.diagnostics.quality));
        }
        // A clean wire climbs all the way to the headline rate.
        assert_eq!(rates[0], Mcs::Bpsk12);
        assert_eq!(link.current_mcs(), Mcs::Qam64R34);
    }
}
