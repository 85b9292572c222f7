//! The receiver's circular input buffer.
//!
//! "The input to the receiver contains a circular buffer. The buffer is
//! large enough to handle time synchronizer latency. Once the start of
//! frame is located, the LTS symbol minus the cyclic prefix is passed
//! to the FFT." (§IV.B)

use mimo_fixed::CQ15;

/// A fixed-capacity circular sample buffer with absolute indexing:
/// samples are addressed by their position in the stream, and stay
/// retrievable until overwritten `capacity` samples later.
///
/// # Examples
///
/// ```
/// use mimo_fixed::CQ15;
/// use mimo_sync::CircularBuffer;
///
/// let mut buf = CircularBuffer::new(4);
/// for i in 0..6 {
///     buf.push(CQ15::from_f64(i as f64 / 8.0, 0.0));
/// }
/// assert!(buf.get(1).is_none());        // overwritten
/// assert!(buf.get(3).is_some());        // still held
/// assert_eq!(buf.get(5).unwrap().re.to_f64(), 5.0 / 8.0);
/// ```
#[derive(Debug, Clone)]
pub struct CircularBuffer {
    mem: Vec<CQ15>,
    /// Total samples ever pushed (next absolute index).
    written: usize,
}

impl CircularBuffer {
    /// Creates a buffer holding the last `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    // phylint: allow(test_only_api) -- paper §IV.B: the receiver's circular input buffer
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            mem: vec![CQ15::ZERO; capacity],
            written: 0,
        }
    }

    /// Buffer capacity in samples.
    pub fn capacity(&self) -> usize {
        self.mem.len()
    }

    /// Total samples pushed so far.
    pub fn len(&self) -> usize {
        self.written
    }

    /// `true` if nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.written == 0
    }

    /// Appends one sample (one clock of the write port).
    pub fn push(&mut self, sample: CQ15) {
        let idx = self.written % self.mem.len();
        self.mem[idx] = sample;
        self.written += 1;
    }

    /// Reads the sample at absolute stream position `index`, if it is
    /// still resident.
    pub fn get(&self, index: usize) -> Option<CQ15> {
        if index >= self.written {
            return None;
        }
        if self.written - index > self.mem.len() {
            return None; // overwritten
        }
        Some(self.mem[index % self.mem.len()])
    }

    /// Copies `len` samples starting at absolute position `start`, if
    /// the whole range is resident — used to hand "the LTS symbol minus
    /// the cyclic prefix" to the FFT after a sync event.
    pub fn slice(&self, start: usize, len: usize) -> Option<Vec<CQ15>> {
        (start..start + len).map(|i| self.get(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: usize) -> CQ15 {
        CQ15::from_f64((v % 100) as f64 / 256.0, 0.0)
    }

    #[test]
    fn holds_last_capacity_samples() {
        let mut buf = CircularBuffer::new(8);
        for i in 0..20 {
            buf.push(s(i));
        }
        assert_eq!(buf.len(), 20);
        for i in 0..12 {
            assert!(buf.get(i).is_none(), "sample {i} must be gone");
        }
        for i in 12..20 {
            assert_eq!(buf.get(i), Some(s(i)), "sample {i}");
        }
        assert!(buf.get(20).is_none(), "future sample");
    }

    #[test]
    fn slice_spanning_wraparound() {
        let mut buf = CircularBuffer::new(8);
        for i in 0..11 {
            buf.push(s(i));
        }
        let got = buf.slice(5, 4).expect("range resident");
        assert_eq!(got, vec![s(5), s(6), s(7), s(8)]);
        assert!(buf.slice(2, 4).is_none(), "partially overwritten");
        assert!(buf.slice(9, 4).is_none(), "extends past write head");
    }

    #[test]
    fn sized_for_sync_latency() {
        // The receiver needs the LTS (2.5·N samples) to still be
        // resident when the synchroniser fires 16 samples into it:
        // capacity 4·N is comfortably enough for N=64.
        let n = 64;
        let mut buf = CircularBuffer::new(4 * n);
        let lts_start = 173; // arbitrary burst offset
        for i in 0..(lts_start + 5 * n / 2) {
            buf.push(s(i));
        }
        let lts = buf.slice(lts_start, 5 * n / 2).expect("LTS resident");
        assert_eq!(lts.len(), 160);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = CircularBuffer::new(0);
    }
}
