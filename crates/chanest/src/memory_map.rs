//! The Fig 5 channel-estimate memory organisation.
//!
//! The receiver populates "an array of 16 memories ... with the channel
//! matrices": per receive antenna, one 4·S-deep buffer segmented into
//! four S-entry regions, Ĥᵢ₀ at addresses 0…S−1, Ĥᵢ₁ at S…2S−1, Ĥᵢ₂ at
//! 2S…3S−1, Ĥᵢ₃ at 3S…4S−1 (Fig 5 draws S = 512). The inverted
//! estimates live in an identically-shaped array. This module makes
//! that address map executable as a standalone Fig 5 model: neither
//! the [`QrdScheduler`](crate::QrdScheduler), the estimator nor the
//! FPGA memory accounting reads it yet. It waits for a cycle-stepped
//! receiver that composes the clocked block models, where the
//! scheduler's reads would be addressed through it.

use crate::N_ANTENNAS;

/// Address map of the per-antenna channel-estimate buffers.
///
/// # Examples
///
/// ```
/// use mimo_chanest::HMatrixMemoryMap;
///
/// let map = HMatrixMemoryMap::new(512, 36);
/// // Fig 5: Ĥ23 of subcarrier 7 lives in RX-2's buffer at 3·512 + 7.
/// let loc = map.location(2, 3, 7);
/// assert_eq!(loc.buffer, 2);
/// assert_eq!(loc.address, 1536 + 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HMatrixMemoryMap {
    /// Subcarrier capacity per segment (Fig 5 draws 512).
    segment_depth: usize,
    /// Word width in bits (I + Q at the datapath width).
    word_bits: usize,
}

/// A physical location in the estimate memory array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// phylint: allow(test_only_api) -- paper Fig 5: the channel-estimate memory map
pub struct MemoryLocation {
    /// Which per-antenna buffer (= receive antenna index).
    pub buffer: usize,
    /// Word address within that buffer.
    pub address: usize,
}

impl HMatrixMemoryMap {
    /// Creates the map with a given per-segment depth and word width.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(segment_depth: usize, word_bits: usize) -> Self {
        assert!(segment_depth > 0 && word_bits > 0, "degenerate memory map");
        Self {
            segment_depth,
            word_bits,
        }
    }

    /// The Fig 5 configuration: 512-deep segments, 36-bit words
    /// (18-bit I + 18-bit Q on the CORDIC datapath).
    pub fn paper() -> Self {
        Self::new(512, 36)
    }

    /// Segment depth (subcarrier capacity).
    pub fn segment_depth(&self) -> usize {
        self.segment_depth
    }

    /// Location of element Ĥ(rx, tx) for `subcarrier`.
    ///
    /// # Panics
    ///
    /// Panics if `rx`/`tx` exceed the 4×4 system or the subcarrier
    /// exceeds the segment depth.
    // phylint: allow(test_only_api) -- paper Fig 5: the channel-estimate memory map
    pub fn location(&self, rx: usize, tx: usize, subcarrier: usize) -> MemoryLocation {
        assert!(rx < N_ANTENNAS && tx < N_ANTENNAS, "antenna out of range");
        assert!(
            subcarrier < self.segment_depth,
            "subcarrier {subcarrier} exceeds segment depth {}",
            self.segment_depth
        );
        MemoryLocation {
            buffer: rx,
            address: tx * self.segment_depth + subcarrier,
        }
    }

    /// Inverse of [`HMatrixMemoryMap::location`]: which matrix element
    /// and subcarrier a buffer address holds.
    // phylint: allow(test_only_api) -- paper Fig 5: the channel-estimate memory map
    pub fn element_at(&self, buffer: usize, address: usize) -> (usize, usize, usize) {
        assert!(buffer < N_ANTENNAS, "buffer out of range");
        assert!(address < N_ANTENNAS * self.segment_depth, "address out of range");
        (buffer, address / self.segment_depth, address % self.segment_depth)
    }

    /// Words per buffer (4 segments).
    // phylint: allow(test_only_api) -- paper Fig 5: the channel-estimate memory map
    pub fn buffer_words(&self) -> usize {
        N_ANTENNAS * self.segment_depth
    }

    /// Total bits across the whole 4-buffer array — the figure the
    /// FPGA infrastructure memory budget must cover (×2 for the
    /// inverted-estimate array).
    // phylint: allow(test_only_api) -- paper Fig 5: the channel-estimate memory map
    pub fn total_bits(&self) -> usize {
        N_ANTENNAS * self.buffer_words() * self.word_bits
    }
}

impl Default for HMatrixMemoryMap {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_address_layout() {
        let map = HMatrixMemoryMap::paper();
        // Fig 5's drawn corners.
        assert_eq!(map.location(0, 0, 0), MemoryLocation { buffer: 0, address: 0 });
        assert_eq!(map.location(0, 0, 511), MemoryLocation { buffer: 0, address: 511 });
        assert_eq!(map.location(0, 1, 0), MemoryLocation { buffer: 0, address: 512 });
        assert_eq!(map.location(3, 3, 511), MemoryLocation { buffer: 3, address: 2047 });
    }

    #[test]
    fn location_roundtrip() {
        let map = HMatrixMemoryMap::paper();
        for rx in 0..4 {
            for tx in 0..4 {
                for sc in [0usize, 17, 511] {
                    let loc = map.location(rx, tx, sc);
                    assert_eq!(map.element_at(loc.buffer, loc.address), (rx, tx, sc));
                }
            }
        }
    }

    #[test]
    fn no_two_elements_share_an_address() {
        let map = HMatrixMemoryMap::new(64, 36);
        let mut seen = std::collections::HashSet::new();
        for rx in 0..4 {
            for tx in 0..4 {
                for sc in 0..64 {
                    let loc = map.location(rx, tx, sc);
                    assert!(seen.insert((loc.buffer, loc.address)));
                }
            }
        }
        assert_eq!(seen.len(), 16 * 64);
    }

    #[test]
    fn capacity_math() {
        let map = HMatrixMemoryMap::paper();
        assert_eq!(map.buffer_words(), 2048);
        // 4 buffers × 2048 words × 36 bits = 294,912 bits per array.
        assert_eq!(map.total_bits(), 294_912);
    }

    #[test]
    #[should_panic(expected = "exceeds segment depth")]
    fn overflow_subcarrier_rejected() {
        let _ = HMatrixMemoryMap::new(64, 36).location(0, 0, 64);
    }
}
