//! Carriers as 16-bit bus words on `i32` lane groups.
//!
//! The paper moves one 16-bit bus word per clock through each channel
//! pipeline. The receiver's per-symbol core keeps a symbol in that form
//! from the carrier gather to the LLR scatter: the real and imaginary
//! words of carrier `c` sit in lane `c % LANES` of group `c / LANES` of
//! two arrays of [`Lanes`], one `i32` per word. Every lane kernel of the
//! core (zero-forcing, the pilot de-rotations, the demapper) reads and
//! writes these groups as they stand, so no stage converts a symbol to
//! [`CQ15`] and back. Lanes past the last carrier of a run are padding:
//! the core keeps them zero.

use crate::{Fx, CQ15, SAMPLE_BITS};

/// Carriers per lane group — one AVX2 register of `i32`.
pub const LANES: usize = 8;

/// One `i32` word per carrier: a lane group.
pub type Lanes = [i32; LANES];

/// The 16-bit sample bus, in raw Q1.15.
const BUS_MIN: i64 = -(1 << (SAMPLE_BITS - 1));
const BUS_MAX: i64 = (1 << (SAMPLE_BITS - 1)) - 1;

/// Lane groups of bus-word carriers, real words in `re` and imaginary
/// words in `im` (module docs). A buffer may hold several symbols
/// back to back, each a whole number of groups.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BusLanes {
    /// Real words, `re[c / LANES][c % LANES]` for carrier `c`.
    pub re: Vec<Lanes>,
    /// Imaginary words, laid out as [`BusLanes::re`].
    pub im: Vec<Lanes>,
}

impl BusLanes {
    /// `groups` zeroed lane groups.
    pub fn zeroed(groups: usize) -> Self {
        Self {
            re: vec![[0; LANES]; groups],
            im: vec![[0; LANES]; groups],
        }
    }

    /// Resizes to `groups` lane groups, zeroing any new ones; the
    /// capacity is kept.
    pub fn resize(&mut self, groups: usize) {
        self.re.resize(groups, [0; LANES]);
        self.im.resize(groups, [0; LANES]);
    }
}

/// Lane groups needed for `carriers` carriers.
#[inline]
pub const fn lane_groups(carriers: usize) -> usize {
    carriers.div_ceil(LANES)
}

/// Whether both words of `v` fit the 16-bit sample bus.
#[inline]
pub fn on_bus(v: CQ15) -> bool {
    (BUS_MIN..=BUS_MAX).contains(&v.re.raw()) && (BUS_MIN..=BUS_MAX).contains(&v.im.raw())
}

/// Carrier `c` of the lane groups `re`/`im`, as a sample.
#[inline(always)]
pub fn bus_carrier(re: &[Lanes], im: &[Lanes], c: usize) -> CQ15 {
    let (g, k) = (c / LANES, c % LANES);
    CQ15::new(Fx::from_raw(re[g][k].into()), Fx::from_raw(im[g][k].into()))
}

/// Writes sample `v`, which must be on the bus, as carrier `c` of the
/// lane groups `re`/`im`.
#[inline(always)]
pub fn set_bus_carrier(re: &mut [Lanes], im: &mut [Lanes], c: usize, v: CQ15) {
    debug_assert!(on_bus(v), "{v:?} is off the 16-bit bus");
    let (g, k) = (c / LANES, c % LANES);
    // On-bus words fit an i32 lane.
    re[g][k] = v.re.raw() as i32;
    im[g][k] = v.im.raw() as i32;
}

/// Stages `carriers` into the lane groups `re`/`im` (at least
/// [`lane_groups`]`(carriers.len())` of each), zeroing the padding lanes
/// of the last group. Returns `false`, with the groups in an
/// unspecified state, when a carrier is off the 16-bit bus.
#[inline]
pub fn stage_bus(carriers: &[CQ15], re: &mut [Lanes], im: &mut [Lanes]) -> bool {
    // Offset by half the bus range, a word is below 2¹⁶ exactly when it
    // is on the bus, so one OR checks them all.
    let biased = |raw: i64| (raw as u64).wrapping_add(1 << (SAMPLE_BITS - 1));
    let mut spread = 0u64;
    let groups = lane_groups(carriers.len());
    for ((r, i), chunk) in re[..groups].iter_mut().zip(&mut im[..groups]).zip(carriers.chunks(LANES)) {
        *r = [0; LANES];
        *i = [0; LANES];
        for (k, c) in chunk.iter().enumerate() {
            spread |= biased(c.re.raw()) | biased(c.im.raw());
            r[k] = c.re.raw() as i32;
            i[k] = c.im.raw() as i32;
        }
    }
    spread >> SAMPLE_BITS == 0
}

/// The carriers of the lane groups `re`/`im`, in order, into `carriers`.
#[inline]
pub fn unstage_bus(re: &[Lanes], im: &[Lanes], carriers: &mut [CQ15]) {
    for (c, out) in carriers.iter_mut().enumerate() {
        *out = bus_carrier(re, im, c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staging_round_trips_bus_words_and_zeroes_padding() {
        let carriers: Vec<CQ15> = (0..13)
            .map(|c| CQ15::new(Fx::from_raw(BUS_MIN + c), Fx::from_raw(BUS_MAX - c)))
            .collect();
        let (mut re, mut im) = ([[7; LANES]; 2], [[7; LANES]; 2]);
        assert!(stage_bus(&carriers, &mut re, &mut im));
        assert_eq!(re[1][5..], [0; 3]);
        assert_eq!(im[1][5..], [0; 3]);
        let mut back = vec![CQ15::ZERO; carriers.len()];
        unstage_bus(&re, &im, &mut back);
        assert_eq!(back, carriers);
        set_bus_carrier(&mut re, &mut im, 9, CQ15::ZERO);
        assert_eq!(bus_carrier(&re, &im, 9), CQ15::ZERO);
    }

    #[test]
    fn off_bus_carriers_are_refused() {
        for raw in [BUS_MAX + 1, BUS_MIN - 1, 1 << 40] {
            let carriers = [CQ15::ZERO, CQ15::new(Fx::ZERO, Fx::from_raw(raw))];
            assert!(!on_bus(carriers[1]));
            let (mut re, mut im) = ([[0; LANES]; 1], [[0; LANES]; 1]);
            assert!(!stage_bus(&carriers, &mut re, &mut im));
        }
    }
}
