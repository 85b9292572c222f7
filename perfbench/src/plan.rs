//! Seeded workload inputs. Every payload, MCS schedule and noise seed
//! is derived from the `--seed` argument before timing starts; the
//! library under test only ever sees the generated inputs.

use mimo_baseband::phy::Mcs;

/// SplitMix64: a tiny, well-mixed generator, enough for test inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

/// One burst of a plan: the rate to send it at and its payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Burst {
    pub mcs: Mcs,
    pub payload: Vec<u8>,
}

/// Distinct 8 KiB payloads in the `gigabit_bulk` plan (cycled).
pub const GIGABIT_BURSTS: usize = 64;
/// Payload bytes per `gigabit_bulk` burst.
pub const GIGABIT_PAYLOAD: usize = 8192;
/// Bursts in the mixed-MCS plan of `mixed_short_awgn` (cycled).
pub const MIXED_BURSTS: usize = 512;
/// Bursts in the mixed-MCS plan of `stream_framed` (cycled).
pub const STREAM_BURSTS: usize = 256;
/// Payload size range of the mixed-MCS plans, bytes (both plans hold
/// a whole number of bursts per MCS row).
pub const SHORT_PAYLOAD: (usize, usize) = (64, 1400);

/// Per-workload salts, so one seed gives unrelated inputs to each.
const SALT_GIGABIT: u64 = 0x6769_6761;
const SALT_MIXED: u64 = 0x6D69_7865;
const SALT_STREAM: u64 = 0x7374_7265;
const SALT_NOISE: u64 = 0x6E6F_6973;

/// `gigabit_bulk`: 64-QAM r=3/4 (the `PhyConfig::gigabit()` default
/// rate), 8 KiB payloads.
pub fn gigabit(seed: u64) -> Vec<Burst> {
    let mut rng = SplitMix64::new(seed ^ SALT_GIGABIT);
    (0..GIGABIT_BURSTS)
        .map(|_| Burst {
            mcs: Mcs::Qam64R34,
            payload: rng.bytes(GIGABIT_PAYLOAD),
        })
        .collect()
}

/// A mixed-MCS plan: burst `i` uses table row `i mod 8`. Each row's
/// payload sizes are an even grid over [`SHORT_PAYLOAD`] in a seeded
/// order, so every seed asks for the same work (the same rows at the
/// same sizes) and differs only in order, contents and noise.
fn mixed_mcs(seed: u64, n: usize) -> Vec<Burst> {
    let mut rng = SplitMix64::new(seed);
    let rows = Mcs::ALL.len();
    let per_row = n / rows;
    let (lo, hi) = SHORT_PAYLOAD;
    let sizes: Vec<Vec<usize>> = (0..rows)
        .map(|_| {
            let mut grid: Vec<usize> = (0..per_row)
                .map(|j| lo + j * (hi - lo) / (per_row - 1).max(1))
                .collect();
            for k in (1..grid.len()).rev() {
                grid.swap(k, rng.range(0, k));
            }
            grid
        })
        .collect();
    (0..n)
        .map(|i| Burst {
            mcs: Mcs::ALL[i % rows],
            payload: rng.bytes(sizes[i % rows][i / rows]),
        })
        .collect()
}

/// `mixed_short_awgn`'s plan.
pub fn mixed(seed: u64) -> Vec<Burst> {
    mixed_mcs(seed ^ SALT_MIXED, MIXED_BURSTS)
}

/// `stream_framed`'s plan.
pub fn stream(seed: u64) -> Vec<Burst> {
    mixed_mcs(seed ^ SALT_STREAM, STREAM_BURSTS)
}

/// The AWGN channel's noise seed for a workload seed.
pub fn noise_seed(seed: u64) -> u64 {
    SplitMix64::new(seed ^ SALT_NOISE).next_u64()
}

/// FNV-1a over a plan's rates and payloads: equal plans hash equal.
pub fn fingerprint(plan: &[Burst]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in plan {
        for byte in std::iter::once(b.mcs.index()).chain(b.payload.iter().copied()) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(mixed(7), mixed(7));
        assert_ne!(fingerprint(&mixed(7)), fingerprint(&mixed(8)));
        assert_ne!(noise_seed(7), noise_seed(8));
        assert_ne!(fingerprint(&mixed(7)), fingerprint(&stream(7)));
        assert_eq!(fingerprint(&gigabit(3)), fingerprint(&gigabit(3)));
    }

    #[test]
    fn mixed_plan_cycles_every_row_within_the_size_range() {
        let plan = mixed(1);
        assert_eq!(plan.len(), MIXED_BURSTS);
        for (i, b) in plan.iter().enumerate() {
            assert_eq!(b.mcs, Mcs::ALL[i % 8]);
            assert!((SHORT_PAYLOAD.0..=SHORT_PAYLOAD.1).contains(&b.payload.len()));
        }
    }

    #[test]
    fn every_seed_asks_for_the_same_rows_at_the_same_sizes() {
        let work = |plan: Vec<Burst>| {
            let mut w: Vec<(u8, usize)> = plan
                .iter()
                .map(|b| (b.mcs.index(), b.payload.len()))
                .collect();
            w.sort_unstable();
            w
        };
        assert_eq!(work(mixed(1)), work(mixed(2)));
        assert_eq!(work(stream(3)), work(stream(4)));
        let sizes: Vec<usize> = mixed(1).iter().map(|b| b.payload.len()).collect();
        assert_ne!(
            sizes,
            mixed(2).iter().map(|b| b.payload.len()).collect::<Vec<_>>()
        );
        assert!(sizes.contains(&SHORT_PAYLOAD.0) && sizes.contains(&SHORT_PAYLOAD.1));
    }
}
