//! Offline stand-in for the `rand_chacha` crate.
//!
//! Implements a genuine ChaCha8 keystream generator (D. J. Bernstein's
//! ChaCha reduced to 8 rounds — the same core the real crate wraps)
//! behind the two items this workspace imports: [`ChaCha8Rng`] and
//! [`rand_core::SeedableRng`]. Like the `rand` shim it is
//! API-compatible, not stream-compatible, with upstream.
//!
//! Each refill computes four consecutive blocks at once, one state word
//! of all four per row: an SSE2 `__m128i` on x86_64 (part of that
//! target's baseline, so there is no run-time probe) and a `[u32; 4]`
//! elsewhere. The stream is the one-block-at-a-time stream, word for
//! word: blocks are emitted in counter order, and each lane carries its
//! own 64-bit block counter. The tests hold both row types to a scalar
//! one-block oracle, across refills and a counter crossing 2³².
//!
//! The SSE2 rows are this project's own `unsafe` code, not vendored:
//! phylint skips `crates/shims/`, so its `unsafe_safety` rule does not
//! check them. Every `unsafe` block here states its own `// SAFETY:`.

use rand::RngCore;

/// The `rand_core` re-export surface the workspace uses.
pub mod rand_core {
    /// Seedable generators (shim: only `seed_from_u64` is provided).
    pub trait SeedableRng: Sized {
        /// Builds a generator from a 64-bit seed, expanding it with
        /// SplitMix64 exactly as `rand_core` does.
        fn seed_from_u64(seed: u64) -> Self;
    }
}

/// Words per refill: four consecutive 16-word ChaCha blocks.
const BUF_WORDS: usize = 64;

/// A ChaCha stream cipher core with 8 double-…(4 column + 4 diagonal)
/// rounds, used as a deterministic PRNG.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// Key (8 words); the nonce words stay zero (one seed = one stream).
    key: [u32; 8],
    /// Block counter of the next refill's first block.
    counter: u64,
    /// Blocks `counter − 4 .. counter` in stream order, and the read
    /// cursor into them.
    buf: [u32; BUF_WORDS],
    cursor: usize,
}

impl ChaCha8Rng {
    const ROUNDS: usize = 8;
    /// "expand 32-byte k" in little-endian words.
    const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646E, 0x7962_2D32, 0x6B20_6574];

    /// Builds a generator from a 32-byte key (the ChaCha key slot).
    pub fn from_seed_bytes(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (i, chunk) in seed.chunks_exact(4).enumerate() {
            key[i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        Self {
            key,
            counter: 0,
            buf: [0; BUF_WORDS],
            cursor: BUF_WORDS, // force a refill on first use
        }
    }

    /// Computes the next four blocks at once. SSE2 is part of the
    /// x86_64 baseline, so that target always takes the vector rows.
    /// Kept out of line so that the word reads inline at their callers.
    #[inline(never)]
    fn refill(&mut self) {
        #[cfg(target_arch = "x86_64")]
        four_blocks::<std::arch::x86_64::__m128i>(&self.key, self.counter, &mut self.buf);
        #[cfg(not(target_arch = "x86_64"))]
        four_blocks::<[u32; 4]>(&self.key, self.counter, &mut self.buf);
        self.counter = self.counter.wrapping_add(4);
        self.cursor = 0;
    }
}

/// One state word of four consecutive blocks: lane `j` belongs to
/// block `counter + j`.
trait Row: Copy {
    fn splat(word: u32) -> Self;
    fn from_lanes(lanes: [u32; 4]) -> Self;
    fn add(self, other: Self) -> Self;
    fn xor(self, other: Self) -> Self;
    /// Rotates each lane left by `L` bits (`R` = 32 − `L`).
    fn rotl<const L: i32, const R: i32>(self) -> Self;
    /// Writes the 16 rows as four blocks in stream order: word `w` of
    /// block `j` is lane `j` of `rows[w]`.
    fn store_blocks(rows: &[Self; 16], out: &mut [u32; BUF_WORDS]);
}

#[cfg(target_arch = "x86_64")]
impl Row for std::arch::x86_64::__m128i {
    #[inline(always)]
    fn splat(word: u32) -> Self {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { std::arch::x86_64::_mm_set1_epi32(word as i32) }
    }

    #[inline(always)]
    fn from_lanes(lanes: [u32; 4]) -> Self {
        let [a, b, c, d] = lanes.map(|w| w as i32);
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { std::arch::x86_64::_mm_set_epi32(d, c, b, a) }
    }

    #[inline(always)]
    fn add(self, other: Self) -> Self {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { std::arch::x86_64::_mm_add_epi32(self, other) }
    }

    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { std::arch::x86_64::_mm_xor_si128(self, other) }
    }

    #[inline(always)]
    fn rotl<const L: i32, const R: i32>(self) -> Self {
        use std::arch::x86_64::{_mm_or_si128, _mm_slli_epi32, _mm_srli_epi32};
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { _mm_or_si128(_mm_slli_epi32::<L>(self), _mm_srli_epi32::<R>(self)) }
    }

    #[inline(always)]
    fn store_blocks(rows: &[Self; 16], out: &mut [u32; BUF_WORDS]) {
        use std::arch::x86_64::{
            _mm_storeu_si128, _mm_unpackhi_epi32, _mm_unpackhi_epi64, _mm_unpacklo_epi32,
            _mm_unpacklo_epi64,
        };
        // Transpose each group of four rows (words 4g..4g+4 of all four
        // blocks) into four block quarters.
        for (g, quad) in rows.chunks_exact(4).enumerate() {
            // SAFETY: SSE2 is part of the x86_64 baseline; each store
            // writes four in-bounds `u32`s of `out`, unaligned.
            unsafe {
                let lo01 = _mm_unpacklo_epi32(quad[0], quad[1]);
                let hi01 = _mm_unpackhi_epi32(quad[0], quad[1]);
                let lo23 = _mm_unpacklo_epi32(quad[2], quad[3]);
                let hi23 = _mm_unpackhi_epi32(quad[2], quad[3]);
                let blocks = [
                    _mm_unpacklo_epi64(lo01, lo23),
                    _mm_unpackhi_epi64(lo01, lo23),
                    _mm_unpacklo_epi64(hi01, hi23),
                    _mm_unpackhi_epi64(hi01, hi23),
                ];
                for (j, v) in blocks.into_iter().enumerate() {
                    let dst = &mut out[16 * j + 4 * g..16 * j + 4 * g + 4];
                    _mm_storeu_si128(dst.as_mut_ptr().cast(), v);
                }
            }
        }
    }
}

#[cfg(any(test, not(target_arch = "x86_64")))]
impl Row for [u32; 4] {
    #[inline(always)]
    fn splat(word: u32) -> Self {
        [word; 4]
    }

    #[inline(always)]
    fn from_lanes(lanes: [u32; 4]) -> Self {
        lanes
    }

    #[inline(always)]
    fn add(self, other: Self) -> Self {
        std::array::from_fn(|j| self[j].wrapping_add(other[j]))
    }

    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        std::array::from_fn(|j| self[j] ^ other[j])
    }

    #[inline(always)]
    fn rotl<const L: i32, const R: i32>(self) -> Self {
        self.map(|w| w.rotate_left(L as u32))
    }

    #[inline(always)]
    fn store_blocks(rows: &[Self; 16], out: &mut [u32; BUF_WORDS]) {
        for (w, row) in rows.iter().enumerate() {
            for (j, &word) in row.iter().enumerate() {
                out[16 * j + w] = word;
            }
        }
    }
}

/// One ChaCha quarter-round on four blocks' rows.
#[inline(always)]
fn quarter<R: Row>(x: &mut [R; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = x[a].add(x[b]);
    x[d] = x[d].xor(x[a]).rotl::<16, 16>();
    x[c] = x[c].add(x[d]);
    x[b] = x[b].xor(x[c]).rotl::<12, 20>();
    x[a] = x[a].add(x[b]);
    x[d] = x[d].xor(x[a]).rotl::<8, 24>();
    x[c] = x[c].add(x[d]);
    x[b] = x[b].xor(x[c]).rotl::<7, 25>();
}

/// ChaCha8 blocks `counter .. counter + 4` (each lane carries its own
/// 64-bit block counter) written to `out` in stream order.
#[inline(always)]
fn four_blocks<R: Row>(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
    let ctr: [u64; 4] = std::array::from_fn(|j| counter.wrapping_add(j as u64));
    let s = ChaCha8Rng::SIGMA;
    let mut x: [R; 16] = [
        R::splat(s[0]),
        R::splat(s[1]),
        R::splat(s[2]),
        R::splat(s[3]),
        R::splat(key[0]),
        R::splat(key[1]),
        R::splat(key[2]),
        R::splat(key[3]),
        R::splat(key[4]),
        R::splat(key[5]),
        R::splat(key[6]),
        R::splat(key[7]),
        R::from_lanes(ctr.map(|c| c as u32)),
        R::from_lanes(ctr.map(|c| (c >> 32) as u32)),
        R::splat(0),
        R::splat(0),
    ];
    let input = x;
    for _ in 0..ChaCha8Rng::ROUNDS / 2 {
        quarter(&mut x, 0, 4, 8, 12);
        quarter(&mut x, 1, 5, 9, 13);
        quarter(&mut x, 2, 6, 10, 14);
        quarter(&mut x, 3, 7, 11, 15);
        quarter(&mut x, 0, 5, 10, 15);
        quarter(&mut x, 1, 6, 11, 12);
        quarter(&mut x, 2, 7, 8, 13);
        quarter(&mut x, 3, 4, 9, 14);
    }
    for (row, inp) in x.iter_mut().zip(&input) {
        *row = row.add(*inp);
    }
    R::store_blocks(&x, out);
}

impl rand_core::SeedableRng for ChaCha8Rng {
    fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion, as in upstream rand_core.
        let mut state = seed;
        let mut bytes = [0u8; 32];
        for chunk in bytes.chunks_exact_mut(8) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            chunk.copy_from_slice(&z.to_le_bytes());
        }
        Self::from_seed_bytes(bytes)
    }
}

impl RngCore for ChaCha8Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.cursor >= BUF_WORDS {
            self.refill();
        }
        let word = self.buf[self.cursor];
        self.cursor += 1;
        word
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        (hi << 32) | lo
    }
}

#[cfg(test)]
mod tests {
    use super::rand_core::SeedableRng;
    use super::*;
    use rand::Rng;

    /// One ChaCha quarter-round on one block: the scalar oracle.
    fn quarter(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        state[a] = state[a].wrapping_add(state[b]);
        state[d] = (state[d] ^ state[a]).rotate_left(16);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] = (state[b] ^ state[c]).rotate_left(12);
        state[a] = state[a].wrapping_add(state[b]);
        state[d] = (state[d] ^ state[a]).rotate_left(8);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] = (state[b] ^ state[c]).rotate_left(7);
    }

    /// Block `counter` of the stream under `key`, one block at a time
    /// on the scalar quarter-round: the generator as it was before the
    /// four-block refill.
    fn oracle_block(key: &[u32; 8], counter: u64) -> [u32; 16] {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&ChaCha8Rng::SIGMA);
        state[4..12].copy_from_slice(key);
        state[12] = counter as u32;
        state[13] = (counter >> 32) as u32;
        let input = state;
        for _ in 0..ChaCha8Rng::ROUNDS / 2 {
            quarter(&mut state, 0, 4, 8, 12);
            quarter(&mut state, 1, 5, 9, 13);
            quarter(&mut state, 2, 6, 10, 14);
            quarter(&mut state, 3, 7, 11, 15);
            quarter(&mut state, 0, 5, 10, 15);
            quarter(&mut state, 1, 6, 11, 12);
            quarter(&mut state, 2, 7, 8, 13);
            quarter(&mut state, 3, 4, 9, 14);
        }
        for (out, inp) in state.iter_mut().zip(&input) {
            *out = out.wrapping_add(*inp);
        }
        state
    }

    /// The oracle stream from block `counter` on, `words` words long.
    fn oracle_words(key: &[u32; 8], counter: u64, words: usize) -> Vec<u32> {
        (0..)
            .flat_map(|b| oracle_block(key, counter.wrapping_add(b)))
            .take(words)
            .collect()
    }

    /// Block counters to start from: zero, and two where a refill's
    /// lanes carry into the high counter word or wrap past `u64::MAX`.
    const START_COUNTERS: [u64; 3] = [0, (1 << 32) - 6, u64::MAX - 9];

    #[test]
    fn four_block_refill_matches_the_one_block_oracle() {
        // 4,160 words: 65 refills, counters crossing 2^32 and 2^64.
        let words = 65 * BUF_WORDS;
        for seed in [0, 42, 4242] {
            for start in START_COUNTERS {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                rng.counter = start;
                let want = oracle_words(&rng.key, start, words);
                let got: Vec<u32> = (0..words).map(|_| rng.next_u32()).collect();
                assert_eq!(got, want, "seed {seed}, first block {start}");
            }
        }
    }

    #[test]
    fn portable_rows_match_the_one_block_oracle() {
        let key = ChaCha8Rng::seed_from_u64(7).key;
        for start in START_COUNTERS {
            for refill in 0..4u64 {
                let counter = start.wrapping_add(4 * refill);
                let mut got = [0u32; BUF_WORDS];
                four_blocks::<[u32; 4]>(&key, counter, &mut got);
                assert_eq!(
                    got.to_vec(),
                    oracle_words(&key, counter, BUF_WORDS),
                    "block {counter}"
                );
            }
        }
    }

    #[test]
    fn mixed_word_widths_follow_one_stream() {
        // next_u64 is two next_u32 reads wherever the cursor stands,
        // refill boundaries included.
        let key = ChaCha8Rng::seed_from_u64(9).key;
        let want = oracle_words(&key, 0, 3 * BUF_WORDS);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut got = Vec::new();
        while got.len() + 2 <= want.len() {
            if got.len() % 7 == 3 {
                got.push(rng.next_u32());
            } else {
                let w = rng.next_u64();
                got.extend([w as u32, (w >> 32) as u32]);
            }
        }
        assert_eq!(got, want[..got.len()]);
    }

    #[test]
    fn chacha20_reference_block() {
        // RFC 7539 §2.3.2 test vector, adapted: run the permutation at
        // 20 rounds over the RFC's key/counter/nonce and compare the
        // first output words, to guard the oracle's quarter-round
        // wiring.
        let mut state = [
            0x6170_7865u32,
            0x3320_646E,
            0x7962_2D32,
            0x6B20_6574,
            0x0302_0100,
            0x0706_0504,
            0x0B0A_0908,
            0x0F0E_0D0C,
            0x1312_1110,
            0x1716_1514,
            0x1B1A_1918,
            0x1F1E_1D1C,
            0x0000_0001,
            0x0900_0000,
            0x4A00_0000,
            0x0000_0000,
        ];
        let input = state;
        for _ in 0..10 {
            quarter(&mut state, 0, 4, 8, 12);
            quarter(&mut state, 1, 5, 9, 13);
            quarter(&mut state, 2, 6, 10, 14);
            quarter(&mut state, 3, 7, 11, 15);
            quarter(&mut state, 0, 5, 10, 15);
            quarter(&mut state, 1, 6, 11, 12);
            quarter(&mut state, 2, 7, 8, 13);
            quarter(&mut state, 3, 4, 9, 14);
        }
        for (s, i) in state.iter_mut().zip(&input) {
            *s = s.wrapping_add(*i);
        }
        assert_eq!(state[0], 0xE4E7_F110);
        assert_eq!(state[1], 0x1559_3BD1);
        assert_eq!(state[15], 0x4E3C_50A2);
    }

    #[test]
    fn seeded_streams_are_deterministic_and_distinct() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        let mut c = ChaCha8Rng::seed_from_u64(43);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn uniformity_smoke_test() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen_range(0.0..1.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
