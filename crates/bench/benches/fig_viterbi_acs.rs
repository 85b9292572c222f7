//! **Experiment F10 — Viterbi ACS kernel throughput.**
//!
//! Decoded information bits per second of the two Viterbi tiers — the
//! reference `i64` scalar kernel and the `i16` lane tier (a whole
//! block's forward pass on sixteen-bit wrapping metrics, the 64-state
//! row in two AVX-512BW registers or four AVX2 registers, `u64`
//! survivor bitmasks) — on
//! terminated K=7 blocks at burst-representative sizes, with hard
//! (±`HARD_LLR`) and noisy soft inputs.
//!
//! The ACS recursion is the largest stage of burst decode time in the
//! software model, so this microbench isolates the kernel that the
//! end-to-end `gigabit_bulk` workload of the repository benchmark
//! (`perfbench/`) rides on. The run also reports the ACS/traceback phase
//! split (via `decode_terminated_profiled`, in µs per block and as
//! shares), which kernel the decoder's auto dispatch actually selected
//! on this machine, and the per-call overhead of the resumable forward
//! pass: one 16,384-bit block run through `forward_pass` in 216-branch
//! chunks (one 64-QAM r=3/4 symbol's LLRs per call, as the streaming
//! receiver runs it) and closed by `finish_terminated_into`, next to
//! the one-call decode of the same block. Alongside
//! the criterion timings, a full run writes a `BENCH_viterbi_acs.json`
//! snapshot at the repo root so successive changes can track the
//! kernels in isolation; a quick run (`QUICK_BENCH=1`) leaves it as it
//! is.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mimo_coding::{
    hard_to_llr, CodeSpec, ConvolutionalEncoder, Llr, ViterbiDecoder, ViterbiKernel,
    ViterbiWorkspace,
};
use mimo_fixed::Isa;
use rand::Rng;
use rand_chacha::{rand_core::SeedableRng, ChaCha8Rng};

/// Info-block sizes: one OFDM-symbol-sized block and one full
/// per-stream burst block (2 KiB payload per stream at the gigabit
/// operating point).
const BLOCK_BITS: [usize; 2] = [1152, 16384];

/// Branches per `forward_pass` call in the per-call overhead row: one
/// 64-QAM r=3/4 symbol's mother-code LLRs (48 carriers × 6 coded bits,
/// depunctured 4 → 6 to 432 mother bits, two per branch).
const CHUNK_BRANCHES: usize = 216;

/// Decodes summed into the ACS / traceback phase split.
const PROFILE_DECODES: u32 = 50;

/// Deterministic info bits.
fn info_bits(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i * 37 + 11) % 9 < 4) as u8).collect()
}

/// Encodes `info` and returns soft LLRs, optionally with seeded
/// pseudo-noise so the trellis works for its living.
fn coded_llrs(info: &[u8], noisy: bool) -> Vec<Llr> {
    let mut enc = ConvolutionalEncoder::new(CodeSpec::ieee80211a());
    let coded = enc.encode_terminated(info);
    let mut soft: Vec<Llr> = coded.iter().map(|&b| hard_to_llr(b)).collect();
    if noisy {
        let mut rng = ChaCha8Rng::seed_from_u64(0x9e3779b9);
        for llr in soft.iter_mut() {
            *llr += rng.gen_range(-50i32..51);
        }
    }
    soft
}

/// Decoded info bits per second for one single-block kernel over
/// ~`budget` of wall time (at least 3 decodes).
fn measure_bits_per_sec(
    dec: &ViterbiDecoder,
    soft: &[Llr],
    info_len: usize,
    kernel: ViterbiKernel,
    budget: Duration,
) -> f64 {
    let mut ws = ViterbiWorkspace::new();
    let mut out = Vec::new();
    // Warm the workspace and pin correctness once per config.
    run_kernel(dec, soft, kernel, &mut ws, &mut out);
    assert_eq!(out.len(), info_len, "decode length mismatch");

    let start = Instant::now();
    let mut decodes = 0u64;
    while start.elapsed() < budget || decodes < 3 {
        run_kernel(dec, soft, kernel, &mut ws, &mut out);
        criterion::black_box(out.len());
        decodes += 1;
    }
    decodes as f64 * info_len as f64 / start.elapsed().as_secs_f64()
}

fn run_kernel(
    dec: &ViterbiDecoder,
    soft: &[Llr],
    kernel: ViterbiKernel,
    ws: &mut ViterbiWorkspace,
    out: &mut Vec<u8>,
) {
    dec.decode_terminated_with(kernel, soft, ws, out).expect("decode");
}

/// Decodes `soft` as the streaming receiver does: the forward pass one
/// `chunk`-branch call at a time as if the LLRs were landing, then the
/// close.
fn decode_in_chunks(
    dec: &ViterbiDecoder,
    soft: &[Llr],
    chunk: usize,
    ws: &mut ViterbiWorkspace,
    out: &mut Vec<u8>,
) {
    ws.reset();
    for end in (2 * chunk..soft.len()).step_by(2 * chunk) {
        dec.forward_pass(&soft[..end], ws);
    }
    dec.finish_terminated_into(soft, ws, out).expect("decode");
}

/// Median over `rounds` alternating rounds of the µs per block of each
/// decode in `runs`, each round ~`budget / rounds` per decode.
fn alternating_us_per_block<const N: usize>(
    runs: &mut [&mut dyn FnMut(); N],
    rounds: usize,
    budget: Duration,
) -> [f64; N] {
    let slice = budget / rounds as u32;
    let mut samples = vec![Vec::new(); N];
    for _ in 0..rounds {
        for (run, samples) in runs.iter_mut().zip(&mut samples) {
            let start = Instant::now();
            let mut n = 0u32;
            while start.elapsed() < slice || n < 3 {
                run();
                n += 1;
            }
            samples.push(start.elapsed().as_secs_f64() * 1e6 / f64::from(n));
        }
    }
    std::array::from_fn(|i| {
        samples[i].sort_by(f64::total_cmp);
        samples[i][rounds / 2]
    })
}

/// Writes the JSON snapshot consumed by future PRs' trajectory checks.
fn write_snapshot(dispatch: &str, rows: &[(usize, &str, &str, f64)]) {
    let mut entries = Vec::new();
    for (block_bits, kernel, input, bps) in rows {
        entries.push(format!(
            "    {{\"block_bits\": {block_bits}, \"kernel\": \"{kernel}\", \
             \"input\": \"{input}\", \"info_bits_per_sec\": {bps:.0}}}"
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"fig_viterbi_acs\",\n  \"code\": \"K=7 133/171 r=1/2\",\n  \
         \"auto_dispatch\": \"{dispatch}\",\n  \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_viterbi_acs.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        eprintln!("snapshot written to {path}");
    }
}

fn bench(c: &mut Criterion) {
    let quick = std::env::var_os("QUICK_BENCH").is_some();
    let budget = if quick {
        Duration::from_millis(200)
    } else {
        Duration::from_secs(2)
    };
    let dec = ViterbiDecoder::new(CodeSpec::ieee80211a());

    // What the decoder's automatic dispatch picks on this machine for
    // demapper-scale soft inputs (records e.g. "simd-avx512bw" vs the
    // portable-array tier).
    let dispatch = dec.kernel_name(&[hard_to_llr(0), hard_to_llr(1)]);
    eprintln!("\n=== F10: Viterbi ACS kernel throughput (decoded info bits/sec) ===");
    eprintln!("auto dispatch on this machine: {dispatch}");

    let kernels = [("scalar", ViterbiKernel::Scalar), ("simd", ViterbiKernel::Auto)];
    let mut rows = Vec::new();
    for &bits in &BLOCK_BITS {
        let info = info_bits(bits);
        for (input, noisy) in [("hard", false), ("soft", true)] {
            let soft = coded_llrs(&info, noisy);
            // The `simd` row is `Auto`: it must resolve to the lanes.
            assert!(dec.kernel_name(&soft).starts_with("simd-"));
            let mut line = format!("{bits:>6}-bit block, {input}:");
            for (name, kernel) in kernels {
                let bps = measure_bits_per_sec(&dec, &soft, bits, kernel, budget);
                line.push_str(&format!(" {name} {:.2} Mbit/s |", bps / 1e6));
                rows.push((bits, name, input, bps));
            }
            eprintln!("{line}");
        }
    }
    if quick {
        eprintln!("quick mode: BENCH_viterbi_acs.json not rewritten");
    } else {
        write_snapshot(dispatch, &rows);
    }

    // ACS vs traceback phase split of the auto-dispatched kernel.
    {
        let info = info_bits(BLOCK_BITS[1]);
        let soft = coded_llrs(&info, true);
        let mut ws = ViterbiWorkspace::new();
        let mut out = Vec::new();
        let (mut acs, mut tb) = (Duration::ZERO, Duration::ZERO);
        let mut kernel = "";
        for _ in 0..PROFILE_DECODES {
            let p = dec
                .decode_terminated_profiled(&soft, &mut ws, &mut out)
                .expect("profiled decode");
            acs += p.acs;
            tb += p.traceback;
            kernel = p.kernel;
        }
        let total = (acs + tb).as_secs_f64().max(1e-12);
        eprintln!(
            "phase split ({kernel}, {}-bit blocks): ACS {:.2} us ({:.1}%) | \
             traceback {:.2} us ({:.1}%)",
            BLOCK_BITS[1],
            acs.as_secs_f64() * 1e6 / f64::from(PROFILE_DECODES),
            100.0 * acs.as_secs_f64() / total,
            tb.as_secs_f64() * 1e6 / f64::from(PROFILE_DECODES),
            100.0 * tb.as_secs_f64() / total,
        );
    }

    // Per-call overhead of the resumable forward pass: the same block
    // in one call and in one call per 64-QAM r=3/4 symbol, on every
    // lane build this CPU runs.
    let info = info_bits(BLOCK_BITS[1]);
    let soft = coded_llrs(&info, true);
    for &isa in Isa::tiers() {
        let dec = ViterbiDecoder::with_isa(CodeSpec::ieee80211a(), isa);
        let (mut ws_one, mut ws_chunks) = (ViterbiWorkspace::new(), ViterbiWorkspace::new());
        let (mut one, mut chunked) = (Vec::new(), Vec::new());
        decode_in_chunks(&dec, &soft, CHUNK_BRANCHES, &mut ws_chunks, &mut chunked);
        assert_eq!(ws_chunks.forward_branches(), soft.len() / 2, "chunks skipped");
        run_kernel(&dec, &soft, ViterbiKernel::Auto, &mut ws_one, &mut one);
        assert_eq!(chunked, one, "chunked decode differs from one call");
        let [one_call, per_symbol] = alternating_us_per_block(
            &mut [
                &mut || run_kernel(&dec, &soft, ViterbiKernel::Auto, &mut ws_one, &mut one),
                &mut || decode_in_chunks(&dec, &soft, CHUNK_BRANCHES, &mut ws_chunks, &mut chunked),
            ],
            7,
            budget,
        );
        eprintln!(
            "resumable forward pass ({}, {}-bit block, median of 7 rounds): one call \
             {one_call:.2} us | {CHUNK_BRANCHES}-branch calls {per_symbol:.2} us ({:+.1}%)",
            dec.kernel_name(&soft),
            BLOCK_BITS[1],
            100.0 * (per_symbol / one_call - 1.0),
        );
    }

    // Criterion wrappers: per-block decode latency for each kernel.
    let mut group = c.benchmark_group("fig10_viterbi_acs");
    for &bits in &BLOCK_BITS {
        let info = info_bits(bits);
        let soft = coded_llrs(&info, true);
        group.throughput(Throughput::Elements(bits as u64));
        for (name, kernel) in kernels {
            let mut ws = ViterbiWorkspace::new();
            let mut out = Vec::new();
            group.bench_function(&format!("{bits}b/{name}"), |b| {
                b.iter(|| {
                    run_kernel(&dec, &soft, kernel, &mut ws, &mut out);
                    out.len()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
