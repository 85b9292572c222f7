//! **The receiver's per-symbol core, stage by stage, and one whole
//! burst.**
//!
//! The per-symbol core keeps each symbol in bus-word lane groups from
//! the carrier gather to the LLR scatter. This bench times its three
//! lane kernels on one stream-symbol of the 64-point geometry at
//! 64-QAM r=3/4, on the CPU tier this host detects:
//!
//! * `zf` — `ZfDetector::detect_bus`: one stream's row of `H⁻¹·r` over
//!   52 occupied carriers, from the burst's `ZfTable`;
//! * `derotate` — `TimingCorrector::correct_bus_in_place`: the pilot
//!   common-phase and timing de-rotations of the 52 carriers;
//! * `demap` — `SymbolDemapper::demap_bus_scatter_into`: 48 data
//!   carriers, soft LLRs through the rate's fused bit map plus the EVM
//!   sums.
//!
//! It then times a warm width-1 `MimoReceiver::receive_burst` of one
//! 8 KiB 64-QAM r=3/4 burst through an ideal channel. That row uses
//! only the public API of `mimo_core` (no lane type), so the same
//! function builds against an earlier tree for an A/B comparison under
//! `taskset -c 0`.
//!
//! Each row prints the median and quartiles of its repeats. Writes no
//! snapshot file.
//!
//! ```text
//! cargo bench -p mimo_bench --bench rx_symbol_core
//! QUICK_BENCH=1 cargo bench -p mimo_bench --bench rx_symbol_core   # smoke
//! taskset -c 0 cargo bench -p mimo_bench --bench rx_symbol_core    # one CPU
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

use mimo_chanest::Mat4;
use mimo_coding::{CodeRate, Llr};
use mimo_core::{LinkGeometry, Mcs, MimoReceiver, MimoTransmitter, PhyConfig};
use mimo_detect::{TimingCorrector, ZfDetector, ZfTable};
use mimo_fixed::{lane_groups, stage_bus, BusLanes, Cf64, Isa, Lanes, CQ15, Q16};
use mimo_interleave::{BlockInterleaver, FusedDeinterleaver};
use mimo_modem::{Modulation, SymbolDemapper, SymbolMapper};
use mimo_ofdm::SubcarrierMap;

/// Sorted per-call times, ns, of `repeats` rounds of `f`, each about
/// `budget` long after one warm-up call.
fn ns_per_call(mut f: impl FnMut(), budget: Duration, repeats: usize) -> Vec<f64> {
    f();
    let mut rounds: Vec<f64> = (0..repeats)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0u64;
            while start.elapsed() < budget || calls < 3 {
                f();
                calls += 1;
            }
            start.elapsed().as_secs_f64() * 1e9 / calls as f64
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    rounds
}

/// Prints one row: the quartiles of `r` divided by `unit`.
fn row(name: &str, r: &[f64], unit: f64, label: &str) {
    let at = |q: f64| r[((r.len() - 1) as f64 * q).round() as usize] / unit;
    eprintln!(
        "{name:<12}  {:>10.1}  {:>10.1}  {:>10.1}  {label}",
        at(0.25),
        at(0.5),
        at(0.75)
    );
}

/// `carriers` deterministic bus words within a third of full scale.
fn symbol(carriers: usize, seed: u32) -> Vec<CQ15> {
    (0..carriers)
        .map(|c| {
            let k = (c as u32 + seed * 977).wrapping_mul(2_654_435_761);
            CQ15::new(
                mimo_fixed::Fx::from_raw(i64::from((k >> 16) as u16 as i16) / 3),
                mimo_fixed::Fx::from_raw(i64::from(k as u16 as i16) / 3),
            )
        })
        .collect()
}

fn staged(carriers: &[CQ15]) -> BusLanes {
    let mut lanes = BusLanes::zeroed(lane_groups(carriers.len()));
    assert!(stage_bus(carriers, &mut lanes.re, &mut lanes.im), "bus words");
    lanes
}

/// The three lane-kernel rows, ns per stream-symbol.
fn stage_rows(budget: Duration, repeats: usize) {
    let map = SubcarrierMap::new(64).expect("64-point map");
    let occupied = map.occupied_indices();
    let n_occ = occupied.len();

    // ZF: a well-conditioned inverse on every carrier.
    let h_inv = Mat4::from_fn(|r, c| {
        let diag = if r == c { 0.9 } else { 0.0 };
        Cf64::new(diag + 0.05 * (r as f64 - c as f64), 0.03 * (r + c) as f64)
    })
    .to_fixed();
    let mut table = ZfTable::new();
    table.load(&vec![h_inv; n_occ]);
    let antennas: Vec<BusLanes> = (0..4).map(|a| staged(&symbol(n_occ, a))).collect();
    let rx_re: [&[Lanes]; 4] = std::array::from_fn(|a| antennas[a].re.as_slice());
    let rx_im: [&[Lanes]; 4] = std::array::from_fn(|a| antennas[a].im.as_slice());
    let detector = ZfDetector::new();
    let mut eq = BusLanes::zeroed(lane_groups(n_occ));
    let zf = ns_per_call(
        || {
            detector
                .detect_bus(&table, &rx_re, &rx_im, 1, &mut eq.re, &mut eq.im)
                .expect("sized");
            black_box(&eq);
        },
        budget,
        repeats,
    );
    row("zf", &zf, 1.0, &format!("{n_occ} carriers, one stream row"));

    // Derotate: both pilot de-rotations in place (re-staged each call,
    // a copy of seven lane groups).
    let symbol_lanes = staged(&symbol(n_occ, 9));
    let timing = TimingCorrector::new();
    let (phi, tau) = (Q16::from_f64(0.7), 0.012);
    let derotate = ns_per_call(
        || {
            eq.clone_from(&symbol_lanes);
            timing.correct_bus_in_place(&mut eq.re, &mut eq.im, &occupied, phi, tau);
            black_box(&eq);
        },
        budget,
        repeats,
    );
    row("derotate", &derotate, 1.0, &format!("{n_occ} carriers"));

    // Demap: 48 data carriers of 64-QAM through the r=3/4 fused map.
    let n_data = map.data_indices().len();
    let interleaver = BlockInterleaver::new(n_data * 6, 6).expect("64-QAM interleaver");
    let fused = FusedDeinterleaver::new(&interleaver, CodeRate::ThreeQuarters.keep_pattern())
        .expect("r=3/4 map");
    let demapper = SymbolDemapper::matched_to(&SymbolMapper::new(Modulation::Qam64).expect("64-QAM"));
    let data = staged(&symbol(n_data, 17));
    let mut llrs = vec![0 as Llr; fused.mother_bits_per_symbol()];
    let demap = ns_per_call(
        || {
            black_box(demapper.demap_bus_scatter_into(
                &data.re,
                &data.im,
                n_data,
                fused.map(),
                true,
                &mut llrs,
            ));
        },
        budget,
        repeats,
    );
    row("demap", &demap, 1.0, &format!("{n_data} carriers, soft + EVM"));
}

/// A warm width-1 `receive_burst` of one 8 KiB 64-QAM r=3/4 burst, µs.
/// Public API only, so it builds against earlier trees too.
fn whole_burst_row(budget: Duration, repeats: usize) {
    let geometry = LinkGeometry::mimo().with_parallelism(false);
    let cfg = PhyConfig::from_geometry(geometry);
    let tx = MimoTransmitter::new(cfg.clone()).expect("valid config");
    let mut rx = MimoReceiver::new(cfg).expect("valid config");
    let payload: Vec<u8> = (0..8192u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
    let burst = tx.transmit_burst_with(Mcs::Qam64R34, &payload).expect("fits one burst");
    let decoded = rx.receive_burst(&burst.streams).expect("ideal channel");
    assert_eq!(decoded.payload, payload, "ideal channel must decode");
    let r = ns_per_call(
        || {
            black_box(rx.receive_burst(black_box(&burst.streams)).expect("decodes"));
        },
        budget,
        repeats,
    );
    row("burst", &r, 1e3, "µs: warm width-1 receive_burst, 8 KiB 64-QAM r=3/4");
}

fn main() {
    let quick = std::env::var_os("QUICK_BENCH").is_some();
    let (budget, repeats) = if quick {
        (Duration::from_millis(20), 5)
    } else {
        (Duration::from_millis(200), 11)
    };
    eprintln!(
        "\n=== RX per-symbol core at 64-QAM r=3/4, tier {} ===",
        Isa::detected().name()
    );
    eprintln!("{:<12}  {:>10}  {:>10}  {:>10}", "stage", "p25 ns", "p50 ns", "p75 ns");
    stage_rows(budget, repeats);
    whole_burst_row(budget.max(Duration::from_millis(50)), repeats);
}
