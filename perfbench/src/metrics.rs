//! The benchmark's metric and workload registry — the single source of
//! `BENCHMARK.json` (`--write-manifest` regenerates it; a unit test
//! keeps the committed file in step).

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the chain sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// A per-layer metric from the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "gigabit_bulk",
        "64-QAM r=3/4 8 KiB bursts on the default schedule through an ideal channel: the payload-heavy case where the per-symbol core, FFT and Viterbi dominate",
    ),
    (
        "mixed_short_awgn",
        "all 8 MCS rows, 64 B-1.4 KiB payloads, AWGN at the 64-QAM cliff, batch-decoded by BurstPipeline: per-burst constant costs and decode quality under noise",
    ),
    (
        "stream_framed",
        "the mixed-MCS plan through StreamingTransmitter, 160-sample CRC frames on a memory duplex and StreamingReceiver: the only workload for txstream and transport",
    ),
];

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    // Wall-clock figures on a shared host drift together by several
    // percent from minute to minute; their bounds sit at the ceiling.
    e2e("goodput_mbps", "Mbit/s", Higher, 0.25),
    e2e("msamples_per_s", "Msample/s", Higher, 0.25),
    e2e("burst_latency_ms_p50", "ms", Lower, 0.25),
    e2e("burst_latency_ms_p90", "ms", Lower, 0.25),
    e2e("burst_ok_ratio", "ratio", Higher, 0.1),
    e2e("mer_db_mean", "dB", Higher, 0.05),
    e2e("peak_rss_mib", "MiB", Lower, 0.2),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 38] = [
    // Self time per burst, µs (median over the traced bursts).
    layer("tx.burst_us", "us", Lower),
    layer("tx.coding_us", "us", Lower),
    layer("tx.map_us", "us", Lower),
    layer("tx.ofdm_us", "us", Lower),
    layer("rx.sync_us", "us", Lower),
    layer("rx.chanest_us", "us", Lower),
    layer("rx.qrd_us", "us", Lower),
    layer("rx.ingest_us", "us", Lower),
    layer("rx.zf_us", "us", Lower),
    layer("rx.pilot_phase_us", "us", Lower),
    layer("rx.timing_us", "us", Lower),
    layer("rx.demap_us", "us", Lower),
    layer("rx.evm_us", "us", Lower),
    layer("rx.header_us", "us", Lower),
    layer("rx.viterbi_us", "us", Lower),
    layer("rx.descramble_us", "us", Lower),
    layer("rx.burst_us", "us", Lower),
    layer("rx.uncovered_us", "us", Lower),
    // Layers only some workloads run, as a share of the burst (0 where
    // the workload does not use the layer).
    layer("channel.propagate_pct", "%", Lower),
    layer("pipeline.batch_pct", "%", Lower),
    layer("txstream.pull_pct", "%", Lower),
    layer("stream_rx.push_pct", "%", Lower),
    layer("stream_rx.close_pct", "%", Lower),
    layer("transport.encode_pct", "%", Lower),
    layer("transport.decode_pct", "%", Lower),
    // Counts over the plan's first pass (repeat exactly per seed).
    layer("rx.symbols", "count", Lower),
    layer("viterbi.info_bits", "count", Lower),
    layer("transport.frames", "count", Lower),
    layer("transport.wire_bytes", "B", Lower),
    layer("rx.err.sync", "count", Lower),
    layer("rx.err.header", "count", Lower),
    layer("rx.err.other", "count", Lower),
    layer("rx.decode_ok_ratio", "ratio", Higher),
    layer("pipeline.workers", "count", Higher),
    // Decode quality over the plan's first pass.
    layer("ber", "ratio", Lower),
    layer("burst_fail_ratio", "ratio", Lower),
    layer("evm_db_mean", "dB", Lower),
    // Replay cost against the product call on the same capture.
    layer("trace.overhead_pct", "%", Lower),
];

/// Seconds one benchmark run measures.
pub const RUN_SECONDS: u32 = 10;

/// The command the benchmark is run with (arguments follow).
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The `BENCHMARK.json` document.
pub fn manifest_json() -> String {
    let command: Vec<String> = COMMAND.iter().map(|s| quoted(s)).collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quoted(name),
                quoted(why)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        RUN_SECONDS,
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_json(),
            "run with --write-manifest to refresh"
        );
    }

    #[test]
    fn registry_respects_the_manifest_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "names must be unique");
        for name in names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert_eq!(END_TO_END[0].name, "setup_s");
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(
                m.bound <= END_TO_END[0].bound,
                "setup_s has the largest bound"
            );
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }
}
