//! The repository benchmark for the 4×4 MIMO-OFDM chain.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <gigabit_bulk|mixed_short_awgn|stream_framed|all> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics from untraced runs of
//! the product entry points; `--trace 1` runs the traced per-layer
//! replay. Every result is printed as a human-readable report, a
//! `meta` line with the run metadata, and — as the last line — one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! `--workload all --trace 1` traces the three workloads in turn and
//! prints one per-block table with a column per workload.
//!
//! `--self-check [--seed n]` runs the determinism check;
//! `--write-manifest` regenerates `BENCHMARK.json` from the registry.
//! See README.md.

mod meta;
mod metrics;
mod plan;
mod replay;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::process::ExitCode;

use workloads::{BoxError, Checks, Workload};

/// Where the benchmark writes its detailed results and span logs.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_check: bool,
    write_manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(metrics::RUN_SECONDS),
        trace: false,
        self_check: false,
        write_manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--self-check" => args.self_check = true,
            "--write-manifest" => args.write_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// A metric's value from a run's `(name, value)` list.
fn value(values: &[(&str, f64)], name: &str) -> Option<f64> {
    values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

/// The last line of a run: `correct`, `attempted`, `failed`, and the
/// given registry metrics with their units. A value the run did not
/// produce, or one that is not finite, is written as `null`, never as a
/// made-up number.
fn result_json(checks: &Checks, values: &[(&str, f64)], units: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            let v = value(values, name)
                .filter(|v| v.is_finite())
                .map_or_else(|| "null".to_string(), |v| format!("{v:?}"));
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.passed(),
        checks.attempted,
        checks.failed,
        metrics.join(", ")
    )
}

fn write_out(name: &str, contents: &str) {
    let dir = std::path::Path::new(OUT_DIR);
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(name), contents));
    if let Err(e) = written {
        eprintln!("note: could not write {OUT_DIR}/{name}: {e}");
    }
}

fn e2e_units() -> Vec<(&'static str, &'static str)> {
    metrics::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .collect()
}

fn layer_units() -> Vec<(&'static str, &'static str)> {
    metrics::PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit))
        .collect()
}

/// One workload, untraced or traced; prints the report and returns the
/// JSON result line and whether the outputs were correct.
fn run_one(w: Workload, args: &Args, meta_json: &str) -> Result<(String, bool), BoxError> {
    let stem = format!(
        "{}-seed{}-trace{}",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    let (json, checks) = if args.trace {
        let r = traced::run(w, args.seed, args.seconds)?;
        for line in &r.lines {
            println!("{line}");
        }
        print!("{}", traced::table(std::slice::from_ref(&r)));
        write_out(&format!("{stem}-spans.csv"), &trace::spans_csv(&r.spans));
        (result_json(&r.checks, &r.metrics, &layer_units()), r.checks)
    } else {
        let r = workloads::run(w, args.seed, args.seconds)?;
        for line in &r.lines {
            println!("{line}");
        }
        for m in metrics::END_TO_END {
            let v = value(&r.metrics, m.name).unwrap_or(f64::NAN);
            println!("  {:<22} {:>14.6} {}", m.name, v, m.unit);
        }
        (result_json(&r.checks, &r.metrics, &e2e_units()), r.checks)
    };
    for f in &checks.failures {
        println!("  check failed: {f}");
    }
    write_out(
        &format!("{stem}.json"),
        &format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"meta\": {meta_json}, \"result\": {json}}}\n",
            w.name(),
            args.seed
        ),
    );
    Ok((json, checks.passed()))
}

/// `--workload all --trace 1`: every workload traced in turn, printed
/// as one per-block table with a column per workload.
fn trace_all(args: &Args) -> Result<bool, BoxError> {
    let mut runs = Vec::new();
    for w in Workload::ALL {
        let r = traced::run(w, args.seed, args.seconds)?;
        for line in &r.lines {
            println!("{line}");
        }
        runs.push(r);
    }
    println!();
    print!("{}", traced::table(&runs));
    Ok(runs.iter().all(|r| r.checks.passed()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.write_manifest {
        return match std::fs::write("BENCHMARK.json", metrics::manifest_json()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: writing BENCHMARK.json: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.self_check {
        return match workloads::self_check(args.seed, plan::MIXED_BURSTS) {
            Ok(lines) => {
                lines.iter().for_each(|l| println!("{l}"));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let meta = meta::collect();
    let meta_json = meta.to_json();
    println!("meta {meta_json}");
    let outcome = match args.workload.as_deref() {
        Some("all") if args.trace => trace_all(&args).map(|ok| (None, ok)),
        Some("all") => Err("--workload all prints the traced table; it needs --trace 1".into()),
        Some(name) => match Workload::parse(name) {
            Some(w) => run_one(w, &args, &meta_json).map(|(json, ok)| (Some(json), ok)),
            None => Err(format!("unknown workload {name}").into()),
        },
        None => Err("--workload is required".into()),
    };
    match outcome {
        Ok((json, correct)) => {
            if let Some(json) = json {
                println!("{json}");
            }
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
