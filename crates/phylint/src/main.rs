//! CLI entry point:
//! `cargo run -p phylint --release [-- --root DIR --format json --out FILE]`.
//!
//! Human format prints every finding as `path:line: [rule] message`
//! (semantic findings append their proving call path), then a
//! per-rule count block and a one-line JSON summary for CI log
//! diffing. `--format json` emits the full stable-schema report (see
//! `phylint::json`) instead; `--out FILE` writes the chosen format to
//! a file *in addition to* stdout keeping the human report, so CI can
//! archive machine findings without losing the log. Exit code
//! 0 = clean, 1 = findings, 2 = usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

/// Output formats for the findings report.
enum Format {
    Human,
    Json,
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut format = Format::Human;
    let mut out_file: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("phylint: --root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--format" => match args.next().as_deref() {
                Some("human") => format = Format::Human,
                Some("json") => format = Format::Json,
                other => {
                    eprintln!(
                        "phylint: --format needs `human` or `json`, got {}",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::from(2);
                }
            },
            "--out" => match args.next() {
                Some(f) => out_file = Some(PathBuf::from(f)),
                None => {
                    eprintln!("phylint: --out needs a file argument");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "phylint — static-analysis gate for the PHY's design invariants\n\
                     \n\
                     usage: phylint [--root DIR] [--format human|json] [--out FILE]\n\
                     \n\
                     Scans every .rs file under DIR (default: the current\n\
                     directory, which must hold a Cargo.toml) and reports\n\
                     violations of the token rules (panic-path, hot-allocation,\n\
                     unsafe- and wire-format) and the call-graph semantic\n\
                     rules (hot_transitive, simd_guard, error_surface,\n\
                     test_only_api). --format json emits the stable\n\
                     schema-v3 report; --out FILE additionally writes\n\
                     the JSON report to FILE while stdout keeps the human\n\
                     report. Exit 0 = clean."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("phylint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    // When invoked via `cargo run -p phylint` the working directory is
    // the workspace root already; fall back to CARGO_MANIFEST_DIR's
    // grandparent so the binary also works from inside the crate.
    if !root.join("Cargo.toml").is_file() {
        if let Ok(manifest_dir) = std::env::var("CARGO_MANIFEST_DIR") {
            let candidate = PathBuf::from(manifest_dir).join("../..");
            if candidate.join("Cargo.toml").is_file() {
                root = candidate;
            }
        }
    }

    let report = match phylint::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("phylint: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &out_file {
        let json = phylint::json::report_to_json(&report);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("phylint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    match format {
        Format::Json => {
            print!("{}", phylint::json::report_to_json(&report));
        }
        Format::Human => {
            for f in &report.findings {
                println!("{f}");
            }
            if !report.findings.is_empty() {
                println!();
            }
            for (rule, n) in report.counts() {
                println!("phylint: {:<15} {} finding(s)", format!("{rule}:"), n);
            }
            println!(
                "phylint: scanned {} files, {} suppression(s) in use",
                report.files_scanned, report.suppressions_used
            );
            println!("phylint: summary {}", report.json_summary());
        }
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
