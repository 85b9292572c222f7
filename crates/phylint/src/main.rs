//! CLI entry point: `cargo run -p phylint --release [-- --root DIR]`.
//!
//! Prints every finding as `path:line: [rule] message` (semantic
//! findings append their proving call path), then a per-rule count
//! block. The exit code is the gate: 0 = clean, 1 = findings,
//! 2 = usage/IO error.

// Panic audit (unit tests exempt): CI runs clippy with `-D warnings`.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::todo, clippy::unimplemented))]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
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
            "--help" | "-h" => {
                println!(
                    "phylint — static-analysis gate for the PHY's design invariants\n\
                     \n\
                     usage: phylint [--root DIR]\n\
                     \n\
                     Scans every .rs file under DIR (default: the current\n\
                     directory, which must hold a Cargo.toml) and reports\n\
                     violations of the token rules (unsafe_safety, marker)\n\
                     and the call-graph semantic rules (hot_transitive,\n\
                     simd_guard, error_surface, test_only_api).\n\
                     Exit 0 = clean, 1 = findings."
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

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
