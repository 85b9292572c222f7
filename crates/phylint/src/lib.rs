//! `phylint` — an offline, dependency-free static-analysis pass that
//! enforces the PHY's design invariants as a CI gate.
//!
//! The codebase's core guarantees — zero-allocation steady state on
//! the per-symbol/per-chunk hot paths, `unsafe` justified in place,
//! sound SIMD dispatch, and typed errors on the public surface — are
//! design rules, not style preferences. This crate machine-checks
//! them. Two neighbouring guarantees live where their facts are:
//! clippy's `unwrap_used` / `expect_used` / `panic` / `todo` /
//! `unimplemented` lints, enabled at every crate root outside unit
//! tests, keep panics out of the datapath, and `mimo_transport`'s
//! const assertions and `wire_format_docs_match_the_frame_constants`
//! test hold its wire-format docs to its constants.
//!
//! # Rules
//!
//! Token rules (per file, v1):
//!
//! | rule | what it enforces |
//! |------|------------------|
//! | `unsafe_safety` | every `unsafe` carries a `// SAFETY:` comment on the same line or immediately above |
//! | `marker` | phylint's own markers are well-formed, hot regions sit in crate source, and every suppression is used |
//!
//! Semantic rules (workspace call graph, v2 — see [`model`] and
//! [`callgraph`] for the approximation):
//!
//! | rule | what it enforces |
//! |------|------------------|
//! | `hot_transitive` | no `vec!` / `format!` / `Vec::new` / `Vec::with_capacity` / `Box::new` / `String::…` / `.to_vec()` / `.to_owned()` / `.to_string()` / `.collect()` inside a `// phylint: hot` … `// phylint: end-hot` region, nor in any function *reachable* from a call made in one (via the workspace call graph); panic sites are left to clippy's panic lints, which check every lib and bin target outside `#[cfg(test)]` as compiled for x86_64 with default features |
//! | `simd_guard` | every `#[target_feature(enable = …)]` fn is declared `unsafe`, and each call site sits in a fn that is itself `#[target_feature]` or asks a `mimo_fixed::Isa` tier for the feature (`.avx2()` / `.avx512bw()`), the only run-time guard accepted |
//! | `error_surface` | public `Result`-returning fns in crate source use typed errors (no `String` / `Box<dyn Error>` / `&str` / `()` payloads), and public `…Error` enums carry `#[non_exhaustive]` |
//! | `test_only_api` | every plain-`pub` fn, struct, enum and trait in `src/` and `crates/*/src` (bar `phylint`, `bench`, `shims`) is reached from a product root — an example, a bench, `crates/bench/src`, `perfbench/src` or a trait method; tests and doc-tests are not roots. Suppressions must give a `paper §…`, `oracle: <test>` or `test support: <test>` reason. Two approximations let dead API pass: method calls resolve by name and arity, and every trait impl fn is a root even when its type is dead |
//!
//! Cross-function findings carry the **call path** that proves them.
//!
//! # Suppressions
//!
//! Findings are silenced in place, with a mandatory justification:
//!
//! ```text
//! // phylint: allow(hot_transitive) -- sizes the output payload once per completed burst
//! let mut payload = Vec::with_capacity(len);
//! ```
//!
//! A standalone `allow` comment covers the next code line; a trailing
//! one covers its own line. An `allow` that matches no finding is
//! itself a `marker` error, so stale suppressions cannot accumulate.
//!
//! # Hot regions
//!
//! Wrap an allocation-free region in marker comments:
//!
//! ```text
//! // phylint: hot
//! fn process_symbol(&mut self) { … }
//! // phylint: end-hot
//! ```
//!
//! The walker scans every `.rs` file in the workspace except
//! `target/`, `crates/shims/` (vendored third-party stand-ins), and
//! `tests/fixtures/` (this crate's deliberately-broken inputs). The
//! binary exits non-zero when any finding survives suppression, which
//! is what makes it a CI gate.
//!
//! [`PhyError`]: https://docs.rs/mimo_core
//!
//! This crate deliberately has **zero dependencies** (std only) and
//! never touches the network.

// Panic audit (unit tests exempt): CI runs clippy with `-D warnings`.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::todo, clippy::unimplemented))]

pub mod analysis;
pub mod callgraph;
pub mod engine;
pub mod lexer;
pub mod model;
pub mod report;
pub mod rules;
pub mod semantic;

pub use engine::run;
pub use report::{Finding, Report, RuleId, ALL_RULES};
