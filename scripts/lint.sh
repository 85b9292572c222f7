#!/usr/bin/env bash
# Local mirror of CI's lint gates: clippy (deny warnings; with the
# panic lints each crate root enables outside unit tests, this is also
# the panic audit), the same panic audit over perfbench, rustdoc (deny
# warnings), the perfbench build with rustc's `unexpected_cfgs` lint
# fatal, and phylint, the PHY-invariant static analyzer. Run from
# anywhere in the repo.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== clippy (deny warnings) =="
cargo clippy --all-targets -- -D warnings

echo
echo "== perfbench panic audit (clippy) =="
# perfbench is its own workspace, so the step above does not compile
# it; the panic lints come from the command line, and `--bins` leaves
# #[cfg(test)] code exempt.
cargo clippy --offline --manifest-path perfbench/Cargo.toml --bins -- \
  -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic \
  -D clippy::todo -D clippy::unimplemented

echo
echo "== rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo
echo "== perfbench build (unexpected_cfgs fatal) =="
# perfbench is its own workspace, so neither step above compiles it.
# Same RUSTFLAGS as CI's perfbench test and replay steps, which then
# reuse this build.
RUSTFLAGS="-D unexpected_cfgs" cargo build --release --offline \
  --manifest-path perfbench/Cargo.toml --all-targets

echo
echo "== phylint (PHY invariants) =="
cargo run -p phylint --release
