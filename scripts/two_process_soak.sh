#!/usr/bin/env bash
# Two-process duplex soak: drives the duplex_tx / duplex_rx example
# binaries over real TCP sockets, as two OS processes, the way the
# paper's baseband would sit on either side of a physical link.
#
#   Leg 1 (clean, twice): the receiver must decode a stream that is
#     bit-identical to feeding the same paced chunks straight into
#     StreamingReceiver in-process, and the canonical LEDGER line
#     must be identical across both runs (seed-replayable).
#   Leg 2 (fault + kill): a seeded fault schedule corrupts the wire
#     AND the receiver process is SIGKILLed mid-run and restarted on
#     the same port. The kill follows the receiver's progress (its
#     PROGRESS line after its first 200 bursts), not a clock.
#     The sender's supervisor must bridge the outage (at least one
#     reconnect) and both processes must exit 0.
#
# Usage: scripts/two_process_soak.sh [port-base]
# Builds the examples first (`cargo build --release --examples`, a
# no-op when they are fresh), so it never soaks stale binaries.
set -euo pipefail

PORT_BASE="${1:-5710}"
REPO="$(cd "$(dirname "$0")/.." && pwd)"
BIN="$REPO/target/release/examples"
LOGDIR="$(mktemp -d)"
# A failing leg exits with its peers still running: stop them too.
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$LOGDIR"' EXIT

(cd "$REPO" && cargo build --release --examples)

fail() { echo "two_process_soak: $*" >&2; exit 1; }

# Waits until the receiver <pid> has written its PROGRESS line to
# <log>; fails if the receiver exits first.
wait_for_progress() {
    local pid="$1" log="$2"
    until grep -q '^PROGRESS' "$log"; do
        kill -0 "$pid" 2>/dev/null \
            || fail "fault leg: receiver exited before its PROGRESS line"
        sleep 0.02
    done
}

# --- Leg 1: clean link, run twice, diff the canonical ledgers. ---
clean_leg() {
    local run="$1" port="$2"
    "$BIN/duplex_rx" "127.0.0.1:$port" --bursts 24 --deadline-secs 60 \
        > "$LOGDIR/rx_clean_$run.log" 2>&1 &
    local rx_pid=$!
    sleep 0.3
    "$BIN/duplex_tx" "127.0.0.1:$port" --bursts 24 --deadline-secs 60 \
        > "$LOGDIR/tx_clean_$run.log" 2>&1 \
        || fail "clean leg $run: sender failed"
    wait "$rx_pid" || fail "clean leg $run: receiver failed (not bit-identical?)"
}

echo "== clean leg (x2): bit-identity + ledger determinism =="
clean_leg 1 "$PORT_BASE"
clean_leg 2 "$((PORT_BASE + 1))"
grep '^LEDGER' "$LOGDIR/rx_clean_1.log"
diff <(grep '^LEDGER' "$LOGDIR/rx_clean_1.log") \
     <(grep '^LEDGER' "$LOGDIR/rx_clean_2.log") \
    || fail "clean ledgers differ between runs"
echo "clean ledgers identical across runs"

# --- Leg 2: seeded faults + mid-run receiver kill/restart. ---
echo "== fault leg: seeded wire faults + receiver SIGKILL mid-run =="
PORT=$((PORT_BASE + 2))
# The receiver is killed once it prints PROGRESS (after its first 200
# of the 4000 bursts), so the kill lands mid-stream however fast the host.
"$BIN/duplex_rx" "127.0.0.1:$PORT" --bursts 4000 --mode fault --deadline-secs 120 \
    > "$LOGDIR/rx_fault_1.log" 2>&1 &
RX1=$!
sleep 0.3
"$BIN/duplex_tx" "127.0.0.1:$PORT" --bursts 4000 --fault-rate 0.02 --seed 777 \
    --deadline-secs 120 --expect-reconnect > "$LOGDIR/tx_fault.log" 2>&1 &
TX=$!
wait_for_progress "$RX1" "$LOGDIR/rx_fault_1.log"
kill -9 "$RX1" 2>/dev/null || fail "receiver finished before the kill; raise --bursts"
wait "$RX1" 2>/dev/null || true
echo "receiver killed after its $(grep '^PROGRESS' "$LOGDIR/rx_fault_1.log"); restarting on the same port"
sleep 1
"$BIN/duplex_rx" "127.0.0.1:$PORT" --bursts 4000 --mode fault --deadline-secs 120 \
    > "$LOGDIR/rx_fault_2.log" 2>&1 &
RX2=$!
wait "$TX" || fail "fault leg: sender failed (no reconnect?)"
wait "$RX2" || fail "fault leg: restarted receiver failed"
grep '^TX-LIVENESS' "$LOGDIR/tx_fault.log"
grep '^LEDGER' "$LOGDIR/rx_fault_2.log"
echo "sender healed the outage; restarted receiver finished the run"

echo "two_process_soak: OK"
