#!/usr/bin/env bash
# Multi-process wire smoke: build the tiermerge binary, start a real
# `tiermerge serve` child process on loopback TCP with fault injection
# armed, drive a client fleet against it under both protocols with the
# convergence check on (final master sum == initial sum + deposits), poke
# the debug HTTP sidecar, then SIGTERM the server and assert it drained
# gracefully. This is the docs/WIRE.md deployment story, end to end.
#
# Usage: scripts/e2e_wire.sh   (no arguments; ~2s on loopback)
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=$(mktemp -d "${TMPDIR:-/tmp}/wire-smoke.XXXXXX")
BIN="$WORK/tiermerge"
OUT="$WORK/serve.out"
SERVER=""
cleanup() {
    [ -n "$SERVER" ] && kill "$SERVER" 2> /dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/tiermerge

"$BIN" serve -addr 127.0.0.1:0 -http 127.0.0.1:0 -drop 7 > "$OUT" 2>&1 &
SERVER=$!

# The server prints its bound addresses once the listeners are up.
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^listening on //p' "$OUT")
    [ -n "$ADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "FAILED: server never came up" >&2
    cat "$OUT" >&2
    exit 1
fi
HTTP=$(sed -n 's/^debug http on //p' "$OUT")

echo "-- merge fleet over $ADDR (every 7th response dropped)"
"$BIN" client -addr "$ADDR" -mobiles 6 -rounds 3 -txns 4 -check

echo "-- reprocess fleet over $ADDR"
"$BIN" client -addr "$ADDR" -mobiles 3 -rounds 2 -txns 3 -protocol reprocess -check

if command -v curl > /dev/null 2>&1; then
    echo "-- debug sidecar on $HTTP"
    curl -fsS "http://$HTTP/debug/tiermerge" > "$WORK/debug.json"
    grep -q '"window_id"' "$WORK/debug.json"
    curl -fsS "http://$HTTP/debug/tiermerge/prometheus" > "$WORK/debug.prom"
    grep -q '^tiermerge_wire_bytes_in_total ' "$WORK/debug.prom"
    curl -fsS "http://$HTTP/debug/pprof/heap" > "$WORK/heap.pprof"
    [ -s "$WORK/heap.pprof" ]
else
    echo "-- debug sidecar check skipped (no curl)"
fi

kill -TERM "$SERVER"
wait "$SERVER"
SERVER=""
if ! grep -q '^served ' "$OUT"; then
    echo "FAILED: server did not drain cleanly" >&2
    cat "$OUT" >&2
    exit 1
fi
sed 's/^/   /' "$OUT"
echo "WIRE SMOKE PASSED"
