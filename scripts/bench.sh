#!/usr/bin/env bash
# Persist per-PR bench results: run the experiment benchmarks (E16 sharded
# fleet, E17 wire transport, E18 delta merging, E19 durable store) and
# write BENCH_E16.json / BENCH_E17.json / BENCH_E18.json / BENCH_E19.json
# at the repo root via benchreport's -benchjson mode. BENCH_E16.json carries the headline speedup summary
# (disjoint-fleet merges/s per shard count over the 1-shard baseline; the
# acceptance bar is speedup_shards_4 >= 3). BENCH_E17.json carries the
# TCP transport's measured on-wire bytes, framing overhead and slowdown
# vs in-process. BENCH_E18.json carries the delta-vs-value comparison
# (back-outs avoided, graph-op reduction, increments folded, speedup).
# BENCH_E19.json carries the durability trade: disk-vs-memory commit
# slowdown and the checkpoint+tail recovery speedup / log-size reduction
# over full-history replay.
#
# Usage: scripts/bench.sh [benchtime]   (default 3x; use e.g. 1s for
# steadier numbers on a quiet machine)
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${1:-3x}"

go test -run '^$' \
    -bench 'BenchmarkE16ShardedFleet|BenchmarkE17WireTransport|BenchmarkE18DeltaMerge|BenchmarkE19DurableStore' \
    -benchtime "$BENCHTIME" -benchmem . \
    | go run ./cmd/benchreport -benchjson -out .
