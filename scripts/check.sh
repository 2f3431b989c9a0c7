#!/usr/bin/env bash
# Full repository verification: build, vet, format check, the lock
# discipline tests, unit/property tests,
# experiment regeneration with pass/fail gates, examples and a quick
# benchmark smoke. CI runs exactly this (see .github/workflows/ci.yml).
set -euo pipefail
cd "$(dirname "$0")/.."

# Pinned versions for the external gates (staticcheck, govulncheck).
# These are REQUIRED: a missing binary fails the check unless the run
# opts out explicitly with TIERMERGE_SKIP_EXTERNAL_GATES=1 (offline or
# vendoring-free environments — CI's lint job runs the pinned tools
# itself, so its check job sets the variable).
STATICCHECK_VERSION="${STATICCHECK_VERSION:-2024.1}"
GOVULNCHECK_VERSION="${GOVULNCHECK_VERSION:-v1.1.3}"
TIERMERGE_SKIP_EXTERNAL_GATES="${TIERMERGE_SKIP_EXTERNAL_GATES:-0}"

# Every test step passes an explicit -timeout far below go test's 10-minute
# default, so that a deadlock fails its step within minutes instead of
# holding a CI run for ten per hanging package. A timeout bounds each
# package's test binary; each is at least ten times its whole step's
# uncached wall time (compilation included) on a 2-vCPU host, and never
# under 60s: go test ./... and the -race sweep 180s (16 s measured), the
# lock discipline step 120s (9 s), the indexed-path race gate and the
# benchmark smoke 90s (8 s), every other step 60s (6 s at most).

# run_logged NAME CMD...: run a command with output captured to a log,
# replaying the log when the command fails so panics in benchreport or
# the examples are never swallowed by a silent redirect.
run_logged() {
    local name="$1"
    shift
    local log
    log=$(mktemp "${TMPDIR:-/tmp}/check-${name//\//_}.XXXXXX")
    if ! "$@" > "$log" 2>&1; then
        echo "FAILED: $name ($*)" >&2
        echo "---- output ----" >&2
        cat "$log" >&2
        rm -f "$log"
        exit 1
    fi
    rm -f "$log"
}

# require_tests PATTERN PKG...: every |-alternative of an explicit -run
# pattern must list at least one test in PKG... (go test -list), so a
# renamed or deleted test fails the gate instead of silently passing it.
require_tests() {
    local pattern="$1" alt listed
    shift
    IFS='|' read -ra alts <<< "$pattern"
    for alt in "${alts[@]}"; do
        listed=$(go test -list "$alt" "$@")
        if ! grep -q '^Test' <<< "$listed"; then
            echo "FAILED: -run alternative '$alt' matches no test in $*" >&2
            exit 1
        fi
    done
}

echo "== gofmt =="
unformatted=$(gofmt -l . | grep -v '^$' || true)
if [ -n "$unformatted" ]; then
    echo "unformatted files:" "$unformatted"
    exit 1
fi

echo "== build =="
go build ./...

echo "== vet =="
go vet ./...

echo "== journal format stays in internal/wal =="
# Only internal/wal may name a record kind: every other package reads a
# journal through wal.Scan, wal.Groups and wal.Replay, so a change to the
# record format touches internal/wal alone.
kind_leaks=$(grep -rn 'wal\.Kind' --include=*.go internal cmd | grep -v '_test\.go' | grep -v '^internal/wal/' || true)
if [ -n "$kind_leaks" ]; then
    echo "FAILED: journal record kinds named outside internal/wal:" >&2
    echo "$kind_leaks" >&2
    exit 1
fi

echo "== one binary codec for what the base logs and ships =="
# Journal records, transaction code and states have one encoding
# (internal/codec); JSON is only the wire envelope's small header. The
# packages that encode them must not fall back to encoding/json.
json_leaks=$(go list -f '{{.ImportPath}}: {{join .Imports " "}}' ./internal/wal ./internal/tx ./internal/expr ./internal/codec | grep 'encoding/json' || true)
if [ -n "$json_leaks" ]; then
    echo "FAILED: encoding/json imported by the binary codec's packages:" >&2
    echo "$json_leaks" >&2
    exit 1
fi
# Records past 16 MiB reopen, bit rot fails a checksum wherever it sits,
# the decoder refuses deep nesting and the old JSON-lines format by name;
# the fuzz seed corpora run with them.
codec_pins='TestCheckpointLargerThan16MiBReopens|TestBitRotIsNeverAdopted|TestServeFrameRefusesDeepCode'
require_tests "$codec_pins" ./internal/replica/
go test -timeout 60s -count=1 -run "$codec_pins" ./internal/replica/
wal_pins='TestScanRejectsDamageAnywhere|TestLengthCheckCatchesByteErrors|TestScanRefusesJSONLines'
require_tests "$wal_pins" ./internal/wal/
require_tests TestInspectRefusesJSONLines ./cmd/walinspect/
require_tests TestDecoderRefusesMalformed ./internal/codec/
go test -timeout 60s -count=1 -run "$wal_pins|TestInspectRefusesJSONLines|TestDecoderRefusesMalformed|^Fuzz" ./internal/wal/ ./internal/tx/ ./internal/codec/ ./cmd/walinspect/
# One commit record per commit unit: a merge round's installs recover
# whole or not at all, the golden journals decode to the executions they
# log, and the v1 one-record-per-operation format is refused by name.
commit_pins='TestGoldenJournalsDecode|TestScanRefusesV1Journal'
require_tests "$commit_pins" ./internal/wal/
require_tests TestMergeInstallAtomicInLog ./internal/replica/
go test -timeout 60s -count=1 -run "$commit_pins" ./internal/wal/
go test -timeout 60s -count=1 -run TestMergeInstallAtomicInLog ./internal/replica/

echo "== base state has one form =="
# A cluster's state is its master, window origin and the window's entries;
# the Strategy 1 token check reads an item at a position off the window's
# index, and the other base replicas exist only as the propagation charge.
# No program code outside internal/store may bring back a second,
# per-position form of it, a replay of the window, or follower copies.
chain_leaks=$(grep -rnE 'store\.NewMemory|store\.Engine|SnapshotAt|InsertAt|stateAt\(|SyncReplicas|FollowerState' --include=*.go internal cmd ./*.go | grep -v '_test\.go:' | grep -v '^internal/store/' || true)
if [ -n "$chain_leaks" ]; then
    echo "FAILED: per-position base state named outside internal/store:" >&2
    echo "$chain_leaks" >&2
    exit 1
fi

echo "== serial report (golden) =="
# The serial tiermerge report is deterministic; its goldens pin a refactor
# that must not move a counter (Strategy 1, window advances, propagation).
require_tests TestSerialReportGolden ./cmd/tiermerge/
go test -timeout 60s -count=1 -run TestSerialReportGolden ./cmd/tiermerge/

echo "== compiled transactions, one-form effects, pair-free graph build, graph phase in a scratch =="
# The graph build must match the map-based construction it replaced, edge
# for edge and count for count, and the mask-based cycle pass must give
# every strategy the back-out set of the map-based one; execution and the
# build keep their measured allocations (the build's must not grow when
# vertex pairs repeat across more items); the graph phase through a warm
# scratch allocates what the report's graph keeps plus a small constant,
# and a served conflict-heavy merge stays under its byte pin; the journal
# LogTxn writes stays byte-identical to the committed golden files.
form_pins='TestBuildMatchesReference|TestBuildAllocsIndependentOfRepeats|TestBackOutMatchesReference'
require_tests "$form_pins" ./internal/graph/
require_tests TestExecAllocs ./internal/tx/
require_tests TestMergeIndexedAllocs ./internal/merge/
require_tests TestServeFrameMergeAllocs ./internal/replica/
require_tests 'TestLogTxnGoldenCanned|TestLogTxnGoldenGenerated' ./internal/wal/
go test -timeout 60s -count=1 -run "$form_pins|TestExecAllocs|TestMergeIndexedAllocs|TestServeFrameMergeAllocs|TestLogTxnGolden" ./internal/graph/ ./internal/tx/ ./internal/merge/ ./internal/replica/ ./internal/wal/

echo "== lock discipline (events, checkpoint file work, lock order, shared footprints) =="
# No observer event is delivered while a cluster mutex is held, the
# checkpoint file is written and forced outside the mutex, every cluster set
# lists its members in ascending shard order (the one lock order), a merge
# never writes into a transaction's compiled footprint, and the store's
# buffer mutex is free while the tail is forced. The table of seeded bugs
# these catch is docs/LINT.md.
lock_pins='TestEventsOutsideLock|TestCheckpointWrittenOutsideLock|TestClusterSetsAscending|TestMergeLeavesFootprintsAlone'
require_tests "$lock_pins" ./internal/replica/
go test -timeout 120s -race -count=10 -run "$lock_pins" ./internal/replica/
require_tests TestWriteDuringTailSync ./internal/store/
go test -timeout 60s -race -count=10 -run TestWriteDuringTailSync ./internal/store/

echo "== staticcheck (required, pinned $STATICCHECK_VERSION) =="
if command -v staticcheck > /dev/null 2>&1; then
    have=$(staticcheck -version 2> /dev/null || true)
    case "$have" in
        *"$STATICCHECK_VERSION"*) staticcheck ./... ;;
        *)
            echo "WARNING: staticcheck version mismatch (have: ${have:-unknown}, want $STATICCHECK_VERSION); running anyway"
            staticcheck ./...
            ;;
    esac
elif [ "$TIERMERGE_SKIP_EXTERNAL_GATES" = "1" ]; then
    echo "SKIPPED: staticcheck (TIERMERGE_SKIP_EXTERNAL_GATES=1; pin: $STATICCHECK_VERSION)"
else
    echo "FAILED: staticcheck not installed (pin: $STATICCHECK_VERSION)." >&2
    echo "Install it, or set TIERMERGE_SKIP_EXTERNAL_GATES=1 to skip the external gates." >&2
    exit 1
fi

echo "== govulncheck (required, pinned $GOVULNCHECK_VERSION) =="
if command -v govulncheck > /dev/null 2>&1; then
    govulncheck ./... || {
        echo "FAILED: govulncheck" >&2
        exit 1
    }
elif [ "$TIERMERGE_SKIP_EXTERNAL_GATES" = "1" ]; then
    echo "SKIPPED: govulncheck (TIERMERGE_SKIP_EXTERNAL_GATES=1; pin: $GOVULNCHECK_VERSION)"
else
    echo "FAILED: govulncheck not installed (pin: $GOVULNCHECK_VERSION)." >&2
    echo "Install it, or set TIERMERGE_SKIP_EXTERNAL_GATES=1 to skip the external gates." >&2
    exit 1
fi

echo "== tests =="
go test -timeout 180s ./...

echo "== reconnect cost (allocation pins) =="
# What one reconnect allocates must not grow with the base prefix (one
# cluster or across shards), with the items the base holds, or — per extra
# tentative transaction — with the items the mobile's replica holds. Listed
# first, so renaming or deleting a pin fails here instead of passing it.
cost_pins='ReconnectCostIndependentOfPrefix|CrossShardReconnectCostIndependentOfPrefix|ReconnectAllocIndependentOfItems|TentativeAllocIndependentOfItems'
require_tests "$cost_pins" ./internal/replica/
go test -timeout 60s -count=1 -run "$cost_pins" ./internal/replica/

echo "== journal integrity (damaged payloads, tampered base journals) =="
# A torn or uncommitted reconnect payload is refused, not merged short, and
# base recovery verifies every logged read, image and delta, from a whole
# journal and from a tail segment.
journal_pins='TestServeFrameRejectsDamagedJournal|TestBaseRecoveryDetectsTamper'
require_tests "$journal_pins" ./internal/replica/
go test -timeout 60s -count=1 -run "$journal_pins" ./internal/replica/

echo "== race (concurrent reconnects + observers + crash-recovery soak) =="
go test -timeout 180s -race ./internal/replica/... ./internal/rewrite/... ./internal/obs/... ./internal/sim/...

echo "== Strategy 1 checkout tokens (position bounds, state at the position) =="
# A token admits a merge exactly when its origin equals the state a serial
# run gives at its position; a position outside the window is refused, in process
# and over the wire, instead of panicking under the cluster mutex.
token_pins='TestStrategy1TokenCheck|TestMergeRefusesNegativeCheckoutPos|TestServeFrameRefusesNegativeCheckoutPos'
require_tests "$token_pins" ./internal/replica/
go test -timeout 60s -count=1 -run "$token_pins" ./internal/replica/

echo "== wire origin (footprint payloads, same-window merge answers, checkout frames) =="
# A reconnect's payload carries Hm's footprint of the origin and the base
# checks what a token claims; a same-window merge answer carries no origin
# and no checkout follows it, so a reconnect's bytes and allocation do not
# grow with the replica, and a replay after the window moved is answered
# without same. A Strategy 2 whole-origin checkout is one frame per window,
# billed per checkout; concurrent duplicates of one reconnect merge once,
# and a retry stays exactly-once however many mobiles merged before it.
origin_pins='TestMergeRefusesForeignOrigin|TestWireReconnectCostIndependentOfItems|TestRecheckoutProtocol|TestWireStrategy1FootprintTokens|TestStrategy1TokenSeesInsertedItem|TestCheckoutFrameSharedInWindow|TestCheckoutFrameAfterReopen|TestCheckoutFrameStrategy1Live|TestCheckoutFrameAllocIndependentOfItems|TestCheckoutFrameBilling|TestRetryAfterManyMobilesMergedOnce'
require_tests "$origin_pins" ./internal/replica/
go test -timeout 60s -count=1 -run "$origin_pins" ./internal/replica/
# The third alternative runs only its replay case (the /window-advanced
# level of the pattern; the other two have no subtests), and the -v log
# must show that case passing, so renaming it fails here too.
origin_races='TestRecheckoutRacesWindowAdvance|TestInflightDuplicateMergedOnce|TestRecheckoutProtocol'
require_tests "$origin_races" ./internal/replica/
races_log=$(go test -timeout 60s -race -count=10 -v -run "$origin_races/window-advanced" ./internal/replica/) || {
    echo "$races_log" | tail -n 50
    exit 1
}
if ! grep -q -- '--- PASS: TestRecheckoutProtocol/window-advanced' <<< "$races_log"; then
    echo "FAILED: the replay case TestRecheckoutProtocol/window-advanced did not run" >&2
    exit 1
fi
tail -n 1 <<< "$races_log"

echo "== race (wire transport: chan-vs-TCP conformance, exactly-once, drains) =="
# Explicit gate for the transport seam: the conformance suite must produce
# identical outcomes over the in-process channel transport and real
# loopback TCP — round trips, drop-retry parity, exactly-once under
# duplicated frames, mid-flight server close, and oversized-frame
# rejection — all under the race detector.
go test -timeout 60s -race -count=1 ./internal/wire/
# TestWireMetrics read the byte counters while the server handler could
# still be billing the response it had just written (~1 failure in 6 under
# -race); repeat it so the flake stays fixed.
require_tests TestWireMetrics ./internal/wire/
go test -timeout 60s -race -count=20 -run TestWireMetrics ./internal/wire/

echo "== race (relevant-base parity) =="
# Explicit gate for the indexed merge path: building G(Hm,Hb) over only the
# base entries that can lie on a cycle through Hm must decide exactly what
# the literal build over the whole history decides (the differential), a
# captured view must stay valid while the history keeps appending (Preview
# merges outside the mutex), a merge through the home cluster's scratch
# must leave every earlier merge's report and outcome as they were, and the
# local-graph charge read off the merge's own graph must equal a second
# build's edge count — under the race detector.
require_tests 'MergeIndexedMatchesMerge|BuildIndexed|ReducedPredecessors' ./internal/merge/ ./internal/graph/
go test -timeout 90s -race -count=1 -run 'MergeIndexedMatchesMerge|BuildIndexed|ReducedPredecessors' ./internal/merge/ ./internal/graph/
require_tests 'ViewStaysValidUnderAppend|Strategy1ViewFromPosition|ScratchReuseLeavesEarlierMergesAlone|LocalEdgeChargeExact' ./internal/replica/
go test -timeout 60s -race -count=1 -run 'ViewStaysValidUnderAppend|Strategy1ViewFromPosition|ScratchReuseLeavesEarlierMergesAlone|LocalEdgeChargeExact' ./internal/replica/

echo "== race (correctness oracle + sharded base tier) =="
# Explicit gate for the paper's properties in every in-process
# configuration: the correctness oracle (one cluster or 4 shards × Memory or
# Disk × deltas on/off × Strategy 1/2, serial and concurrent arms, against
# the one-cluster reference; -short runs fewer seeds per cell), plus what
# the oracle's reference cannot cover: the router, the cross-shard cycle
# reproducers (live, reopened, mid-barrier), the checkout/advance window
# barrier, the all-shards-contended deadlock smoke, and the Strategy 1
# interior insert against a serial-run oracle (plain and sliced across
# shards, memory and disk engines) — all under the race detector.
require_tests TestOracle ./internal/replica/
go test -timeout 60s -race -short -count=1 -run TestOracle ./internal/replica/
require_tests 'TestShard|TestCrossShard|TestWindowBarrier|InteriorInsert' ./internal/replica/
go test -timeout 60s -race -count=1 -run 'TestShard|TestCrossShard|TestWindowBarrier|InteriorInsert' ./internal/replica/

echo "== race (base commits: no item locks, shared fsyncs, honest acks) =="
# Explicit gate for ExecBase's early lock release: a commit on an item whose
# last writer is still in its fsync acks without waiting for it, and every
# record-boundary prefix of the journal recovers a prefix of the commit
# order; a shard-local commit that read a cross-shard entry forces every
# shard's journal before its ack; and a merge that lands while the window
# barrier sweeps still sees the closing window's cross-shard cycle — all
# under the race detector.
require_tests 'TestBaseCommitsShareOneFsync|TestBaseCommitAcksAfterCrossShardReadDurable|TestShardedMergeSeesCrossShardCycle' ./internal/replica/
go test -timeout 60s -race -count=1 -run 'TestBaseCommitsShareOneFsync|TestBaseCommitAcksAfterCrossShardReadDurable' ./internal/replica/
midbarrier=$(go test -timeout 60s -race -count=1 -v -run 'TestShardedMergeSeesCrossShardCycle/^mid-barrier$' ./internal/replica/ 2>&1) || true
if ! grep -q -- '--- PASS: TestShardedMergeSeesCrossShardCycle/mid-barrier' <<< "$midbarrier"; then
    echo "FAILED: subtest TestShardedMergeSeesCrossShardCycle/mid-barrier did not run and pass" >&2
    echo "$midbarrier" >&2
    exit 1
fi

echo "== bench module (the benchmark harness compiles against internal/...) =="
# bench/ is its own module importing tiermerge/internal/...; vet and test it
# here so an internal API change that breaks the harness fails locally and
# in CI rather than in the benchmark pipeline.
(cd bench && go vet ./... && go test -timeout 60s ./...)

echo "== experiments (E0..E19) =="
run_logged benchreport go run ./cmd/benchreport

echo "== examples =="
for ex in quickstart banking inventory fleet offline intrusion; do
    echo "-- examples/$ex"
    run_logged "example-$ex" go run "./examples/$ex"
done

echo "== scenario files =="
for f in scenarios/*.txn; do
    echo "-- $f"
    run_logged "scenario-$(basename "$f")" go run ./cmd/txrun -file "$f"
done

echo "== merge trace smoke =="
run_logged trace-smoke go run ./cmd/tiermerge trace -mobiles 2 -rounds 2 -txns 3

echo "== multi-process wire smoke (tiermerge serve + client over loopback TCP) =="
run_logged wire-smoke bash scripts/e2e_wire.sh

echo "== benchmark smoke =="
run_logged bench-smoke go test -timeout 90s -run XXX -bench . -benchtime 1x ./...

echo "ALL CHECKS PASSED"
