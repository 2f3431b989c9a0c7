package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"tiermerge/internal/model"
	"tiermerge/internal/obs"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result of one run of one workload: the line the driver
// reads, plus what the full report prints beside it.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// notes are the failed checks and warnings, for people.
	notes []string
	// samples is the number of reconnect and base-transaction latencies
	// behind the percentiles.
	reconnectSamples, baseSamples int
	// baseShare is the share of the clients' time spent inside ExecBase;
	// baseP50 and baseP95 are its latency in an untraced run (ms).
	baseShare, baseP50, baseP95 float64
}

func (o *outcome) set(name string, v float64, unit string) {
	o.Metrics[name] = metric{Value: finite(v), Unit: unit}
}

func (o *outcome) fail(format string, args ...any) {
	o.Correct = false
	o.notes = append(o.notes, "FAIL "+fmt.Sprintf(format, args...))
}

// options are the knobs of one run.
type options struct {
	seed    int64
	seconds float64
	// quick caps the loop at quickReconnects reconnects in windows of
	// quickWindow, for the smoke test.
	quick bool
	// root is the directory the run keeps its data under; traceDir is where
	// a traced run writes its spans.
	root, traceDir string
}

const (
	quickReconnects = 64
	quickWindow     = 32
	// setupRepeats is how many times a run sets the system up; setup_s is
	// their median.
	setupRepeats = 5
	// recoverRepeats is how many open→Master cycles store.recover_ms is the
	// median of.
	recoverRepeats = 10
)

func (o options) perWindow(sp *spec) int {
	w := sp.Window
	if o.quick && w > quickWindow {
		w = quickWindow
	}
	return w / clients
}

func (o options) recoverRepeats() int {
	if o.quick {
		return 2
	}
	return recoverRepeats
}

func (o options) maxReconnects() int {
	if o.quick {
		return quickReconnects
	}
	return 0
}

// runUntraced is a run with tracing off: it reports the end-to-end
// metrics.
func runUntraced(sp *spec, o options) (*outcome, error) {
	out := &outcome{Correct: true, Metrics: map[string]metric{}}
	var (
		e      *env
		setups []float64
		err    error
	)
	repeats := setupRepeats
	if o.quick {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if e != nil {
			e.discard()
		}
		if e, err = setUp(sp, o.root, o.seed, o.perWindow(sp), false); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, e.setupS)
	}
	defer e.discard()
	res, err := e.measure(o.seconds, o.maxReconnects())
	if err != nil {
		return nil, err
	}
	// One recovery, for the check that the reopened master is the master
	// that was closed; recovery time is a per-layer metric.
	if _, err := e.closeAndRecover(out, res, 1); err != nil {
		return nil, err
	}
	e.check(out, res)

	n := float64(res.tally.reconnects)
	out.Attempted = res.tally.reconnects + res.tally.baseTxns
	out.Failed = res.tally.failedOps
	out.reconnectSamples, out.baseSamples = len(res.reconnectMs), len(res.baseMs)
	out.baseShare = ratio(total(res.baseMs)/1e3, clients*res.measuredS)
	out.baseP50, out.baseP95 = median(res.baseMs), percentile(sortedCopy(res.baseMs), 95)
	out.set("setup_s", median(setups), "s")
	out.set("reconnect_per_s", ratio(n, res.measuredS), "1/s")
	out.set("reconnect_p50_ms", median(res.reconnectMs), "ms")
	out.set("reconnect_p95_ms", percentile(sortedCopy(res.reconnectMs), 95), "ms")
	out.set("saved_ratio", ratio(float64(res.tally.saved), float64(res.tally.tentative)), "ratio")
	out.set("wire_bytes_per_reconnect", ratio(float64(res.wireIn+res.wireOut), n), "B")
	out.set("alloc_kb_per_reconnect", ratio(float64(res.allocBytes)/1024, n), "KiB")
	out.set("log_bytes_per_commit", ratio(float64(e.tailBytes), float64(e.tailCommits)), "B")
	return out, nil
}

// discard tears the env down and removes its directory.
func (e *env) discard() {
	if e == nil {
		return
	}
	e.tearDown()
	for _, c := range e.clients {
		if c.probe != nil {
			c.probe.close()
		}
	}
	os.RemoveAll(e.dir)
}

// recovery is what reopening the store after the loop showed.
type recovery struct {
	ms      []float64
	records int // journal records replayed by one recovery
}

// closeAndRecover closes the store without a final checkpoint, then times
// open → first Master() cycles on the directory the loop left. It checks
// that the recovered master equals the master before the close.
func (e *env) closeAndRecover(out *outcome, res *loopResult, repeats int) (*recovery, error) {
	before := e.tier.Master()
	if e.sp.DepositOnly {
		want := sumState(e.origin) + model.Value(e.warmDeposited+res.tally.deposited)
		if got := sumState(before); got != want {
			out.fail("total balance %d, want %d: initial %d + acked deposits %d (warm-up %d)",
				got, want, sumState(e.origin), res.tally.deposited, e.warmDeposited)
		}
	}
	e.tearDown()
	e.tier = nil
	rec := &recovery{}
	for i := 0; i < repeats; i++ {
		sp := e.tracer.begin(0, 0, "open")
		t0 := time.Now()
		t, records, err := openTier(e.dataDir(), e.origin, e.sp.Shards, nil)
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		after := t.Master()
		rec.ms = append(rec.ms, ms(time.Since(t0)))
		e.tracer.end(sp)
		rec.records = records
		if i == 0 && !after.Equal(before) {
			out.fail("master after close + reopen differs from the master before")
		}
		if err := t.closeStore(); err != nil {
			return nil, fmt.Errorf("recover: close: %w", err)
		}
	}
	return rec, nil
}

// check applies the run-level correctness checks.
func (e *env) check(out *outcome, res *loopResult) {
	t := res.tally
	if t.failedOps > 0 {
		out.fail("%d of %d operations failed or did not account for all %d transactions",
			t.failedOps, t.reconnects+t.baseTxns, e.sp.Tentative)
	}
	if t.badIDErrs > 0 {
		out.fail("%d backed-out IDs name something other than the session's tentative transactions", t.badIDErrs)
	}
	if t.fallbacks > 0 {
		out.fail("%d reconnects fell back to reprocessing (window expiry is designed out)", t.fallbacks)
	}
	if t.reconnects == 0 {
		out.fail("no reconnect completed")
	}
}

// runTraced is a run with tracing on: a short untraced pass for the
// tracing overhead, then the traced pass that reports the per-layer
// metrics.
func runTraced(sp *spec, o options) (*outcome, error) {
	out := &outcome{Correct: true, Metrics: map[string]metric{}}
	plainS, tracedS := o.seconds/4, o.seconds*3/4

	plain, err := setUp(sp, o.root, o.seed, o.perWindow(sp), false)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	pres, err := plain.measure(plainS, o.maxReconnects())
	plain.discard()
	if err != nil {
		return nil, err
	}

	e, err := setUp(sp, o.root, o.seed, o.perWindow(sp), true)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.discard()
	res, err := e.measure(tracedS, o.maxReconnects())
	if err != nil {
		return nil, err
	}
	rec, err := e.closeAndRecover(out, res, o.recoverRepeats())
	if err != nil {
		return nil, err
	}
	e.check(out, res)
	out.Attempted = res.tally.reconnects + res.tally.baseTxns
	out.Failed = res.tally.failedOps
	out.reconnectSamples, out.baseSamples = len(res.reconnectMs), len(res.baseMs)

	selfTimes(e.tracer.spans)
	if o.traceDir != "" {
		if err := e.tracer.write(filepath.Join(o.traceDir, "trace-"+sp.Name+".jsonl")); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	e.layerMetrics(out, res, rec)
	overhead := ratio(ratio(float64(res.tally.reconnects), res.measuredS),
		ratio(float64(pres.tally.reconnects), pres.measuredS))
	out.set("proc.trace_overhead_ratio", overhead, "ratio")
	return out, nil
}

// layerMetrics fills in the per-layer metrics of a traced pass from its
// spans, its probes' sums and the counter deltas across the loop.
func (e *env) layerMetrics(out *outcome, res *loopResult, rec *recovery) {
	spans := e.tracer.spans
	p50 := func(name string) float64 { d, _ := durationsMs(spans, name); return median(d) }
	sum := func(name string) float64 { d, _ := durationsMs(spans, name); return total(d) }
	var pr probe // the clients' probes, summed
	for _, c := range e.clients {
		pr.add(c.probe)
	}
	t, cn := res.tally, res.counts
	T := float64(e.sp.Tentative)
	wireReconnects := float64(t.reconnects - pr.directN - pr.frameN)
	merges := float64(cn.MergesPerformed)
	direct := float64(pr.directN)
	commits := float64(cn.BaseForcedWrites)

	// wire
	out.set("wire.call_p50_ms", p50("wire.call:merge"), "ms")
	out.set("wire.socket_overhead_p50_ms", median(pr.socketMs), "ms")
	out.set("wire.requests_per_reconnect", ratio(float64(res.frames), wireReconnects), "count")
	out.set("wire.redials", float64(res.redials), "count")
	out.set("wire.frame_bytes_in_per_reconnect", ratio(float64(res.wireIn), wireReconnects), "B")
	out.set("wire.frame_bytes_out_per_reconnect", ratio(float64(res.wireOut), wireReconnects), "B")

	// replica
	serveframe := p50("replica.serveframe:merge")
	out.set("replica.serveframe_p50_ms", serveframe, "ms")
	out.set("replica.envelope_codec_p50_ms", p50("replica.envelope_codec"), "ms")
	out.set("replica.merge_p50_ms", p50("replica.merge"), "ms")
	out.set("replica.preview_p50_ms", p50("replica.preview"), "ms")
	out.set("replica.admit_install_p50_ms", median(pr.admitInstallMs), "ms")
	out.set("replica.checkout_p50_ms", p50("replica.checkout"), "ms")
	execbase, _ := durationsMs(spans, "execbase")
	out.set("replica.execbase_p50_ms", median(execbase), "ms")
	out.set("replica.execbase_p95_ms", percentile(sortedCopy(execbase), 95), "ms")
	out.set("replica.advance_window_p50_ms", p50("advance_window"), "ms")
	out.set("replica.merge_retries_per_merge", ratio(float64(cn.MergeRetries), merges), "ratio")
	out.set("replica.admit_batch_size", ratio(merges, float64(cn.AdmitBatches)), "count")
	out.set("replica.cross_shard_ratio", ratio(float64(cn.CrossShardMerges), merges), "ratio")
	out.set("replica.fallback_ratio", ratio(float64(cn.MergeFallbacks), float64(t.reconnects)), "ratio")
	out.set("replica.reexec_failed_ratio", ratio(float64(t.reexecFailed), float64(t.reprocessed+t.reexecFailed)), "ratio")

	// history, tx
	out.set("history.run_us_per_txn", ratio(1e3*sum("history.run"), direct*T), "us")
	runs, _ := durationsMs(spans, "run")
	out.set("tx.run_us_per_txn", ratio(1e3*sum("run"), float64(len(runs))*T), "us")
	out.set("tx.marshal_us_per_txn", ratio(1e3*sum("tx.marshal"), direct*T), "us")

	// graph
	out.set("graph.build_p50_ms", p50("graph.build"), "ms")
	out.set("graph.base_entries_per_merge", ratio(float64(pr.baseEntries), direct), "count")
	out.set("graph.edges_per_merge", ratio(float64(pr.edges), direct), "count")
	out.set("graph.ops_per_merge", ratio(float64(cn.BaseGraphOps+cn.MobileGraphOps), merges), "count")
	out.set("graph.backout_p50_ms", p50("graph.backout"), "ms")
	out.set("graph.backout_size_per_merge", ratio(float64(t.backedOut), float64(t.reconnects)), "count")

	// rewrite, prune, merge
	out.set("rewrite.p50_ms", p50("rewrite"), "ms")
	out.set("rewrite.ops_per_merge", ratio(float64(cn.MobileRewriteOps), merges), "count")
	out.set("rewrite.saved_per_affected", ratio(float64(pr.savedAffected), float64(pr.affected)), "ratio")
	out.set("prune.p50_ms", p50("prune"), "ms")
	out.set("prune.ops_per_merge", ratio(float64(cn.MobilePruneOps), merges), "count")
	out.set("merge.total_p50_ms", p50("merge.total"), "ms")
	out.set("merge.delta_folded_per_merge", ratio(float64(cn.DeltaFolded), merges), "count")
	out.set("merge.edges_elided_per_merge", ratio(float64(cn.EdgesElided), merges), "count")

	// lockmgr
	out.set("lockmgr.acquire_release_us_per_txn", ratio(1e3*sum("lockmgr"), float64(pr.lockTxns)), "us")
	out.set("lockmgr.locks_per_basetxn", ratio(float64(pr.locks), float64(pr.lockTxns)), "count")

	// wal
	walEncodeUs := ratio(1e3*sum("wal.encode"), float64(pr.walTxn))
	out.set("wal.encode_us_per_txn", walEncodeUs, "us")
	out.set("wal.decode_replay_us_per_txn", ratio(1e3*sum("wal.decode_replay"), float64(pr.frameN)*T), "us")
	out.set("wal.bytes_per_txn", ratio(float64(pr.walBytes), float64(pr.walTxn)), "B")

	// store
	out.set("store.write_sync_p50_ms", p50("store.write_sync"), "ms")
	out.set("store.forced_writes_per_commit", ratio(commits, float64(t.baseTxns+t.reconnects)), "count")
	out.set("store.checkpoint_p50_ms", p50("checkpoint"), "ms")
	out.set("store.checkpoint_bytes", median(pr.ckptBytes), "B")
	out.set("store.snapshot_state_us", 1e3*p50("store.snapshot_state"), "us")
	out.set("store.recover_records", float64(rec.records), "count")
	out.set("store.recover_ms", median(rec.ms), "ms")

	// proc
	out.set("proc.peak_rss_mb", peakRSSMB(), "MiB")
	out.set("proc.gc_pause_total_ms", float64(res.gcPauseNs)/1e6, "ms")
	reconnectP50 := median(res.reconnectMs)
	attributed := walEncodeUs*T/1e3 + median(pr.socketMs) + p50("replica.envelope_codec") +
		p50("replica.preview") + median(pr.admitInstallMs) + p50("wire.call:checkout")
	out.set("proc.unattributed_p50_ms", reconnectP50-attributed, "ms")
	out.set("proc.traced_reconnect_p50_ms", reconnectP50, "ms")

	e.crossCheck(out, p50)
}

// crossCheck compares the outside measurements of graph build, rewrite and
// prune with the program's own obs.Tracer phases for the same merges (the
// direct probe sessions', told apart by their mobile ID), and warns when
// the medians differ by more than a quarter: the outside figure is taken on
// a rebuilt Hb, so a large gap means the rebuild is not the shape of the
// real prefix.
func (e *env) crossCheck(out *outcome, p50 func(string) float64) {
	phases := map[obs.Phase][]float64{}
	for _, ev := range e.obsTr.Events() {
		if ev.Dur > 0 && strings.HasPrefix(ev.Mobile, probeMobile) {
			phases[ev.Phase] = append(phases[ev.Phase], ms(ev.Dur))
		}
	}
	for _, pair := range []struct {
		outside string
		phase   obs.Phase
	}{{"graph.build", obs.PhaseGraph}, {"rewrite", obs.PhaseRewrite}, {"prune", obs.PhasePrune}} {
		in, outv := median(phases[pair.phase]), p50(pair.outside)
		if in < crossCheckFloorMs && outv < crossCheckFloorMs {
			continue // both within clock-read cost of zero
		}
		if d := ratio(outv-in, in); d > 0.25 || d < -0.25 || in == 0 {
			out.notes = append(out.notes, fmt.Sprintf(
				"WARN %s: outside p50 %.4f ms vs obs.Tracer %q p50 %.4f ms over the same %d merges (%+.0f%%)",
				pair.outside, outv, pair.phase, in, len(phases[pair.phase]), 100*d))
		}
	}
}

// crossCheckFloorMs is the duration below which the cross-check does not
// compare: a span that short is mostly the two clock reads around it.
const crossCheckFloorMs = 0.05

// peakRSSMB reads the process's peak resident set from /proc (0 where
// there is none).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
