package replica

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"tiermerge/internal/model"
	"tiermerge/internal/obs"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// Tests for the observability layer wired through the reconnect path: phase
// coverage and ordering (including under concurrent reconnects — the suite
// runs with -race in scripts/check.sh), the nil-observer fast path, the
// variadic connect API, and exporter-versus-counter parity on a concurrent
// conflicting fleet.

// phaseRank orders the phases of one reconnect's trace: the lock wait, the
// buffered spans of the critical section, then the marks emitted after it.
var phaseRank = map[obs.Phase]int{
	obs.PhaseLockWait: 0,
	obs.PhaseSnapshot: 1,
	obs.PhaseGraph:    2,
	obs.PhaseBackout:  3,
	obs.PhaseRewrite:  4,
	obs.PhasePrune:    5,
	obs.PhaseAdmit:    6,
	obs.PhaseFallback: 7,
	obs.PhaseMerge:    8,
}

// validateTrace checks the invariants every merge trace must satisfy:
// consistent identity on every event, exactly one lock-wait span and exactly
// one summary event, and the order lock-wait -> snapshot -> graph-build ->
// back-out -> rewrite -> prune -> admit -> fallback -> merge — the buffered
// spans of the critical section flushed after the lock wait, never before
// it and never out of order.
func validateTrace(t *testing.T, mt obs.MergeTrace) {
	t.Helper()
	if len(mt.Events) == 0 {
		t.Fatalf("merge #%d: empty trace", mt.Seq)
	}
	count := map[obs.Phase]int{}
	lastRank := -1
	for _, ev := range mt.Events {
		if ev.Mobile != mt.Mobile || ev.Seq != mt.Seq {
			t.Errorf("merge #%d: event %s carries identity %s/%d, want %s/%d",
				mt.Seq, ev.Phase, ev.Mobile, ev.Seq, mt.Mobile, mt.Seq)
		}
		rank, ok := phaseRank[ev.Phase]
		if !ok {
			t.Errorf("merge #%d: unexpected phase %s inside a merge trace", mt.Seq, ev.Phase)
			continue
		}
		if rank < lastRank {
			t.Errorf("merge #%d: %s out of order (rank %d after %d)", mt.Seq, ev.Phase, rank, lastRank)
		}
		lastRank = rank
		count[ev.Phase]++
	}
	for _, p := range []obs.Phase{obs.PhaseLockWait, obs.PhaseMerge} {
		if count[p] != 1 {
			t.Errorf("merge #%d: %d %s events, want 1", mt.Seq, count[p], p)
		}
	}
}

// TestObserverPhaseCoverage: a deterministic two-mobile conflict emits every
// phase of the reconnect path, and the conflicting merge's trace shows the
// back-out; a cross-shard reconnect emits the same phases in the same
// order.
func TestObserverPhaseCoverage(t *testing.T) {
	tr := obs.NewTracer()
	b := NewBaseCluster(fleetOrigin(), Config{Observer: tr})
	m1 := NewMobileNode("m1", b)
	m2 := NewMobileNode("m2", b)
	if err := m1.Run(workload.SetPrice("T1", tx.Tentative, "p", 70)); err != nil {
		t.Fatal(err)
	}
	if err := m2.Run(workload.SetPrice("T2", tx.Tentative, "p", 80)); err != nil {
		t.Fatal(err)
	}
	if err := m2.Run(workload.Deposit("T3", tx.Tentative, "a1", 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.ConnectMerge(); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.ConnectMerge(); err != nil {
		t.Fatal(err)
	}

	seen := map[obs.Phase]bool{}
	for _, ev := range tr.Events() {
		seen[ev.Phase] = true
	}
	for _, want := range []obs.Phase{
		obs.PhaseCheckout, obs.PhaseRun, obs.PhaseLockWait, obs.PhaseSnapshot,
		obs.PhaseGraph, obs.PhaseBackout, obs.PhaseRewrite, obs.PhasePrune,
		obs.PhaseAdmit, obs.PhaseMerge,
	} {
		if !seen[want] {
			t.Errorf("phase %s never observed", want)
		}
	}

	ms := tr.Merges()
	if len(ms) != 2 {
		t.Fatalf("got %d merge traces, want 2", len(ms))
	}
	for _, mt := range ms {
		validateTrace(t, mt)
	}
	// m2's price update cycles with m1's installed one: its trace must show
	// a non-trivial back-out.
	var backedOut bool
	for _, ev := range ms[1].Events {
		if ev.Phase == obs.PhaseBackout && ev.BackedOut > 0 {
			backedOut = true
		}
	}
	if !backedOut {
		t.Error("second merge should back out the conflicting price update")
	}

	// A cross-shard reconnect emits the same sequence, its set-level spans
	// tagged cross-shard.
	tr = obs.NewTracer()
	s := NewShardedBase(fleetOrigin(), 2, Config{Observer: tr, ShardFn: splitA1})
	sm := NewShardedMobileNode("m1", s)
	for i, it := range []model.Item{"a1", "a2"} {
		if err := sm.Run(workload.Deposit(fmt.Sprintf("T%d", i), tx.Tentative, it, 5)); err != nil {
			t.Fatal(err)
		}
	}
	if out, err := sm.ConnectMerge(); err != nil || !out.Merged {
		t.Fatalf("cross-shard merge = %+v, %v", out, err)
	}
	if got := s.Counters().CrossShardMerges; got != 1 {
		t.Fatalf("CrossShardMerges = %d, want 1", got)
	}
	ms = tr.Merges()
	if len(ms) != 1 {
		t.Fatalf("got %d cross-shard merge traces, want 1", len(ms))
	}
	validateTrace(t, ms[0])
	var phases []obs.Phase
	for _, ev := range ms[0].Events {
		phases = append(phases, ev.Phase)
		switch ev.Phase {
		case obs.PhaseLockWait, obs.PhaseSnapshot, obs.PhaseAdmit, obs.PhaseMerge:
			if ev.Detail != "cross-shard" {
				t.Errorf("%s event carries Detail %q, want cross-shard", ev.Phase, ev.Detail)
			}
		}
	}
	want := []obs.Phase{obs.PhaseLockWait, obs.PhaseSnapshot, obs.PhaseGraph, obs.PhaseBackout,
		obs.PhaseRewrite, obs.PhasePrune, obs.PhaseAdmit, obs.PhaseMerge}
	if fmt.Sprint(phases) != fmt.Sprint(want) {
		t.Errorf("cross-shard phases %v, want %v", phases, want)
	}
}

// TestObserverPhaseOrderConcurrent: traces stay well-formed when a
// conflicting fleet reconnects simultaneously and queues on the cluster
// mutex.
func TestObserverPhaseOrderConcurrent(t *testing.T) {
	const n = 6
	tr := obs.NewTracer()
	b := NewBaseCluster(fleetOrigin(), Config{Observer: tr})
	ms := make([]*MobileNode, n)
	for i := range ms {
		ms[i] = NewMobileNode(fmt.Sprintf("m%d", i), b)
		if err := ms[i].Run(workload.SetPrice(fmt.Sprintf("Tp%d", i), tx.Tentative, "p", model.Value(100+11*i))); err != nil {
			t.Fatal(err)
		}
		if err := ms[i].Run(workload.Deposit(fmt.Sprintf("Td%d", i), tx.Tentative, model.Item(fmt.Sprintf("a%d", i)), 5)); err != nil {
			t.Fatal(err)
		}
	}
	connectAll(b, ms, t)

	traces := tr.Merges()
	if len(traces) != n {
		t.Fatalf("got %d merge traces, want %d", len(traces), n)
	}
	for _, mt := range traces {
		validateTrace(t, mt)
	}
}

// splitA1 routes a1 to shard 0 and every other item to shard 1, so on a
// two-shard tier a history touching a1 and anything else is cross-shard.
func splitA1(it model.Item) int {
	if it == "a1" {
		return 0
	}
	return 1
}

// TestNilObserverMerge: the zero-value configuration merges normally, and
// the debug dumps carry the cost counters but no event metrics.
func TestNilObserverMerge(t *testing.T) {
	b := NewBaseCluster(fleetOrigin(), Config{})
	m := NewMobileNode("m1", b)
	if err := m.Run(workload.Deposit("T1", tx.Tentative, "a1", 5)); err != nil {
		t.Fatal(err)
	}
	out, err := m.ConnectMerge()
	if err != nil || !out.Merged || out.Saved != 1 {
		t.Fatalf("merge = %+v, %v", out, err)
	}
	if snap := b.DebugSnapshot(); snap.Metrics != nil {
		t.Error("nil observer must not surface a metrics registry")
	}
	var sb strings.Builder
	if err := b.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "tiermerge_events_total") {
		t.Error("nil-observer dump must not contain event metrics")
	}
	if !strings.Contains(sb.String(), "tiermerge_cost_txns_saved_total 1") {
		t.Errorf("cost counters missing from dump:\n%s", sb.String())
	}
}

// TestBindAPI: the zero-argument connect forms use the bound cluster, Bind
// rejects foreign clusters with ErrClusterMismatch, and an unbound
// (recovered) node must Bind before connecting (ErrNoCluster otherwise).
func TestBindAPI(t *testing.T) {
	b1 := NewBaseCluster(fleetOrigin(), Config{})
	b2 := NewBaseCluster(fleetOrigin(), Config{})
	m := NewMobileNode("m1", b1)
	if err := m.Run(workload.Deposit("T1", tx.Tentative, "a1", 5)); err != nil {
		t.Fatal(err)
	}
	if err := m.Bind(b2); !errors.Is(err, ErrClusterMismatch) {
		t.Errorf("Bind(other) = %v, want ErrClusterMismatch", err)
	}
	if err := m.Bind(nil); !errors.Is(err, ErrNoCluster) {
		t.Errorf("Bind(nil) = %v, want ErrNoCluster", err)
	}
	if err := m.Bind(b1); err != nil {
		t.Errorf("Bind(same) = %v, want nil (no-op)", err)
	}
	if m.Pending() != 1 {
		t.Fatalf("rejected binds consumed the history: pending = %d", m.Pending())
	}
	if out, err := m.ConnectMerge(); err != nil || out.Saved != 1 {
		t.Fatalf("zero-argument ConnectMerge = %+v, %v", out, err)
	}

	r := &MobileNode{ID: "r1"}
	if _, err := r.ConnectMerge(); !errors.Is(err, ErrNoCluster) {
		t.Errorf("unbound ConnectMerge() = %v, want ErrNoCluster", err)
	}
	if err := r.Bind(b1); err != nil {
		t.Fatal(err)
	}
	if r.Cluster() != b1 {
		t.Fatal("Bind did not install the cluster")
	}
	r.Checkout()
	if err := r.Run(workload.Deposit("T2", tx.Tentative, "a2", 7)); err != nil {
		t.Fatal(err)
	}
	if err := r.Bind(b2); !errors.Is(err, ErrClusterMismatch) {
		t.Errorf("bound node Bind(other) = %v, want ErrClusterMismatch", err)
	}
	if out, err := r.ConnectMerge(); err != nil || out.Saved != 1 {
		t.Fatalf("recovered-node merge = %+v, %v", out, err)
	}

	s := NewShardedBase(fleetOrigin(), 2, Config{})
	sm := NewShardedMobileNode("s1", s)
	if err := sm.Bind(b1); !errors.Is(err, ErrClusterMismatch) {
		t.Errorf("sharded-node Bind = %v, want ErrClusterMismatch", err)
	}
}

// TestExporterParityE13 drives the workload of the retired E13 experiment —
// a conflicting fleet reconnecting concurrently across several rounds with
// live base traffic —
// and checks that every exporter agrees exactly with cost.Counters: the
// Prometheus tiermerge_cost_* series, the event-folded obs.Metrics
// registry, and the raw traced event stream.
func TestExporterParityE13(t *testing.T) {
	const (
		mobiles = 8
		rounds  = 3
	)
	tracer := obs.NewTracer()
	metrics := obs.NewMetrics()
	b := NewBaseCluster(fleetOrigin(), Config{Observer: obs.Multi(tracer, metrics)})
	ms := make([]*MobileNode, mobiles)
	for i := range ms {
		ms[i] = NewMobileNode(fmt.Sprintf("m%d", i), b)
	}
	for r := 0; r < rounds; r++ {
		for i, m := range ms {
			id := fmt.Sprintf("T%d.%d", r, i)
			var txn *tx.Transaction
			if i%2 == 0 {
				txn = workload.SetPrice(id, tx.Tentative, "p", model.Value(60+10*r+i))
			} else {
				txn = workload.Deposit(id, tx.Tentative, model.Item(fmt.Sprintf("a%d", i)), 5)
			}
			if err := m.Run(txn); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.ExecBase(workload.Deposit(fmt.Sprintf("B%d", r), tx.Base, model.Item(fmt.Sprintf("b%d", r)), 3)); err != nil {
			t.Fatal(err)
		}
		connectAll(b, ms, t)
	}

	counts := b.Counters().Snapshot()
	if counts.MergesPerformed == 0 {
		t.Fatal("workload performed no merges")
	}

	// 1. Prometheus text vs cost.Counters: every tiermerge_cost_*_total
	// series mirrors exactly one Counts field, in both directions.
	var sb strings.Builder
	if err := b.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	exported := map[string]int64{}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "tiermerge_cost_") || !strings.Contains(line, "_total ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("unparsable cost series %q", line)
		}
		name := strings.TrimSuffix(strings.TrimPrefix(fields[0], "tiermerge_cost_"), "_total")
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		exported[name] = v
	}
	want := map[string]int64{}
	counts.Each(func(name string, v int64) { want[name] = v })
	for name, v := range want {
		got, ok := exported[name]
		if !ok {
			t.Errorf("counter %s missing from Prometheus dump", name)
		} else if got != v {
			t.Errorf("exported %s = %d, counters say %d", name, got, v)
		}
	}
	for name := range exported {
		if _, ok := want[name]; !ok {
			t.Errorf("Prometheus dump exports unknown counter %s", name)
		}
	}
	if !strings.Contains(sb.String(), "tiermerge_merges_total") {
		t.Error("dump missing the event-derived registry (RegistryOf through Multi)")
	}

	// 2. The event-folded registry agrees with the counters.
	reg := metrics.Registry().Snapshot()
	if got := reg.Counters[obs.MetricSaved]; got != counts.TxnsSaved {
		t.Errorf("metric saved = %d, counters say %d", got, counts.TxnsSaved)
	}
	if got, wantN := reg.Counters[obs.MetricMerges], counts.MergesPerformed+counts.MergeFallbacks; got != wantN {
		t.Errorf("metric merges = %d, want %d (performed %d + fallbacks %d)",
			got, wantN, counts.MergesPerformed, counts.MergeFallbacks)
	}
	var fallbacks int64
	for name, v := range reg.Counters {
		if strings.HasPrefix(name, obs.MetricFallbacks) {
			fallbacks += v
		}
	}
	if fallbacks != counts.MergeFallbacks {
		t.Errorf("fallback-cause tallies sum to %d, counters say %d", fallbacks, counts.MergeFallbacks)
	}
	if got := reg.Counters[obs.MetricReexecuted] + reg.Counters[obs.MetricFailed]; got != counts.TxnsReprocessed {
		t.Errorf("metric reexecuted+failed = %d, counters say %d", got, counts.TxnsReprocessed)
	}

	// 3. The raw event stream agrees with the counters.
	var mergeEvents, saved, reexec int64
	for _, ev := range tracer.Events() {
		if ev.Phase != obs.PhaseMerge {
			continue
		}
		mergeEvents++
		saved += int64(ev.Saved)
		reexec += int64(ev.Reexecuted + ev.Failed)
	}
	if wantN := counts.MergesPerformed + counts.MergeFallbacks; mergeEvents != wantN {
		t.Errorf("merge summary events = %d, want %d", mergeEvents, wantN)
	}
	if saved != counts.TxnsSaved {
		t.Errorf("event saved total = %d, counters say %d", saved, counts.TxnsSaved)
	}
	if reexec != counts.TxnsReprocessed {
		t.Errorf("event reexecuted+failed total = %d, counters say %d", reexec, counts.TxnsReprocessed)
	}
}

// TestDebugHandler: the HTTP endpoints serve the JSON snapshot, the
// Prometheus exposition (server transport counters included) and the
// runtime profiles.
func TestDebugHandler(t *testing.T) {
	metrics := obs.NewMetrics()
	b := NewBaseCluster(fleetOrigin(), Config{Observer: metrics})
	m := NewMobileNode("m1", b)
	if err := m.Run(workload.Deposit("T1", tx.Tentative, "a1", 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ConnectMerge(); err != nil {
		t.Fatal(err)
	}
	srv := Serve(b)
	defer srv.Close()
	h := srv.DebugHandler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/tiermerge", nil))
	if rec.Code != 200 {
		t.Fatalf("json endpoint status %d", rec.Code)
	}
	var snap ServerDebugSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.MergeSeq != 1 || snap.Cost["txns_saved"] != 1 || snap.Metrics == nil {
		t.Errorf("snapshot = %+v", snap)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/tiermerge/prometheus", nil))
	if rec.Code != 200 {
		t.Fatalf("prometheus endpoint status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, wantSub := range []string{
		"tiermerge_cost_txns_saved_total 1",
		"tiermerge_merges_total 1",
		"tiermerge_server_requests_total",
	} {
		if !strings.Contains(body, wantSub) {
			t.Errorf("prometheus endpoint missing %q", wantSub)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/heap", nil))
	if rec.Code != 200 || rec.Body.Len() == 0 {
		t.Errorf("pprof heap endpoint status %d, %d bytes", rec.Code, rec.Body.Len())
	}
}
