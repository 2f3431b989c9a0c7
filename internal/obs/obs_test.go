package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterGaugeHistogram: the primitive metrics accumulate atomically
// and snapshot consistently.
func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Error("Counter is not get-or-create")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
	h := r.Histogram("h", []float64{0.001, 0.1})
	h.Observe(0.0005)                        // bucket 0
	h.ObserveDuration(10 * time.Millisecond) // bucket 1
	h.Observe(5)                             // +Inf
	s := h.Snapshot()
	if s.Count != 3 {
		t.Errorf("count = %d, want 3", s.Count)
	}
	if s.Counts[0] != 1 || s.Counts[1] != 1 || s.Counts[2] != 1 {
		t.Errorf("bucket counts = %v, want [1 1 1]", s.Counts)
	}
	wantSum := 0.0005 + 0.010 + 5
	if s.Sum < wantSum-1e-6 || s.Sum > wantSum+1e-6 {
		t.Errorf("sum = %g, want %g", s.Sum, wantSum)
	}
}

// TestRegistryConcurrent: concurrent get-or-create and updates are safe
// (run under -race).
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("shared").Inc()
				r.Histogram("lat", nil).Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 800 {
		t.Errorf("shared counter = %d, want 800", got)
	}
	if got := r.Histogram("lat", nil).Snapshot().Count; got != 800 {
		t.Errorf("histogram count = %d, want 800", got)
	}
}

// TestLabel: inline label splicing merges with existing labels.
func TestLabel(t *testing.T) {
	cases := []struct{ in, want string }{
		{Label("x"), "x"},
		{Label("x", "a", "1"), `x{a="1"}`},
		{Label(`x{a="1"}`, "b", "2"), `x{a="1",b="2"}`},
		{Label("x", "a", "1", "b", "2"), `x{a="1",b="2"}`},
	}
	for _, c := range cases {
		if c.in != c.want {
			t.Errorf("got %s, want %s", c.in, c.want)
		}
	}
}

// TestWritePrometheus: the text exposition has TYPE lines per family,
// cumulative buckets, and label-aware suffixing.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("ev_total", "phase", "admit")).Add(2)
	r.Counter(Label("ev_total", "phase", "rewrite")).Add(3)
	r.Gauge("lag").Set(4)
	h := r.Histogram(`dur_seconds{phase="admit"}`, []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE ev_total counter",
		`ev_total{phase="admit"} 2`,
		`ev_total{phase="rewrite"} 3`,
		"# TYPE lag gauge",
		"lag 4",
		"# TYPE dur_seconds histogram",
		`dur_seconds_bucket{phase="admit",le="0.01"} 1`,
		`dur_seconds_bucket{phase="admit",le="0.1"} 2`,
		`dur_seconds_bucket{phase="admit",le="+Inf"} 2`,
		`dur_seconds_count{phase="admit"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE ev_total"); n != 1 {
		t.Errorf("TYPE ev_total emitted %d times, want 1", n)
	}
}

// TestMultiAndBind: Multi skips nils and collapses; Bind stamps identity
// without clobbering set fields.
func TestMultiAndBind(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("empty Multi must be nil")
	}
	tr := NewTracer()
	if Multi(nil, tr) != Observer(tr) {
		t.Error("single-member Multi must collapse")
	}
	m := NewMetrics()
	fan := Multi(tr, m)
	fan.Observe(Event{Phase: PhaseAdmit})
	if len(tr.Events()) != 1 {
		t.Error("Multi did not fan out to tracer")
	}
	if RegistryOf(fan) != m.Registry() {
		t.Error("Multi must surface the member registry")
	}

	var got Event
	bound := Bind(ObserverFunc(func(ev Event) { got = ev }), "m1", 7)
	bound.Observe(Event{Phase: PhaseRewrite})
	if got.Mobile != "m1" || got.Seq != 7 {
		t.Errorf("Bind did not stamp identity: %+v", got)
	}
	bound.Observe(Event{Phase: PhaseRewrite, Mobile: "m2", Seq: 9})
	if got.Mobile != "m2" || got.Seq != 9 {
		t.Errorf("Bind clobbered set fields: %+v", got)
	}
	if Bind(nil, "m1", 1) != nil {
		t.Error("Bind(nil) must stay nil")
	}
}

// TestTracerMerges: events group by sequence number in order, and
// Outcome reads the summary correctly.
func TestTracerMerges(t *testing.T) {
	tr := NewTracer()
	tr.Observe(Event{Phase: PhaseCheckout, Mobile: "m1"}) // seq 0: not merge-scoped
	tr.Observe(Event{Seq: 2, Mobile: "m2", Phase: PhaseSnapshot})
	tr.Observe(Event{Seq: 1, Mobile: "m1", Phase: PhaseSnapshot})
	tr.Observe(Event{Seq: 1, Mobile: "m1", Phase: PhaseMerge, Saved: 2})
	tr.Observe(Event{Seq: 2, Mobile: "m2", Phase: PhaseFallback, Cause: CauseWindowExpired})
	tr.Observe(Event{Seq: 2, Mobile: "m2", Phase: PhaseMerge})
	ms := tr.Merges()
	if len(ms) != 2 {
		t.Fatalf("got %d merges, want 2", len(ms))
	}
	if ms[0].Seq != 1 || ms[1].Seq != 2 {
		t.Errorf("merge order = %d,%d, want 1,2", ms[0].Seq, ms[1].Seq)
	}
	if got := ms[0].Outcome(); got != "merged" {
		t.Errorf("outcome #1 = %q, want merged", got)
	}
	if got := ms[1].Outcome(); got != "fallback(window-expired)" {
		t.Errorf("outcome #2 = %q, want fallback(window-expired)", got)
	}
	var b strings.Builder
	ms[1].Format(&b)
	if !strings.Contains(b.String(), "cause=window-expired") {
		t.Errorf("Format missing cause:\n%s", b.String())
	}
	tr.Reset()
	if len(tr.Events()) != 0 {
		t.Error("Reset did not clear events")
	}
}

// TestMetricsObserve: events fold into the expected series, and fallback
// tallies are not double counted against the merge summary.
func TestMetricsObserve(t *testing.T) {
	m := NewMetrics()
	m.Observe(Event{Phase: PhaseLockWait, Dur: time.Millisecond})
	m.Observe(Event{Phase: PhaseAdmit, Dur: time.Millisecond})
	m.Observe(Event{Phase: PhaseFallback, Cause: CauseWindowExpired, Reexecuted: 3, Failed: 1})
	m.Observe(Event{Phase: PhaseMerge, Dur: time.Millisecond, Saved: 2, BackedOut: 1, Reexecuted: 3, Failed: 1})
	m.Observe(Event{Phase: PhaseReprocess, Reexecuted: 5, Failed: 2})
	m.Observe(Event{Phase: PhaseGraph, BaseViewed: 40, BaseKept: 7})
	m.Observe(Event{Phase: PhaseGraph, BaseViewed: 2})
	m.Observe(Event{Phase: PhaseAdmit})
	s := m.Registry().Snapshot()
	for name, want := range map[string]int64{
		MetricAdmits: 2,
		Label(MetricFallbacks, "cause", string(CauseWindowExpired)): 1,
		MetricMerges:     1,
		MetricSaved:      2,
		MetricBackedOut:  1,
		MetricReexecuted: 8, // 3 (merge summary) + 5 (reprocess); fallback event adds nothing
		MetricFailed:     3, // 1 + 2
		MetricBaseViewed: 42,
		MetricBaseKept:   7,
		Label(MetricEvents, "phase", string(PhaseAdmit)):    2,
		Label(MetricEvents, "phase", string(PhaseLockWait)): 1,
	} {
		if got := s.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := s.Histograms[MetricReconnectSec].Count; got != 1 {
		t.Errorf("reconnect histogram count = %d, want 1", got)
	}
	if got := s.Histograms[Label(MetricPhaseSeconds, "phase", string(PhaseLockWait))].Count; got != 1 {
		t.Errorf("lock-wait phase histogram count = %d, want 1", got)
	}
}
