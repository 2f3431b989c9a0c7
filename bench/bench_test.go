package main

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"tiermerge/internal/tx"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {99, 75}, {40, 75}, {39, 50}, {0, 50},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// Ten samples (991..1000) lie at or beyond the 99th percentile's rank.
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	if got := percentile(xs, 100); got != 1000 {
		t.Errorf("p100 = %g, want 1000", got)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("p99 of nothing = %g, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// The driver takes quartiles with Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %g, %g; Python gives 1.5, 4.5", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Errorf("spread(1..5) = %g, want (4.5-1.5)/3", got)
	}
	if got := spread([]float64{100, 110}); math.Abs(got-10.0/105) > 1e-12 {
		t.Errorf("spread of two runs = %g, want their range over their median", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// session [0,100] → connect [10,90] → two calls [20,50], [55,85];
	// and an execbase [0,8] directly under the session.
	spans := []span{
		{ID: 1, Name: "session", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "connect", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "wire.call:merge", Start: 20, End: 50},
		{ID: 4, Parent: 2, Name: "wire.call:checkout", Start: 55, End: 85},
		{ID: 5, Parent: 1, Name: "execbase", Start: 0, End: 8},
	}
	selfTimes(spans)
	for i, want := range []int64{12, 20, 30, 30, 8} {
		if spans[i].Self != want {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, spans[i].Self, want)
		}
	}
	var sum int64
	for _, s := range spans {
		sum += s.Self
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}

func TestTracerSessionIDs(t *testing.T) {
	tr := newTracer()
	root := tr.begin(0, 0, "session")
	child := tr.begin(0, root, "connect")
	leaf := tr.begin(0, child, "wire.call:merge")
	tr.end(leaf)
	tr.end(child)
	tr.end(root)
	other := tr.begin(1, 0, "session")
	tr.end(other)
	for _, s := range tr.spans[:3] {
		if s.Session != root {
			t.Errorf("span %s has session %d, want the root's %d", s.Name, s.Session, root)
		}
	}
	if tr.spans[3].Session != other {
		t.Errorf("second root has session %d, want its own id %d", tr.spans[3].Session, other)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin(0, 0, "x")) // a nil tracer records nothing and does not panic
}

func TestBenchmarkSchema(t *testing.T) {
	bs, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bs.Paths) != 1 || bs.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bs.Paths)
	}
	for i, w := range bs.Workloads {
		sp := specs[i]
		if sp.Name != w.Name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, w.Name, sp.Name)
		}
		if sp.Shards < 1 || sp.Mobiles < clients || sp.Mobiles%clients != 0 || sp.Tentative < 1 ||
			sp.BaseNum < 1 || sp.BaseDen < 1 || sp.Window < clients || sp.Window%clients != 0 {
			t.Errorf("workload %q lacks a parameter: %+v", sp.Name, sp)
		}
	}
	for _, m := range bs.EndToEnd {
		if m.Unit == "" || m.Better == "" || m.Bound == nil {
			t.Errorf("end-to-end metric %q lacks unit, direction or bound", m.Name)
		}
	}
	// A broken file is refused.
	bad := *bs
	bad.EndToEnd = append([]specMetric(nil), bs.EndToEnd...)
	half := 0.5
	bad.EndToEnd[1].Bound = &half
	if err := bad.validate(); err == nil {
		t.Error("a bound above 0.25 passed validation")
	}
	bad.EndToEnd[1] = specMetric{Name: "has space", Unit: "ms", Better: "lower", Bound: bs.EndToEnd[1].Bound}
	if err := bad.validate(); err == nil {
		t.Error("a metric name with a space passed validation")
	}
}

func TestJudge(t *testing.T) {
	bound := 0.10
	lower := specMetric{Name: "latency", Unit: "ms", Better: "lower", Bound: &bound}
	higher := specMetric{Name: "rate", Unit: "1/s", Better: "higher", Bound: &bound}
	for _, c := range []struct {
		name string
		m    specMetric
		a, b []float64
		want verdict
	}{
		{"equal", lower, []float64{10}, []float64{10.5}, agreed},
		{"slower beyond the bound", lower, []float64{10}, []float64{11.5}, breach},
		{"rate lower beyond the bound", higher, []float64{100}, []float64{85}, breach},
		{"rate higher within the bound", higher, []float64{100}, []float64{105}, agreed},
		{"faster beyond the bound is noise, not agreement", lower, []float64{10}, []float64{8}, unresolved},
		{"a set's own runs spread wider than the bound", lower, []float64{9, 10, 12}, []float64{10, 10.1, 10.2}, unresolved},
		{"missing on one side", lower, []float64{10}, nil, breach},
	} {
		if got := judge(c.m, c.a, c.b).Verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestFeedsAreDeterministic(t *testing.T) {
	for _, sp := range specs {
		a, b, other := sp.newFeed(7, 1, sp), sp.newFeed(7, 1, sp), sp.newFeed(8, 1, sp)
		differs := false
		for no := 0; no < 8; no++ {
			sa, sb, so := a.next(no), b.next(no), other.next(no)
			if len(sa.tent) != sp.Tentative || len(sa.base) != sp.baseCount(no) {
				t.Fatalf("%s session %d: %d tentative, %d base; want %d, %d",
					sp.Name, no, len(sa.tent), len(sa.base), sp.Tentative, sp.baseCount(no))
			}
			for i := range sa.tent {
				ja, _ := tx.MarshalTransaction(sa.tent[i])
				jb, _ := tx.MarshalTransaction(sb.tent[i])
				jo, _ := tx.MarshalTransaction(so.tent[i])
				if !bytes.Equal(ja, jb) {
					t.Fatalf("%s: the same seed gave different inputs:\n%s\n%s", sp.Name, ja, jb)
				}
				differs = differs || !bytes.Equal(ja, jo)
			}
		}
		if !differs {
			t.Errorf("%s: another seed gave the same inputs", sp.Name)
		}
	}
}

// TestQuickSmoke runs every workload's untraced and traced pass at 64
// reconnects, checks included.
func TestQuickSmoke(t *testing.T) {
	bs, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	o := options{seed: 1, seconds: 60, quick: true, root: t.TempDir(), traceDir: t.TempDir()}
	for _, sp := range specs {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			for _, trace := range []int{0, 1} {
				out, err := runOne(bs, sp, o, trace)
				if err != nil {
					t.Fatalf("trace %d: %v", trace, err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < quickReconnects {
					t.Errorf("trace %d: correct %v, %d attempted, %d failed: %s",
						trace, out.Correct, out.Attempted, out.Failed, strings.Join(out.notes, "; "))
				}
				for name, m := range out.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s is %v", name, m.Value)
					}
				}
			}
		})
	}
}
