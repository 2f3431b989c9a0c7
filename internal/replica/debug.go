package replica

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"

	"tiermerge/internal/cost"
	"tiermerge/internal/obs"
)

// writeJSON writes v as indented JSON.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// Introspection endpoints: an expvar-style JSON snapshot and a
// Prometheus-text dump of everything the cluster knows about itself — the
// Section 7.1 cost counters, the weighted cost report, the window's state,
// and (when Config.Observer carries an obs.Metrics) the event-derived
// phase metrics. BaseServer mounts both under /debug/tiermerge.

// DebugSnapshot is the point-in-time state dump served at /debug/tiermerge.
type DebugSnapshot struct {
	WindowID   int              `json:"window_id"`
	HistoryLen int              `json:"history_len"`
	MergeSeq   int64            `json:"merge_seq"`
	Cost       map[string]int64 `json:"cost_counters"`
	Weighted   cost.Report      `json:"weighted_cost"`
	Metrics    *obs.Snapshot    `json:"metrics,omitempty"`
}

// DebugSnapshot captures the cluster's introspection state.
//
//tiermerge:locks(none)
func (b *BaseCluster) DebugSnapshot() DebugSnapshot {
	counts := b.counters.Snapshot()
	s := DebugSnapshot{
		WindowID:   b.WindowID(),
		HistoryLen: b.HistoryLen(),
		MergeSeq:   b.mergeSeq.Load(),
		Cost:       make(map[string]int64),
		Weighted:   counts.Weighted(b.cfg.Weights),
	}
	counts.Each(func(name string, v int64) { s.Cost[name] = v })
	if reg := obs.RegistryOf(b.cfg.Observer); reg != nil {
		snap := reg.Snapshot()
		s.Metrics = &snap
	}
	return s
}

// WritePrometheus renders the cluster's cost counters, weighted totals and
// window state in the Prometheus text exposition format, followed by
// the observer's registry when Config.Observer exposes one. The cost
// counters appear as tiermerge_cost_<counter>_total series — one per
// cost.Counts field, via Counts.Each, so exporter and counters cannot
// drift apart.
//
//tiermerge:locks(none)
func (b *BaseCluster) WritePrometheus(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	counts := b.counters.Snapshot()
	counts.Each(func(name string, v int64) {
		family := "tiermerge_cost_" + name + "_total"
		p("# TYPE %s counter\n%s %d\n", family, family, v)
	})
	rep := counts.Weighted(b.cfg.Weights)
	p("# TYPE tiermerge_cost_units gauge\n")
	p("%s %d\n", obs.Label("tiermerge_cost_units", "component", "comm"), rep.Comm)
	p("%s %d\n", obs.Label("tiermerge_cost_units", "component", "base"), rep.BaseCompute)
	p("%s %d\n", obs.Label("tiermerge_cost_units", "component", "mobile"), rep.MobileCompute)
	p("# TYPE tiermerge_window_id gauge\ntiermerge_window_id %d\n", b.WindowID())
	p("# TYPE tiermerge_base_history_len gauge\ntiermerge_base_history_len %d\n", b.HistoryLen())
	p("# TYPE tiermerge_merge_seq gauge\ntiermerge_merge_seq %d\n", b.mergeSeq.Load())
	if err != nil {
		return err
	}
	if reg := obs.RegistryOf(b.cfg.Observer); reg != nil {
		return reg.Snapshot().WritePrometheus(w)
	}
	return nil
}

// WriteDebugJSON writes the expvar-style snapshot as indented JSON.
//
//tiermerge:locks(none)
func (b *BaseCluster) WriteDebugJSON(w io.Writer) error {
	return writeJSON(w, b.DebugSnapshot())
}

// DebugSnapshot captures a sharded tier's aggregate introspection state:
// counters summed across shards, history length totalled, the barrier's
// window id.
//
//tiermerge:locks(none)
func (sh *ShardedBase) DebugSnapshot() DebugSnapshot {
	counts := sh.Counters()
	s := DebugSnapshot{
		WindowID: sh.WindowID(),
		Cost:     make(map[string]int64),
		Weighted: counts.Weighted(sh.cfg.Weights),
	}
	for _, b := range sh.shards {
		s.HistoryLen += b.HistoryLen()
		s.MergeSeq += b.mergeSeq.Load()
	}
	counts.Each(func(name string, v int64) { s.Cost[name] = v })
	if reg := obs.RegistryOf(sh.cfg.Observer); reg != nil {
		snap := reg.Snapshot()
		s.Metrics = &snap
	}
	return s
}

// Cluster returns the served cluster (for observers and debug handlers
// built around a BaseServer); nil when the server fronts a multi-shard
// tier — use Sharded then.
func (s *BaseServer) Cluster() *BaseCluster { return s.b }

// Sharded returns the served sharded tier, or nil when the server fronts a
// plain cluster.
func (s *BaseServer) Sharded() *ShardedBase { return s.sharded }

// DebugSnapshot is the server-side dump: the cluster snapshot plus
// transport statistics.
type ServerDebugSnapshot struct {
	DebugSnapshot
	Requests int64 `json:"server_requests"`
	BytesIn  int64 `json:"server_bytes_in"`
	BytesOut int64 `json:"server_bytes_out"`
}

// DebugSnapshot captures the server's introspection state.
func (s *BaseServer) DebugSnapshot() ServerDebugSnapshot {
	req, in, out := s.Stats()
	var tier DebugSnapshot
	if s.sharded != nil {
		tier = s.sharded.DebugSnapshot()
	} else {
		tier = s.b.DebugSnapshot()
	}
	return ServerDebugSnapshot{
		DebugSnapshot: tier,
		Requests:      req,
		BytesIn:       in,
		BytesOut:      out,
	}
}

// WritePrometheus renders the cluster dump plus the server's transport
// counters.
func (s *BaseServer) WritePrometheus(w io.Writer) error {
	var err error
	if s.sharded != nil {
		err = s.sharded.WritePrometheus(w)
	} else {
		err = s.b.WritePrometheus(w)
	}
	if err != nil {
		return err
	}
	req, in, out := s.Stats()
	_, err = fmt.Fprintf(w,
		"# TYPE tiermerge_server_requests_total counter\ntiermerge_server_requests_total %d\n"+
			"# TYPE tiermerge_server_bytes_in_total counter\ntiermerge_server_bytes_in_total %d\n"+
			"# TYPE tiermerge_server_bytes_out_total counter\ntiermerge_server_bytes_out_total %d\n",
		req, in, out)
	return err
}

// DebugHandler returns an http.Handler exposing the server's state:
//
//	/debug/tiermerge            expvar-style JSON snapshot
//	/debug/tiermerge/prometheus Prometheus text exposition
//	/debug/pprof/               the runtime profiles of net/http/pprof
//
// Mount it on any mux (it matches the full paths itself, so it can also be
// passed directly to http.Serve for a debug-only listener).
func (s *BaseServer) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/tiermerge", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := writeJSON(w, s.DebugSnapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/tiermerge/prometheus", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := s.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index) // also serves the named profiles (heap, goroutine, ...)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
