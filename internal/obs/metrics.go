package obs

// Metrics is the Observer that folds the reconnect event stream into a
// Registry: per-phase event counters and latency histograms (lock-wait
// among them: the contention on the cluster mutexes), admissions, fallback
// tallies by reason, and the saved / backed-out / re-executed transaction
// totals — the statistics protocol comparisons report (saved ratio,
// reconnect latency distribution, abort causes).
type Metrics struct {
	reg *Registry
}

// NewMetrics returns a Metrics observer over a fresh registry.
func NewMetrics() *Metrics { return &Metrics{reg: NewRegistry()} }

// Registry exposes the underlying registry (also the RegistryProvider
// implementation BaseServer uses to locate it for metric dumps).
func (m *Metrics) Registry() *Registry { return m.reg }

// Metric families Metrics maintains.
const (
	MetricEvents       = "tiermerge_events_total"      // counter, label phase
	MetricPhaseSeconds = "tiermerge_phase_seconds"     // histogram, label phase
	MetricAdmits       = "tiermerge_admits_total"      // counter
	MetricFallbacks    = "tiermerge_fallbacks_total"   // counter, label cause
	MetricMerges       = "tiermerge_merges_total"      // counter
	MetricReconnectSec = "tiermerge_reconnect_seconds" // histogram
	MetricSaved        = "tiermerge_txns_saved_total"  // counter
	MetricBackedOut    = "tiermerge_txns_backed_out_total"
	MetricReexecuted   = "tiermerge_txns_reexecuted_total"
	MetricFailed       = "tiermerge_txns_failed_total"
	MetricRecoveries   = "tiermerge_recoveries_total"           // counter
	MetricReplayed     = "tiermerge_wal_records_replayed_total" // counter
	MetricTornTails    = "tiermerge_wal_torn_tails_total"       // counter
	MetricBaseViewed   = "tiermerge_merge_base_viewed_total"    // counter
	MetricBaseKept     = "tiermerge_merge_base_kept_total"      // counter
)

// Observe folds one event into the registry.
func (m *Metrics) Observe(ev Event) {
	phase := string(ev.Phase)
	m.reg.Counter(Label(MetricEvents, "phase", phase)).Inc()
	if ev.Dur > 0 {
		m.reg.Histogram(Label(MetricPhaseSeconds, "phase", phase), nil).ObserveDuration(ev.Dur)
	}
	switch ev.Phase {
	case PhaseAdmit:
		m.reg.Counter(MetricAdmits).Inc()
	case PhaseGraph:
		m.reg.Counter(MetricBaseViewed).Add(int64(ev.BaseViewed))
		m.reg.Counter(MetricBaseKept).Add(int64(ev.BaseKept))
	case PhaseFallback:
		// Tallies of a fallen-back reconnect ride on its merge summary
		// event; the fallback event only classifies the cause.
		m.reg.Counter(Label(MetricFallbacks, "cause", string(ev.Cause))).Inc()
	case PhaseReprocess:
		m.reg.Counter(MetricReexecuted).Add(int64(ev.Reexecuted))
		m.reg.Counter(MetricFailed).Add(int64(ev.Failed))
	case PhaseMerge:
		m.reg.Counter(MetricMerges).Inc()
		if ev.Dur > 0 {
			m.reg.Histogram(MetricReconnectSec, nil).ObserveDuration(ev.Dur)
		}
		m.reg.Counter(MetricSaved).Add(int64(ev.Saved))
		m.reg.Counter(MetricBackedOut).Add(int64(ev.BackedOut))
		m.reg.Counter(MetricReexecuted).Add(int64(ev.Reexecuted))
		m.reg.Counter(MetricFailed).Add(int64(ev.Failed))
	case PhaseRecover:
		m.reg.Counter(MetricRecoveries).Inc()
		m.reg.Counter(MetricReplayed).Add(int64(ev.Replayed))
		if ev.Cause == CauseTornTail {
			m.reg.Counter(MetricTornTails).Inc()
		}
	}
}
