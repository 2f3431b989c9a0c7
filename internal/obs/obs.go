// Package obs is the observability layer of the merge pipeline: a
// dependency-free (standard library only) metrics registry — atomic
// counters, gauges and fixed-bucket latency histograms — plus a span-based
// event model that instruments every phase of a mobile node's reconnect
// path.
//
// The protocol code emits one Event per phase span (checkout,
// disconnect-run, lock wait, snapshot, graph build, back-out, rewrite,
// prune, admission, fallback, reprocessing, and the whole-merge summary)
// through a single Observer hook. A nil Observer pays exactly one nil check
// per would-be event — the cluster's zero-value configuration runs the hot
// path untouched.
//
// Two Observer implementations ship with the package: Metrics folds events
// into a Registry (counters, fallback-cause tallies, per-phase latency
// histograms — the statistics Sutra–Shapiro-style protocol comparisons
// evaluate), and Tracer records raw events for per-merge phase breakdowns
// (cmd/tiermerge trace). Multi fans one event stream out to several
// observers.
package obs

import "time"

// Phase names one stage of the reconnect path. The values map onto the
// paper's protocol steps (DESIGN.md §9 has the full taxonomy): graph-build
// is Section 2.1 step 1, back-out step 2, rewrite steps 3 (Algorithms 1/2),
// prune step 4, reprocess step 6; lock-wait, snapshot and admit bracket the
// reconnect's critical section over the cluster mutexes (DESIGN.md §7),
// which the paper's serial presentation does not need.
type Phase string

// Reconnect phases, in the order a fully-merged reconnect emits them.
const (
	// PhaseCheckout is the replica download when a mobile synchronizes
	// before disconnecting (Section 2.2).
	PhaseCheckout Phase = "checkout"
	// PhaseRun is one tentative transaction executed while disconnected.
	PhaseRun Phase = "disconnect-run"
	// PhaseLockWait is the wait to acquire the mutexes of every cluster a
	// reconnect involves — the contention between simultaneous reconnects
	// and base transactions.
	PhaseLockWait Phase = "lock-wait"
	// PhaseSnapshot is the checkout-token validation and the capture of the
	// base-prefix view a merge prepares against.
	PhaseSnapshot Phase = "snapshot"
	// PhaseGraph is precedence-graph construction (step 1). On the replica
	// path BaseViewed/BaseKept carry how many base entries the merge's view
	// held and how many could lie on a cycle through Hm and entered the
	// graph.
	PhaseGraph Phase = "graph-build"
	// PhaseBackout is the back-out set computation (step 2).
	PhaseBackout Phase = "back-out"
	// PhaseRewrite is the history rewrite (steps 3, Algorithms 1/2/CBT).
	PhaseRewrite Phase = "rewrite"
	// PhasePrune is pruning of the rewritten tail (step 4).
	PhasePrune Phase = "prune"
	// PhaseAdmit is the installation of a prepared merge: forwarded
	// updates plus the re-execution of the backed-out transactions.
	PhaseAdmit Phase = "admit"
	// PhaseFallback marks a reconnect falling back to reprocessing; Cause
	// carries the fallback reason.
	PhaseFallback Phase = "fallback"
	// PhaseReprocess is a reconnect reconciling through the original
	// reprocessing protocol by choice (not as a merge fallback).
	PhaseReprocess Phase = "reprocess"
	// PhasePropagate is a lazy-replication drain applying queued updates to
	// follower replicas; Lag carries the number of updates applied.
	PhasePropagate Phase = "propagate"
	// PhaseRecover is a crash recovery: a mobile node rebuilt from its
	// write-ahead journal (emitted when the recovered node binds to its
	// cluster) or a base cluster replaying its durable log. Replayed
	// carries the journal records replayed, Cause is CauseTornTail when the
	// journal ended in a partially written record (dropped with every
	// transaction it held), and Detail names the scan mode ("strict" or
	// "salvage").
	PhaseRecover Phase = "recover"
	// PhaseCheckpoint is a durable base cluster writing a fresh checkpoint
	// segment and truncating its journal (DESIGN.md §14); Saved carries
	// the number of current-window entries captured in the segment.
	PhaseCheckpoint Phase = "checkpoint"
	// PhaseMerge is the whole-reconnect summary span: its Dur is the
	// end-to-end reconnect latency, its tallies the final outcome.
	PhaseMerge Phase = "merge"
)

// Cause classifies why a reconnect fell back to reprocessing or a recovery
// dropped a torn tail.
type Cause string

// Fallback and recovery causes.
const (
	// CauseNone: the phase succeeded.
	CauseNone Cause = ""
	// CauseWindowExpired: the mobile connected after its time window
	// closed.
	CauseWindowExpired Cause = "window-expired"
	// CauseOriginInvalid: under Strategy 1, the state at the node's
	// checkout position changed (the Figure 2 anomaly).
	CauseOriginInvalid Cause = "origin-invalidated"
	// CauseInsertConflict: under Strategy 1, committed base transactions
	// after the checkout point conflict with the forwarded updates.
	CauseInsertConflict Cause = "insert-conflict"
	// CauseTornTail: a crash recovery found its journal ending in a
	// partially written (torn) final line; the tail was dropped.
	CauseTornTail Cause = "torn-tail"
)

// Event is one observed span or mark on the reconnect path. Fields beyond
// Phase are populated when they are meaningful for the phase; a zero field
// means "not applicable", never "measured zero" (except Dur on
// instantaneous marks).
type Event struct {
	// Mobile is the reconnecting node's ID.
	Mobile string
	// Seq is the cluster-wide merge sequence number grouping every event
	// of one reconnect (0 for events outside a merge, e.g. checkout).
	Seq int64
	// Phase names the stage.
	Phase Phase
	// Dur is the span duration (0 for instantaneous marks).
	Dur time.Duration
	// Cause carries the fallback or recovery cause.
	Cause Cause
	// Detail names the algorithm that ran (rewriter, pruner, back-out
	// strategy) where one applies.
	Detail string
	// Saved, BackedOut, Affected, Reexecuted, Failed tally transactions
	// for the phases that decide them (rewrite, merge, fallback).
	Saved, BackedOut, Affected, Reexecuted, Failed int
	// Lag is the number of queued follower updates applied (propagate).
	Lag int
	// Replayed tallies a crash recovery (recover): journal records
	// replayed.
	Replayed int
	// BaseViewed and BaseKept size the base side of an indexed graph build
	// (graph-build on the replica path): window entries in the merge's view,
	// and those among them the graph was built over.
	BaseViewed, BaseKept int
	// Shard is the 1-based shard that emitted the event under a sharded
	// base tier (replica.ShardedBase). 0 means the event came from an
	// unsharded cluster or from a merge spanning several shards, whose
	// events carry Detail "cross-shard" instead.
	Shard int
	// Err is the error text when the phase failed.
	Err string
}

// Observer receives protocol events. Implementations must be safe for
// concurrent use: concurrent reconnects emit concurrently. The protocol
// never calls Observe while holding the cluster mutex, so an observer may
// block briefly — but it runs inline on the reconnect path, so it should
// stay cheap (fold into counters, append to a buffer) and must not call
// back into the cluster it observes.
type Observer interface {
	Observe(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Observe calls f(ev).
func (f ObserverFunc) Observe(ev Event) { f(ev) }

// Multi fans events out to every observer in order. Nil entries are
// skipped; a nil or empty list yields a nil Observer (the fast path).
func Multi(obs ...Observer) Observer {
	flat := make(multi, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			flat = append(flat, o)
		}
	}
	switch len(flat) {
	case 0:
		return nil
	case 1:
		return flat[0]
	default:
		return flat
	}
}

type multi []Observer

func (m multi) Observe(ev Event) {
	for _, o := range m {
		o.Observe(ev)
	}
}

// Registry returns the first registry exposed by a member observer, so a
// Multi wrapping a Metrics still serves metric dumps.
func (m multi) Registry() *Registry {
	for _, o := range m {
		if p, ok := o.(RegistryProvider); ok {
			if r := p.Registry(); r != nil {
				return r
			}
		}
	}
	return nil
}

// Bind stamps every event passing through with the merge identity (mobile
// ID and sequence number), so instrumentation deep inside internal/merge
// needs no identity plumbing of its own. Fields already set are kept.
func Bind(o Observer, mobile string, seq int64) Observer {
	if o == nil {
		return nil
	}
	return ObserverFunc(func(ev Event) {
		if ev.Mobile == "" {
			ev.Mobile = mobile
		}
		if ev.Seq == 0 {
			ev.Seq = seq
		}
		o.Observe(ev)
	})
}

// RegistryProvider is implemented by observers that expose a metrics
// registry (Metrics, and Multi when a member does). The replication
// substrate uses it to locate the registry behind a Config.Observer when
// serving metric dumps.
type RegistryProvider interface {
	Registry() *Registry
}

// RegistryOf extracts the registry behind an observer, or nil.
func RegistryOf(o Observer) *Registry {
	if p, ok := o.(RegistryProvider); ok {
		return p.Registry()
	}
	return nil
}
