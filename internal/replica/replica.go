// Package replica implements the two-tier replication substrate of
// [GHOS96] as adopted by the paper: a base tier of always-connected nodes
// holding master data, and mobile nodes that run tentative transactions
// while disconnected and reconcile on reconnect — either by the original
// reprocessing protocol (re-execute everything at the base) or by the
// paper's merging protocol (Section 2).
//
// It also implements the multi-tentative-history synchronization machinery
// of Section 2.2: Strategy 1 (each tentative history starts from the master
// state at its checkout instant) with its merge-failure anomaly, Strategy 2
// (every tentative history starts from the shared time-window origin), and
// periodic time-window resynchronization.
package replica

import (
	"errors"
	"fmt"

	"tiermerge/internal/cost"
	"tiermerge/internal/merge"
	"tiermerge/internal/model"
	"tiermerge/internal/obs"
)

// Typed sentinel errors of the replication substrate. They are wrapped
// with %w at their origin, so callers match them with errors.Is.
var (
	// ErrBadConfig wraps every Config validation failure.
	ErrBadConfig = errors.New("replica: invalid cluster config")
	// ErrWindowExpired reports a checkout token whose time window has
	// closed; the corresponding reconnect fallback is
	// FallbackWindowExpired.
	ErrWindowExpired = errors.New("replica: time window expired")
	// ErrOriginInvalid reports a Strategy 1 checkout whose recorded origin
	// no longer matches any base-history position (the Figure 2 anomaly);
	// the corresponding reconnect fallback is FallbackOriginInvalid.
	ErrOriginInvalid = errors.New("replica: checkout origin invalidated")
)

// OriginStrategy selects how a mobile node's tentative history picks its
// origin database state (Section 2.2).
type OriginStrategy int

// Origin strategies.
const (
	// Strategy2 (the paper's choice, and the default): every tentative
	// history takes the base state at the beginning of the current time
	// window. Merges always find a valid base sub-history to merge into.
	Strategy2 OriginStrategy = iota
	// Strategy1: each tentative history takes the master state at its own
	// checkout instant. Concurrent merges can invalidate the recorded
	// origin, making later merges fail (the Figure 2 anomaly); failed
	// merges fall back to reprocessing.
	Strategy1
)

func (s OriginStrategy) String() string {
	switch s {
	case Strategy1:
		return "strategy-1"
	case Strategy2:
		return "strategy-2"
	default:
		return "unknown"
	}
}

// Config parameterizes a base cluster. Durability is not part of it: the
// constructor chooses (NewBaseCluster and NewShardedBase keep the cluster
// in memory, OpenBase and OpenShardedBase journal through store.Disk).
type Config struct {
	// BaseNodes is the number of base-tier replicas (>= 1). It only
	// prices propagation: each commit charges one message of its write
	// images to each of the other BaseNodes-1 replicas, which are not
	// materialized. Default 1.
	BaseNodes int
	// Weights is the cost model (default cost.DefaultWeights()).
	Weights cost.Weights
	// Origin selects the tentative-history origin strategy (default
	// Strategy2).
	Origin OriginStrategy
	// MergeOptions configures the merging protocol.
	MergeOptions merge.Options
	// Acceptance validates re-executed tentative transactions against
	// their tentative outcomes; nil accepts every successful re-execution.
	Acceptance Acceptance
	// ShardFn, when non-nil, overrides the default FNV-hash item router of
	// a sharded base tier (NewShardedBase): it must map every item to a
	// stable shard index in [0, shards). Values outside that range are
	// reduced modulo the shard count. NewBaseCluster ignores it.
	ShardFn func(model.Item) int
	// Observer receives a span event for every phase of every reconnect —
	// checkout, disconnect-run, the wait for the cluster mutexes, snapshot,
	// the prepare sub-phases (graph build, back-out, rewrite, prune),
	// admission, fallbacks and the whole-merge summary. nil (the zero
	// value) pays exactly one nil check per would-be event. Events are never
	// emitted while a cluster mutex is held — the critical section's spans
	// are buffered and delivered after unlock — but the observer runs inline
	// on the reconnect path: keep it cheap (obs.Metrics, obs.Tracer) and
	// never call back into the cluster.
	Observer obs.Observer
}

func (c Config) withDefaults() Config {
	if c.BaseNodes == 0 {
		c.BaseNodes = 1
	}
	if c.Weights == (cost.Weights{}) {
		c.Weights = cost.DefaultWeights()
	}
	return c
}

// Validate reports misconfiguration as an error wrapping ErrBadConfig (or
// merge.ErrBadOptions for the embedded MergeOptions). Zero values are
// valid — they select documented defaults. NewBaseCluster calls it and
// panics on failure (a programming error, caught at construction instead
// of surfacing mid-merge); callers building configurations from user input
// should call it themselves first.
func (c Config) Validate() error {
	if c.BaseNodes < 0 {
		return fmt.Errorf("%w: BaseNodes %d < 0", ErrBadConfig, c.BaseNodes)
	}
	if c.Origin != Strategy1 && c.Origin != Strategy2 {
		return fmt.Errorf("%w: unknown origin strategy %d", ErrBadConfig, c.Origin)
	}
	return c.MergeOptions.Validate()
}

// FallbackReason says why a connect fell back to reprocessing instead of
// merging.
type FallbackReason string

// Fallback reasons.
const (
	// FallbackNone: the merge ran.
	FallbackNone FallbackReason = ""
	// FallbackWindowExpired: the mobile node connected after its window
	// closed ("when a mobile node connects to the base nodes too late...
	// its transactions will be reexecuted", Section 2.2).
	FallbackWindowExpired FallbackReason = "window-expired"
	// FallbackOriginInvalid: under Strategy 1, another merge changed the
	// state at this node's checkout position, so no base sub-history
	// starting with its origin exists (the Figure 2 anomaly).
	FallbackOriginInvalid FallbackReason = "origin-invalidated"
	// FallbackInsertConflict: under Strategy 1, committed base
	// transactions after the checkout point conflict with the forwarded
	// updates; serializing the tentative work at its origin would rewrite
	// durable history.
	FallbackInsertConflict FallbackReason = "insert-conflict"
)

// ConnectOutcome summarizes one mobile reconnect.
type ConnectOutcome struct {
	// Merged says whether the merging protocol ran (false = everything was
	// reprocessed).
	Merged bool
	// Fallback carries the reason when Merged is false under the merging
	// protocol.
	Fallback FallbackReason
	// Report is the merge report when Merged is true.
	Report *merge.Report
	// BadIDs lists the backed-out transactions (B), also available when the
	// outcome crossed the wire without the full report.
	BadIDs []string
	// Saved and Reprocessed count tentative transactions preserved via
	// merging vs re-executed at the base.
	Saved, Reprocessed int
	// Failed counts re-executions that failed at the base (reported back
	// to the user with reasons, per the protocol's step 6).
	Failed int
}
