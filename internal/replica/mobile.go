package replica

import (
	"errors"
	"fmt"
	"time"

	"tiermerge/internal/history"
	"tiermerge/internal/merge"
	"tiermerge/internal/model"
	"tiermerge/internal/obs"
	"tiermerge/internal/tx"
	"tiermerge/internal/wal"
)

// ErrNotTentative is returned when a base transaction is submitted to a
// mobile node.
var ErrNotTentative = errors.New("replica: transaction is not a tentative transaction")

// ErrNoCluster is returned when a connect method is called on a mobile
// node that is not bound to a base cluster (a journal-recovered node that
// has not yet been handed its cluster — call Bind).
var ErrNoCluster = errors.New("replica: mobile node has no bound cluster")

// ErrClusterMismatch is returned by Bind when the argument names a
// different cluster than the one the node checked out from.
var ErrClusterMismatch = errors.New("replica: mobile node is bound to a different cluster")

// MobileNode is a disconnected-most-of-the-time node: it holds a tentative
// replica checked out from the base tier and runs tentative transactions
// against it, accumulating the tentative history it will reconcile on its
// next connect.
type MobileNode struct {
	// ID names the node (e.g. "m3").
	ID string

	// cluster is the base tier the node checked out from; connects go back
	// to it. nil only for journal-recovered nodes before Bind hands them
	// their cluster, and for nodes bound to a sharded tier (then sharded is
	// set instead).
	cluster *BaseCluster

	// sharded, when non-nil, is the sharded base tier the node is bound to
	// (NewShardedMobileNode); connects route through it instead of a single
	// cluster. cluster and sharded are mutually exclusive.
	sharded *ShardedBase

	ck Checkout
	// run is the period's tentative history; its final state is the local
	// replica, updated in place.
	run     *history.Augmented
	journal *wal.Writer

	// recovered carries the pending crash-recovery report of a
	// journal-recovered node until it binds to a cluster, at which point
	// the recovery is charged to the cluster's counters and observer.
	recovered *Recovery
}

// NewMobileNode creates a mobile node bound to b and checks out its
// initial replica.
func NewMobileNode(id string, b *BaseCluster) *MobileNode {
	m := &MobileNode{ID: id, cluster: b}
	m.Checkout()
	return m
}

// NewShardedMobileNode creates a mobile node bound to a sharded base tier
// and checks out its initial replica. With one shard it is exactly
// NewMobileNode on the underlying cluster.
func NewShardedMobileNode(id string, s *ShardedBase) *MobileNode {
	if s.Shards() == 1 {
		return NewMobileNode(id, s.Shard(0))
	}
	m := &MobileNode{ID: id, sharded: s}
	m.Checkout()
	return m
}

// Cluster returns the base cluster the node is bound to (nil for a
// journal-recovered node that has not been rebound yet, and for a node
// bound to a multi-shard tier — see Sharded).
func (m *MobileNode) Cluster() *BaseCluster { return m.cluster }

// Sharded returns the sharded base tier the node is bound to, or nil.
func (m *MobileNode) Sharded() *ShardedBase { return m.sharded }

// Bind hands a journal-recovered node its base cluster: the node's pending
// crash-recovery report is charged to the cluster's counters and observer,
// and subsequent Checkout/Connect calls go to b. Binding a node to the
// cluster it is already bound to is a no-op; binding it to a different
// cluster (or a nil one) fails with ErrClusterMismatch / ErrNoCluster —
// the checkout token the node crashed with names exactly one base tier.
func (m *MobileNode) Bind(b *BaseCluster) error {
	if m.sharded != nil {
		return fmt.Errorf("%w: %s is bound to a sharded tier", ErrClusterMismatch, m.ID)
	}
	if b == nil {
		return fmt.Errorf("%w: %s (nil argument)", ErrNoCluster, m.ID)
	}
	if m.cluster == nil {
		m.cluster = b
		m.noteRecovery(b)
		return nil
	}
	if m.cluster != b {
		return fmt.Errorf("%w: %s", ErrClusterMismatch, m.ID)
	}
	return nil
}

// tier returns the node's bound reconcile surface.
func (m *MobileNode) tier() (BaseTier, error) {
	if m.sharded != nil {
		return m.sharded, nil
	}
	if m.cluster == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoCluster, m.ID)
	}
	return m.cluster, nil
}

// Checkout (re)synchronizes the node's replica with the base tier and
// starts a fresh, empty tentative history from the origin the cluster's
// strategy dictates. The node knows its tier since NewMobileNode /
// NewShardedMobileNode; a journal-recovered node must Bind first.
func (m *MobileNode) Checkout() {
	t, err := m.tier()
	if err != nil {
		panic(fmt.Sprintf("replica: Checkout: %v", err))
	}
	m.resetFrom(t.CheckoutReplica(m.ID))
}

// resetFrom installs a fresh checkout token and restarts the tentative
// history from its origin.
func (m *MobileNode) resetFrom(ck Checkout) {
	m.ck = ck
	m.run = history.Start(ck.Origin)
	m.journal = nil // journals cover one disconnection period
}

// Run executes one tentative transaction in place on the local tentative
// data, appending it to the node's tentative history. The transaction
// produces new tentative versions only; nothing reaches the base tier until
// the node connects. A transaction that fails leaves the node unchanged.
func (m *MobileNode) Run(t *tx.Transaction) error {
	if t.Kind != tx.Tentative {
		return fmt.Errorf("%w: %s", ErrNotTentative, t.ID)
	}
	var start time.Time
	switch {
	case m.sharded != nil:
		start = m.sharded.spanStart()
	case m.cluster != nil:
		start = m.cluster.spanStart()
	}
	eff, err := m.run.Append(t)
	if err != nil {
		return fmt.Errorf("replica: tentative %s: %w", t.ID, err)
	}
	if err := m.logTentative(t, eff); err != nil {
		return fmt.Errorf("replica: journal %s: %w", t.ID, err)
	}
	switch {
	case m.sharded != nil:
		m.sharded.emit(obs.Event{Mobile: m.ID, Phase: obs.PhaseRun, Dur: sinceSpan(start)})
	case m.cluster != nil:
		m.cluster.emit(obs.Event{Mobile: m.ID, Phase: obs.PhaseRun, Dur: sinceSpan(start)})
	}
	return nil
}

// Pending returns the number of tentative transactions awaiting
// reconciliation.
func (m *MobileNode) Pending() int { return m.run.H.Len() }

// Local returns a copy of the node's tentative database state.
func (m *MobileNode) Local() model.State { return m.run.Final().Clone() }

// Augmented exposes the node's tentative history as an augmented run (the
// Hm a merge consumes). It is the node's own run, not a copy: its history
// and final state keep growing with every Run until the next checkout
// starts a new one.
func (m *MobileNode) Augmented() *history.Augmented { return m.run }

// ConnectMerge connects to the base tier and reconciles via the merging
// protocol, then checks out a fresh replica for the next disconnection
// period. A journal-recovered node must Bind first (ErrNoCluster).
func (m *MobileNode) ConnectMerge() (*ConnectOutcome, error) {
	t, err := m.tier()
	if err != nil {
		return nil, err
	}
	out, err := t.Merge(m.ck, m.Augmented())
	if err != nil {
		return nil, err
	}
	m.Checkout()
	return out, nil
}

// ConnectReprocess connects to the base tier and reconciles via the
// original two-tier protocol (re-execute everything), then checks out a
// fresh replica. Like Checkout it panics on an unbound node.
func (m *MobileNode) ConnectReprocess() *ConnectOutcome {
	t, err := m.tier()
	if err != nil {
		panic(fmt.Sprintf("replica: ConnectReprocess: %v", err))
	}
	out := t.Reprocess(m.Augmented())
	m.Checkout()
	return out
}

// PreviewMerge reports what ConnectMerge would do right now without
// performing it.
func (m *MobileNode) PreviewMerge() (*merge.Report, error) {
	if m.sharded != nil {
		return m.sharded.Preview(m.ck, m.Augmented())
	}
	if m.cluster == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoCluster, m.ID)
	}
	return m.cluster.Preview(m.ck, m.Augmented())
}
