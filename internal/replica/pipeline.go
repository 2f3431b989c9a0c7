package replica

import (
	"fmt"

	"tiermerge/internal/cost"
	"tiermerge/internal/graph"
	"tiermerge/internal/history"
	"tiermerge/internal/merge"
	"tiermerge/internal/model"
	"tiermerge/internal/obs"
	"tiermerge/internal/tx"
)

// The prepare side of the merge path (clusterset.go): the prefix snapshot a
// merge prepares against and the prepare itself.
//
// A prepare costs what touches Hm, not the prefix: the base history is
// indexed once per committed entry (graph.BaseIndex, grown in windowPrefix)
// and the prepare reads the posting lists of Hm's footprint and the base
// entries that can lie on a cycle through Hm.

// prefixSnapshot is the immutable base-prefix view a merge prepares
// against.
type prefixSnapshot struct {
	pos  int // validated checkout position (0 under Strategy 2)
	view *graph.BaseView
}

// preparedMerge is the outcome of the prepare phase.
type preparedMerge struct {
	rep      *merge.Report
	effByTxn map[*tx.Transaction]*tx.Effect
	// insertConflict records a Strategy 1 insert-position conflict found
	// against the view; installation falls back to reprocessing.
	insertConflict bool
	// deltaPrepare holds charges incurred by any merge that ran to the
	// insert-conflict check; deltaCommit holds charges only an installed
	// merge pays. Both merge into the shared counters at installation.
	deltaPrepare, deltaCommit cost.Counts
}

// eventBuffer queues the events of a reconnect's critical section for
// delivery after the member mutexes are released: calling out to a user
// observer under a mutex is forbidden. A nil buffer (no observer
// configured) drops them. Single-goroutine use only — no lock needed.
type eventBuffer struct{ events []obs.Event }

func (eb *eventBuffer) Observe(ev obs.Event) {
	if eb != nil {
		eb.events = append(eb.events, ev)
	}
}

// bind returns the buffer as the observer of a merge's prepare sub-phases,
// stamped with the merge identity — nil for a nil buffer, so the
// nil-observer path stays one nil check per would-be event.
func (eb *eventBuffer) bind(mobile string, seq int64) obs.Observer {
	if eb == nil {
		return nil
	}
	return obs.Bind(eb, mobile, seq)
}

// flush delivers the buffered events to o. Never called with a mutex held.
func (eb *eventBuffer) flush(o obs.Observer) {
	if eb == nil {
		return
	}
	for _, ev := range eb.events {
		o.Observe(ev)
	}
}

// footprintOf is the union of Hm's actual read and write sets: what a
// reconnect's view holds postings for. (Shards are chosen by the static
// footprint, ShardedBase.set.)
func footprintOf(hm *history.Augmented) model.ItemSet {
	fp := make(model.ItemSet)
	for _, eff := range hm.Effects {
		for _, r := range eff.Items {
			fp.Add(r.Item)
		}
	}
	return fp
}

// footprintOrigin restricts origin to Hm's footprint, an item origin lacks
// as an explicit zero: every origin value a replay of Hm reads.
func footprintOrigin(origin model.State, hm *history.Augmented) model.State {
	fp := footprintOf(hm)
	s := make(model.State, len(fp))
	for it := range fp {
		s.Set(it, origin.Get(it))
	}
	return s
}

// checkTokenLocked validates the checkout token and returns its position
// in the current window (0 under Strategy 2). No map and no slice header
// of the index is read after b.mu is released: the caller captures the
// prefix snapshot, a lock-free view of the indexed base history from that
// position on, under the same hold. Caller holds b.mu.
//
// A token is valid when every item its origin carries has that value in the
// base state at the token: the window origin under Strategy 2, the state at
// its position under Strategy 1 (valueAtLocked). An in-process token
// carries the whole origin; one that crossed the wire carries Hm's
// footprint of it (footprintOrigin — a value the payload omits was replayed
// as zero, and is claimed as zero). The check costs O(|origin|) under
// Strategy 2 and O(|origin| · log n) under Strategy 1, and copies no state.
func (b *BaseCluster) checkTokenLocked(ck Checkout, footprint model.ItemSet) (int, FallbackReason) {
	if ck.WindowID != b.windowID {
		return 0, FallbackWindowExpired
	}
	pos, at := 0, b.windowOrigin.Get
	if b.cfg.Origin == Strategy1 {
		pos = ck.Pos
		if pos < 0 || pos > len(b.entries) {
			return 0, FallbackOriginInvalid
		}
		ix := b.windowPrefix()
		at = func(it model.Item) model.Value { return b.valueAtLocked(ix, it, pos) }
		// An interior insert can add an item to the state at pos after the
		// checkout; a footprint item the token does not carry was read as
		// zero.
		for it := range footprint {
			if _, ok := ck.Origin[it]; !ok && at(it) != 0 {
				return 0, FallbackOriginInvalid
			}
		}
	}
	for it, v := range ck.Origin {
		if at(it) != v {
			return 0, FallbackOriginInvalid
		}
	}
	return pos, FallbackNone
}

// valueAtLocked reads it in the base state at position pos of the current
// window (0 = window origin), off ix, the window's index: the before-image
// of the first entry at or after pos that writes it, else the live master
// value. Interior inserts keep this exact: the insert-conflict check admits
// an insert only when no later entry touches its items, so an item's
// writers run in position order. Caller holds b.mu.
func (b *BaseCluster) valueAtLocked(ix *graph.BaseIndex, it model.Item, pos int) model.Value {
	if v, ok := ix.BeforeWrite(it, pos); ok {
		return v
	}
	return b.master.Get(it)
}

// prepareMerge runs every heavy step of the merging protocol against the
// view, accumulating the Section 7.1 charges into private deltas. s holds
// the graph phase's transient arrays (the home cluster's scratch). o (may
// be nil) receives the prepare sub-phase span events — graph build,
// back-out, rewrite, prune — already bound to the owning merge.
func prepareMerge(cfg Config, view *graph.BaseView, hm *history.Augmented, s *graph.Scratch, o obs.Observer) (*preparedMerge, error) {
	p := &preparedMerge{}
	opts := cfg.MergeOptions
	opts.Observer = o

	p.effByTxn = make(map[*tx.Transaction]*tx.Effect, hm.H.Len())
	for i := 0; i < hm.H.Len(); i++ {
		p.effByTxn[hm.H.Txn(i)] = hm.Effects[i]
	}

	rep, st, err := merge.MergeIndexed(hm, view, s, opts)
	if err != nil {
		return nil, fmt.Errorf("replica: merge: %w", err)
	}
	p.rep = rep
	p.chargeSent(cfg.Weights, hm)
	p.chargePrepared(cfg, hm, view, st)
	p.chargeCommit(cfg.Weights)
	return p, nil
}

// chargeSent records the mobile -> base message of the merge: the read and
// write sets of Hm plus G(Hm), the value-write local graph, whose edges the
// merge's own graph counts (Graph.LocalEdges) — no second build.
func (p *preparedMerge) chargeSent(w cost.Weights, hm *history.Augmented) {
	var setEntries int64
	for _, eff := range hm.Effects {
		for _, r := range eff.Items {
			if r.Read {
				setEntries++
			}
			if r.Written {
				setEntries++
			}
		}
	}
	localEdges := int64(p.rep.Graph.LocalEdges())
	p.deltaPrepare.Msg(w, setEntries*w.SetEntryBytes+localEdges*w.GraphEdgeBytes)
	p.deltaPrepare.SetEntriesSent += setEntries
	p.deltaPrepare.GraphEdgesSent += localEdges
	p.deltaPrepare.MobileGraphOps += int64(hm.H.Len()) + localEdges
}

// chargePrepared records the base- and mobile-side compute of one prepare —
// work performed, so the graph bill is the built graph plus the postings
// scanned and the reachability steps that selected its base vertices — and
// runs the Strategy 1 insert-conflict test over the view.
func (p *preparedMerge) chargePrepared(cfg Config, hm *history.Augmented, view *graph.BaseView, st graph.ViewStats) {
	w := cfg.Weights
	rep := p.rep
	// Base computing: building G(Hm, Hb) and computing B.
	var fullEdges int64
	for v := 0; v < rep.Graph.Len(); v++ {
		fullEdges += int64(len(rep.Graph.Succ(v)))
	}
	rewriteOps := int64(hm.H.Len()) // scan cost even when nothing moves
	if rep.RewriteResult != nil {
		rewriteOps += int64(rep.RewriteResult.PairChecks)
	}
	p.deltaPrepare.BaseGraphOps += int64(rep.Graph.Len()) + fullEdges + int64(st.Scanned+st.Steps)
	p.deltaPrepare.EdgesElided += int64(rep.Graph.Elided)
	p.deltaPrepare.BaseBackoutOps += fullEdges + int64(len(rep.BadIDs))*int64(rep.Graph.Len())
	// Base -> mobile: the set B.
	p.deltaPrepare.MobileRewriteOps += rewriteOps // actual pair checks, O(n^2) worst case
	p.deltaPrepare.MobilePruneOps += int64(len(rep.Reexecute) + len(rep.AffectedIDs))
	p.deltaPrepare.Msg(w, int64(len(rep.BadIDs))*w.SetEntryBytes)

	// Strategy 1 serializes the saved work at the checkout position; that
	// is only possible when no committed base transaction after it
	// conflicts with the forwarded updates (otherwise durable history
	// would change). The view covers every entry from pos on.
	p.insertConflict = scanInsertConflict(cfg, view, rep.ForwardUpdates, rep.ForwardDeltas)
}

// scanInsertConflict applies the Strategy 1 insert-position test: some
// committed base transaction in the view touches an item the forwarded
// write-back (values or deltas) would rewrite at the checkout position. The
// forwarded items are Hm writes, so the view holds their posting lists.
func scanInsertConflict(cfg Config, view *graph.BaseView, values, deltas map[model.Item]model.Value) bool {
	if cfg.Origin != Strategy1 {
		return false
	}
	for _, src := range [2]map[model.Item]model.Value{values, deltas} {
		for it := range src {
			if view.Touches(it) {
				return true
			}
		}
	}
	return false
}

// chargeCommit records the charges only an installed merge pays: the
// forwarded-updates message and the outcome tallies.
func (p *preparedMerge) chargeCommit(w cost.Weights) {
	rep := p.rep
	nUpd := int64(len(rep.ForwardUpdates) + len(rep.ForwardDeltas))
	p.deltaCommit.Msg(w, nUpd*w.UpdateEntryBytes)
	p.deltaCommit.UpdatesSent += nUpd
	p.deltaCommit.DeltaFolded += int64(rep.DeltaFolded)
	p.deltaCommit.TxnsSaved += int64(len(rep.SavedIDs))
	p.deltaCommit.TxnsBackedOut += int64(len(rep.Reexecute))
	p.deltaCommit.MergesPerformed++
}
