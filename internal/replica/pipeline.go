package replica

import (
	"errors"
	"fmt"

	"tiermerge/internal/cost"
	"tiermerge/internal/graph"
	"tiermerge/internal/history"
	"tiermerge/internal/merge"
	"tiermerge/internal/model"
	"tiermerge/internal/obs"
	"tiermerge/internal/tx"
)

// The prepare side of the merge path (clusterset.go): the immutable prefix
// snapshot a merge prepares against, the lock-free prepare itself, and the
// tests admission applies to a prepared merge.
//
// Retries are kept cheap by incremental re-prepare: a retry carries the
// previous attempt's preparedMerge. Base transactions are durable and only
// append to the history between structural changes, so the precedence graph
// is monotone in the base suffix: prepareMerge extends the prior graph with
// just the entries in [prevSnap.histLen, snap.histLen) instead of rebuilding
// it, and reruns back-out/rewrite only when the extension adds an edge
// incident to Hm (merge.Extend). The mobile's upload (set entries, local
// graph edges) is billed once per reconnect, never on a retry.

// prefixSnapshot is the immutable base-prefix view a merge prepares
// against.
//
//tiermerge:immutable
type prefixSnapshot struct {
	windowID  int
	structVer int64
	histLen   int // committed entries at snapshot time
	pos       int // validated checkout position (0 under Strategy 2)
	hb        *history.Augmented
}

// preparedMerge is the outcome of the lock-free prepare phase.
type preparedMerge struct {
	snap prefixSnapshot
	rep  *merge.Report
	// footprint is the union of Hm's actual read and write sets — the
	// items whose base-side history must not have changed for the prepared
	// report to stay valid.
	footprint model.ItemSet
	// deltaFoot is the footprint's delta-pure subset: items every Hm
	// transaction touching them accessed only as a pure commutative
	// increment. A base extension entry that is itself delta-pure on such
	// an item is invisible to the prepared merge — the graph extension
	// would only elide edges, never add one incident to Hm, and the net
	// forwarded delta composes with the extension's increments — so
	// admission validation tolerates the overlap instead of retrying.
	// Empty under DisableDeltas and under Strategy 1 (whose interior
	// insert is only exact when nothing after the insert position touches
	// the forwarded items).
	deltaFoot model.ItemSet
	effByTxn  map[*tx.Transaction]*tx.Effect
	// insertConflict records a Strategy 1 insert-position conflict found
	// against the snapshot prefix; admission falls back to reprocessing.
	insertConflict bool
	// deltaPrepare holds charges incurred by any merge that ran to the
	// insert-conflict check; deltaCommit holds charges only an installed
	// merge pays. Both merge into the shared counters at admission.
	//
	// Across retry attempts deltaPrepare accumulates: each re-prepare
	// starts from the previous attempt's delta and adds only the new work
	// (the incremental graph extension, or a full rebuild when the prefix
	// changed shape), so the admitted attempt bills every piece of compute
	// the reconnect actually performed — and the mobile→base upload
	// exactly once.
	deltaPrepare, deltaCommit cost.Counts
}

// bindMerge stamps merge identity (mobile, sequence number, attempt) onto
// every event an inner protocol step emits, so prepare sub-phase events
// from package merge land in the right trace group.
func bindMerge(o obs.Observer, mobile string, seq int64, attempt int) obs.Observer {
	if o == nil {
		return nil
	}
	return obs.ObserverFunc(func(ev obs.Event) {
		if ev.Mobile == "" {
			ev.Mobile = mobile
		}
		if ev.Seq == 0 {
			ev.Seq = seq
		}
		if ev.Attempt == 0 {
			ev.Attempt = attempt
		}
		o.Observe(ev)
	})
}

// eventBuffer queues events emitted inside a critical section for delivery
// after the lock is released. The serial round runs the whole protocol under
// the members' mutexes, where calling out to a user observer is forbidden;
// it buffers here and the caller flushes post-unlock. Single-goroutine use
// only — no lock needed.
type eventBuffer struct{ events []obs.Event }

func (eb *eventBuffer) Observe(ev obs.Event) { eb.events = append(eb.events, ev) }

// snapshotLocked validates the checkout token and captures the prefix
// snapshot. Caller holds b.mu.
//
//tiermerge:locks(cluster)
func (b *BaseCluster) snapshotLocked(ck Checkout) (prefixSnapshot, FallbackReason) {
	if ck.WindowID != b.windowID {
		return prefixSnapshot{}, FallbackWindowExpired
	}
	pos := 0
	if b.cfg.Origin == Strategy1 {
		pos = ck.Pos
		if pos > len(b.entries) || !ck.Origin.Equal(b.stateAt(pos)) {
			return prefixSnapshot{}, FallbackOriginInvalid
		}
	}
	return prefixSnapshot{
		windowID:  b.windowID,
		structVer: b.structVer,
		histLen:   len(b.entries),
		pos:       pos,
		hb:        b.baseAugmented(pos),
	}, FallbackNone
}

// prepareMerge runs every heavy step of the merging protocol against the
// snapshot without any cluster lock, accumulating the Section 7.1 charges
// into private deltas. o (may be nil) receives the prepare sub-phase span
// events — graph build/extend, back-out, rewrite, prune — already bound to
// the owning merge.
//
// prev, when non-nil, is the previous attempt's prepared merge. Its
// accumulated charges carry over, and the mobile→base upload (set entries,
// local graph edges and their message) is never re-billed: the mobile ships
// Hm once per reconnect. When the new snapshot is an append-only extension
// of prev's — same window, same structure version, same position, history
// at least as long — the precedence graph is extended in place
// (merge.Extend) and only the incremental graph work is charged; otherwise
// the prepare rebuilds from scratch (charging the rebuild, which is work
// actually performed).
func prepareMerge(cfg Config, snap prefixSnapshot, hm *history.Augmented, prev *preparedMerge, o obs.Observer) (*preparedMerge, error) {
	w := cfg.Weights
	p := &preparedMerge{snap: snap}
	opts := cfg.MergeOptions
	opts.Observer = o

	if prev != nil {
		// A retry: carry the accumulated charges (failed-attempt compute is
		// work performed; the admitted attempt bills it all) and the
		// Hm-derived state, which no base change can alter.
		p.deltaPrepare = prev.deltaPrepare
		p.deltaPrepare.MergeRetries++
		p.footprint = prev.footprint
		p.deltaFoot = prev.deltaFoot
		p.effByTxn = prev.effByTxn
		if canExtend(prev.snap, snap) {
			if done, err := p.extendFrom(cfg, snap, hm, prev, opts); err != nil {
				return nil, err
			} else if done {
				return p, nil
			}
			// Not extendable after all: fall through to a full re-prepare.
		}
	} else {
		// First attempt. Communication, mobile -> base: read/write sets of
		// Hm plus G(Hm) — billed exactly once per reconnect.
		var setEntries, localEdges int64
		mobAcc := graph.AccessesOf(hm)
		p.footprint = make(model.ItemSet)
		for _, a := range mobAcc {
			setEntries += int64(len(a.ReadSet) + len(a.WriteSet))
			for it := range a.ReadSet {
				p.footprint.Add(it)
			}
			for it := range a.WriteSet {
				p.footprint.Add(it)
			}
		}
		gm := graph.Build(mobAcc, nil)
		for v := 0; v < gm.Len(); v++ {
			localEdges += int64(len(gm.Succ(v)))
		}
		p.deltaPrepare.Msg(w, setEntries*w.SetEntryBytes+localEdges*w.GraphEdgeBytes)
		p.deltaPrepare.SetEntriesSent += setEntries
		p.deltaPrepare.GraphEdgesSent += localEdges
		p.deltaPrepare.MobileGraphOps += int64(gm.Len()) + localEdges
		p.deltaFoot = deltaFootprint(cfg, hm, p.footprint)

		p.effByTxn = make(map[*tx.Transaction]*tx.Effect, hm.H.Len())
		for i := 0; i < hm.H.Len(); i++ {
			p.effByTxn[hm.H.Txn(i)] = hm.Effects[i]
		}
	}

	rep, err := merge.Merge(hm, snap.hb, opts)
	if err != nil {
		return nil, fmt.Errorf("replica: merge: %w", err)
	}
	p.rep = rep
	p.chargePrepared(cfg, hm, snap.hb.Effects)
	p.chargeCommit(w)
	return p, nil
}

// canExtend reports whether next is an append-only extension of prev: the
// same window, the same structural shape and checkout position, with a base
// history at least as long. Exactly then the entries in
// [prev.histLen, next.histLen) are the only difference, and grafting them
// onto prev's precedence graph reproduces a from-scratch build.
func canExtend(prev, next prefixSnapshot) bool {
	return prev.windowID == next.windowID &&
		prev.structVer == next.structVer &&
		prev.pos == next.pos &&
		next.histLen >= prev.histLen
}

// extendFrom performs the incremental re-prepare: extend prev's precedence
// graph with the base entries committed since prev's snapshot, rerun the
// downstream protocol steps only if the extension added an edge incident to
// Hm, and charge only the incremental work. Returns done=false (with p
// untouched beyond the carried fields) when the prior report cannot be
// extended and the caller must rebuild.
func (p *preparedMerge) extendFrom(cfg Config, snap prefixSnapshot, hm *history.Augmented, prev *preparedMerge, opts merge.Options) (done bool, err error) {
	w := cfg.Weights
	prevBase := prev.rep.Graph.BaseLen
	prevElided := prev.rep.Graph.Elided
	suffix := &history.Augmented{
		H:       &history.History{Entries: snap.hb.H.Entries[prevBase:]},
		Effects: snap.hb.Effects[prevBase:],
	}
	rep, info, err := merge.Extend(prev.rep, hm, suffix, opts)
	if err != nil {
		if errors.Is(err, merge.ErrNotExtendable) {
			return false, nil
		}
		return false, fmt.Errorf("replica: merge extend: %w", err)
	}
	p.rep = rep
	// Incremental graph work: vertices and edges actually added, plus the
	// delta-delta conflict pairs the extension elided instead of adding.
	p.deltaPrepare.BaseGraphOps += int64(info.NewVertices + info.NewEdges)
	p.deltaPrepare.EdgesElided += int64(rep.Graph.Elided - prevElided)
	if info.Reran {
		// Back-out, rewrite and prune reran on the extended graph; charge
		// them like a fresh prepare, and the refreshed set B travels
		// base -> mobile again.
		var fullEdges int64
		for v := 0; v < rep.Graph.Len(); v++ {
			fullEdges += int64(len(rep.Graph.Succ(v)))
		}
		rewriteOps := int64(hm.H.Len())
		if rep.RewriteResult != nil {
			rewriteOps += int64(rep.RewriteResult.PairChecks)
		}
		p.deltaPrepare.BaseBackoutOps += fullEdges + int64(len(rep.BadIDs))*int64(rep.Graph.Len())
		p.deltaPrepare.MobileRewriteOps += rewriteOps
		p.deltaPrepare.MobilePruneOps += int64(len(rep.Reexecute) + len(rep.AffectedIDs))
		p.deltaPrepare.Msg(w, int64(len(rep.BadIDs))*w.SetEntryBytes)
		p.insertConflict = scanInsertConflict(cfg, snap.hb.Effects, rep.ForwardUpdates, rep.ForwardDeltas)
	} else {
		// The report is unchanged; only the new suffix needs the Strategy 1
		// insert-conflict scan.
		p.insertConflict = prev.insertConflict ||
			scanInsertConflict(cfg, suffix.Effects, rep.ForwardUpdates, rep.ForwardDeltas)
	}
	p.chargeCommit(w)
	return true, nil
}

// chargePrepared records the base- and mobile-side compute of a full
// (from-scratch) prepare, plus the Strategy 1 insert-conflict scan over the
// snapshot prefix.
func (p *preparedMerge) chargePrepared(cfg Config, hm *history.Augmented, prefixEffects []*tx.Effect) {
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
	p.deltaPrepare.BaseGraphOps += int64(rep.Graph.Len()) + fullEdges
	p.deltaPrepare.EdgesElided += int64(rep.Graph.Elided)
	p.deltaPrepare.BaseBackoutOps += fullEdges + int64(len(rep.BadIDs))*int64(rep.Graph.Len())
	// Base -> mobile: the set B.
	p.deltaPrepare.MobileRewriteOps += rewriteOps // actual pair checks, O(n^2) worst case
	p.deltaPrepare.MobilePruneOps += int64(len(rep.Reexecute) + len(rep.AffectedIDs))
	p.deltaPrepare.Msg(w, int64(len(rep.BadIDs))*w.SetEntryBytes)

	// Strategy 1 serializes the saved work at the checkout position; that
	// is only possible when no committed base transaction after it
	// conflicts with the forwarded updates (otherwise durable history
	// would change). The snapshot prefix covers entries[pos:histLen];
	// admission's extension check covers everything committed since.
	p.insertConflict = scanInsertConflict(cfg, prefixEffects, rep.ForwardUpdates, rep.ForwardDeltas)
}

// deltaFootprint derives the delta-pure subset of the merge footprint: the
// items every tentative transaction touching them accessed only as pure
// commutative increments. Disabled (nil) when delta semantics are off or
// under Strategy 1 — the interior insert executes on the live master, which
// is only exact when nothing after the insert position touches the
// forwarded items, delta-pure or not.
func deltaFootprint(cfg Config, hm *history.Augmented, footprint model.ItemSet) model.ItemSet {
	if cfg.MergeOptions.DisableDeltas || cfg.Origin == Strategy1 {
		return nil
	}
	unsafe := make(model.ItemSet)
	mark := func(set model.ItemSet, pure model.ItemSet) {
		for it := range set {
			if !pure.Has(it) {
				unsafe.Add(it)
			}
		}
	}
	for _, eff := range hm.Effects {
		pure := eff.DeltaPure()
		mark(eff.ReadSet, pure)
		mark(eff.WriteSet, pure)
	}
	out := make(model.ItemSet)
	for it := range footprint {
		if !unsafe.Has(it) {
			out.Add(it)
		}
	}
	return out
}

// extensionInvisible reports whether one base entry committed since the
// snapshot is invisible to the prepared merge: it touches nothing in the
// merge footprint, or every footprint item it touches is delta-pure on both
// sides — the mobile side accessed it only as pure increments (deltaFoot)
// and the entry did too. Such an entry adds no precedence edge incident to
// Hm (the delta-delta pairs are elided), so the prepared report is exactly
// what a re-prepare over the longer prefix would compute, and the net
// forwarded deltas compose with the entry's increments at install time.
func (p *preparedMerge) extensionInvisible(eff *tx.Effect) bool {
	if eff.ReadSet.Disjoint(p.footprint) && eff.WriteSet.Disjoint(p.footprint) {
		return true
	}
	if len(p.deltaFoot) == 0 {
		return false
	}
	pure := eff.DeltaPure()
	check := func(set model.ItemSet) bool {
		for it := range set {
			if !p.footprint.Has(it) {
				continue
			}
			if !p.deltaFoot.Has(it) || !pure.Has(it) {
				return false
			}
		}
		return true
	}
	return check(eff.ReadSet) && check(eff.WriteSet)
}

// scanInsertConflict applies the Strategy 1 insert-position test: some
// committed base transaction in effects touches an item the forwarded
// write-back (values or deltas) would rewrite at the checkout position.
func scanInsertConflict(cfg Config, effects []*tx.Effect, values, deltas map[model.Item]model.Value) bool {
	if cfg.Origin != Strategy1 || len(values)+len(deltas) == 0 {
		return false
	}
	updItems := make(model.ItemSet, len(values)+len(deltas))
	for it := range values {
		updItems.Add(it)
	}
	for it := range deltas {
		updItems.Add(it)
	}
	for _, eff := range effects {
		if !eff.ReadSet.Disjoint(updItems) || !eff.WriteSet.Disjoint(updItems) {
			return true
		}
	}
	return false
}

// chargeCommit records the charges only an installed merge pays: the
// forwarded-updates message and the outcome tallies. Recomputed fresh on
// every attempt (never accumulated) — they describe the one admitted
// outcome, not work performed.
func (p *preparedMerge) chargeCommit(w cost.Weights) {
	rep := p.rep
	nUpd := int64(len(rep.ForwardUpdates) + len(rep.ForwardDeltas))
	p.deltaCommit = cost.Counts{}
	p.deltaCommit.Msg(w, nUpd*w.UpdateEntryBytes)
	p.deltaCommit.UpdatesSent += nUpd
	p.deltaCommit.DeltaFolded += int64(rep.DeltaFolded)
	p.deltaCommit.TxnsSaved += int64(len(rep.SavedIDs))
	p.deltaCommit.TxnsBackedOut += int64(len(rep.Reexecute))
	p.deltaCommit.MergesPerformed++
}

// lockPlan derives the admission lock set: exclusive on every item the
// merge writes (forwarded updates plus re-executed write sets), shared on
// the items re-execution reads.
func (p *preparedMerge) lockPlan(mobileID string) (owner string, items []model.Item, writes model.ItemSet) {
	owner = "merge:" + mobileID
	all := make(model.ItemSet)
	writes = make(model.ItemSet)
	for it := range p.rep.ForwardUpdates {
		all.Add(it)
		writes.Add(it)
	}
	for it := range p.rep.ForwardDeltas {
		all.Add(it)
		writes.Add(it)
	}
	for _, t := range p.rep.Reexecute {
		for it := range t.StaticReadSet() {
			all.Add(it)
		}
		for it := range t.StaticWriteSet() {
			all.Add(it)
			writes.Add(it)
		}
	}
	return owner, all.Items(), writes
}
