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

// The prepare side of the merge path (clusterset.go): the immutable prefix
// snapshot a merge prepares against, the lock-free prepare itself, and the
// tests admission applies to a prepared merge.
//
// A prepare costs what touches Hm, not the prefix: the base history is
// indexed once per committed entry (graph.BaseIndex, grown in windowPrefix)
// and the prepare reads the posting lists of Hm's footprint and the base
// entries that can lie on a cycle through Hm. A retry therefore simply
// re-prepares on the newer view, carrying the previous attempt only for its
// charges: the mobile's upload (set entries, local graph edges) is billed
// once per reconnect, never on a retry.

// prefixSnapshot is the immutable base-prefix view a merge prepares
// against.
//
//tiermerge:immutable
type prefixSnapshot struct {
	windowID  int
	structVer int64
	histLen   int // committed entries at snapshot time
	pos       int // validated checkout position (0 under Strategy 2)
	view      *graph.BaseView
}

// preparedMerge is the outcome of the lock-free prepare phase.
type preparedMerge struct {
	rep *merge.Report
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
	// starts from the previous attempt's delta and adds its own work, so the
	// admitted attempt bills every piece of compute the reconnect actually
	// performed — and the mobile→base upload exactly once.
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

// footprintOf is the union of Hm's actual read and write sets: what routes a
// reconnect to its shards, what its view holds postings for, and what
// admission validates extensions against.
func footprintOf(hm *history.Augmented) model.ItemSet {
	fp := make(model.ItemSet)
	for _, eff := range hm.Effects {
		for it := range eff.ReadSet {
			fp.Add(it)
		}
		for it := range eff.WriteSet {
			fp.Add(it)
		}
	}
	return fp
}

// snapshotLocked validates the checkout token and captures the prefix
// snapshot: the lock-free view of the indexed base history from the checkout
// position on, with the posting lists of footprint (nil: none — a
// cross-shard part, which combineParts re-indexes). No map and no slice
// header of the index is read after b.mu is released. Caller holds b.mu.
//
//tiermerge:locks(cluster)
func (b *BaseCluster) snapshotLocked(ck Checkout, footprint model.ItemSet) (prefixSnapshot, FallbackReason) {
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
		view:      b.windowPrefix().View(pos, footprint),
	}, FallbackNone
}

// prepareMerge runs every heavy step of the merging protocol against the
// view without any cluster lock, accumulating the Section 7.1 charges into
// private deltas. footprint is footprintOf(hm), the items the view holds
// postings for. o (may be nil) receives the prepare sub-phase span events —
// graph build, back-out, rewrite, prune — already bound to the owning merge.
//
// prev, when non-nil, is the previous attempt's prepared merge. Its
// accumulated charges carry over (failed-attempt compute is work performed;
// the admitted attempt bills it all), and the mobile→base upload (set
// entries, local graph edges and their message) is never re-billed: the
// mobile ships Hm once per reconnect.
func prepareMerge(cfg Config, view *graph.BaseView, hm *history.Augmented, footprint model.ItemSet, prev *preparedMerge, o obs.Observer) (*preparedMerge, error) {
	w := cfg.Weights
	p := &preparedMerge{footprint: footprint}
	opts := cfg.MergeOptions
	opts.Observer = o

	if prev != nil {
		p.deltaPrepare = prev.deltaPrepare
		p.deltaPrepare.MergeRetries++
		p.deltaFoot = prev.deltaFoot
		p.effByTxn = prev.effByTxn
	} else {
		// First attempt. Communication, mobile -> base: read/write sets of
		// Hm plus G(Hm) — billed exactly once per reconnect.
		var setEntries, localEdges int64
		mobAcc := graph.AccessesOf(hm)
		for _, a := range mobAcc {
			setEntries += int64(len(a.ReadSet) + len(a.WriteSet))
		}
		gm := graph.Build(mobAcc, nil)
		for v := 0; v < gm.Len(); v++ {
			localEdges += int64(len(gm.Succ(v)))
		}
		p.deltaPrepare.Msg(w, setEntries*w.SetEntryBytes+localEdges*w.GraphEdgeBytes)
		p.deltaPrepare.SetEntriesSent += setEntries
		p.deltaPrepare.GraphEdgesSent += localEdges
		p.deltaPrepare.MobileGraphOps += int64(gm.Len()) + localEdges
		p.deltaFoot = deltaFootprint(cfg, hm, footprint)

		p.effByTxn = make(map[*tx.Transaction]*tx.Effect, hm.H.Len())
		for i := 0; i < hm.H.Len(); i++ {
			p.effByTxn[hm.H.Txn(i)] = hm.Effects[i]
		}
	}

	rep, st, err := merge.MergeIndexed(hm, view, opts)
	if err != nil {
		return nil, fmt.Errorf("replica: merge: %w", err)
	}
	p.rep = rep
	p.chargePrepared(cfg, hm, view, st)
	p.chargeCommit(w)
	return p, nil
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
	// would change). The view covers entries[pos:histLen]; admission's
	// extension check covers everything committed since.
	p.insertConflict = scanInsertConflict(cfg, view, rep.ForwardUpdates, rep.ForwardDeltas)
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
