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

// The one merge path. A reconnect runs against the set of clusters its
// footprint touches — one for an unsharded base or a shard-local merge,
// several for a cross-shard merge — and every set size runs the same
// routine, one critical section over the members (DESIGN.md §7, §11):
//
//  1. take the member mutexes in ascending shard order (lockClusters);
//  2. validate each member's checkout token and capture its part — the
//     indexed base history with the posting lists of Hm's footprint; one
//     member's view is the merge's view, several interleave into one
//     combined view (combineParts);
//  3. prepare: graph build over the base entries that can lie on a cycle
//     through Hm, back-out, the O(n²) rewrite, pruning (pipeline.go), with
//     its sub-phase events buffered;
//  4. install the forwarded updates and re-execute the backed-out
//     transactions across the members — or fall back to reprocessing on a
//     token the base no longer honours or a Strategy 1 insert conflict;
//  5. unlock, deliver the buffered events, and force the members' journals
//     before acknowledging.
//
// Nothing commits between capture and install, so a prepared merge needs no
// revalidation and never retries. One global lock order — item locks
// (ExecBase only), then cluster mutexes ascending, with nothing under a
// mutex ever waiting on a lock — keeps merges, cross-shard base transactions
// and each other deadlock-free.

// clusterSet is the set of clusters one reconnect involves: an ordered
// subset of a partition's clusters plus the partition's item router. A
// BaseCluster forms the one-member set over itself; a ShardedBase forms the
// set of the shards a history's footprint touches. Everything a reconnect
// does — merge, preview, reprocess — is a method of the set, so the
// unsharded base is simply the set of size one.
type clusterSet struct {
	*partition
	// cfg is the forming tier's configuration. cfg.Observer receives the
	// set's events: a shard's stamping observer when that shard is the only
	// member, the tier's own otherwise.
	cfg Config
	// involved holds the members' shard indices in ascending order — the
	// order their mutexes are always acquired in — and members the
	// clusters themselves. members[0] is home: it numbers the merge and
	// takes the merge-level charges, so aggregate counters stay
	// schedule-independent.
	involved []int
	members  []*BaseCluster
}

// set forms the cluster set over the given shards of the partition
// (ascending indices) on behalf of a tier with configuration cfg.
func (s *partition) set(cfg Config, involved []int) *clusterSet {
	return &clusterSet{partition: s, cfg: cfg, involved: involved, members: s.clustersOf(involved)}
}

// shardPart is one member's share of a reconnect: its prefix snapshot and,
// when the set has several members, the cross-shard identities parallel to
// the snapshot's entries.
type shardPart struct {
	idx  int
	b    *BaseCluster
	snap prefixSnapshot
	refs []*crossTxn
}

// tag marks the set-level events of a reconnect that spans several
// clusters.
func (cs *clusterSet) tag(ev obs.Event) obs.Event {
	if len(cs.members) > 1 {
		ev.Detail = "cross-shard"
	}
	return ev
}

// emit delivers one set-level event. Never called with a member mutex held.
func (cs *clusterSet) emit(ev obs.Event) {
	if o := cs.cfg.Observer; o != nil {
		o.Observe(cs.tag(ev))
	}
}

// merge runs the merging protocol for one reconnect; tokens[i] is the
// checkout token of members[i].
//
//tiermerge:locks(none)
func (cs *clusterSet) merge(mobileID string, tokens []Checkout, hm *history.Augmented) (*ConnectOutcome, error) {
	home := cs.members[0]
	seq := home.mergeSeq.Add(1)
	start := home.spanStart()
	out, err := cs.round(mobileID, seq, tokens, hm)
	if err == nil {
		// Force the installed forwarded updates and re-executions before
		// the mobile node treats its tentative work as saved.
		err = syncShards(cs.members)
	}
	// The fallback classification (if any), then the whole-reconnect
	// summary event.
	ev := obs.Event{Mobile: mobileID, Seq: seq, Phase: obs.PhaseMerge, Dur: sinceSpan(start)}
	if err != nil {
		ev.Err = err.Error()
		cs.emit(ev)
		return nil, err
	}
	if out.Fallback != FallbackNone {
		cs.emit(obs.Event{Mobile: mobileID, Seq: seq, Phase: obs.PhaseFallback, Cause: obs.Cause(out.Fallback)})
	}
	ev.Saved = out.Saved
	ev.BackedOut = len(out.BadIDs)
	ev.Reexecuted = out.Reprocessed
	ev.Failed = out.Failed
	cs.emit(ev)
	return out, nil
}

// round is the reconnect's one critical section: take every member's mutex,
// merge and install under them (roundLocked), release them. A user observer
// must never run under a mutex, so the section's events are buffered and
// delivered after unlock, behind the lock-wait span timing the acquisition.
//
//tiermerge:locks(none)
//tiermerge:blocking
func (cs *clusterSet) round(mobileID string, seq int64, tokens []Checkout, hm *history.Augmented) (*ConnectOutcome, error) {
	var buf *eventBuffer
	if cs.cfg.Observer != nil {
		buf = &eventBuffer{}
	}
	waitStart := cs.members[0].spanStart()
	lockClusters(cs.members)
	wait := sinceSpan(waitStart)
	out, err := cs.roundLocked(mobileID, seq, tokens, hm, buf)
	unlockClusters(cs.members)
	cs.emit(obs.Event{Mobile: mobileID, Seq: seq, Phase: obs.PhaseLockWait, Dur: wait})
	buf.flush(cs.cfg.Observer)
	return out, err
}

// roundLocked captures every member's part, prepares the merge against the
// combined view and installs it — or falls back to reprocessing when a
// member no longer honours its checkout token. buf (nil without an
// observer) collects the section's events. Caller holds every member's
// mutex.
//
//tiermerge:locks(shard)
//tiermerge:buffered-events
func (cs *clusterSet) roundLocked(mobileID string, seq int64, tokens []Checkout, hm *history.Augmented, buf *eventBuffer) (*ConnectOutcome, error) {
	home := cs.members[0]
	home.counters.Update(func(c *cost.Counts) { c.AdmitBatches++ })
	footprint := footprintOf(hm)
	start := home.spanStart()
	parts := make([]shardPart, len(cs.members))
	for i := range cs.members {
		var fb FallbackReason
		if parts[i], fb = cs.partLocked(i, tokens[i], footprint); fb != FallbackNone {
			return cs.fallbackLocked(hm, fb), nil
		}
	}
	view := combineParts(parts, footprint)
	buf.Observe(cs.tag(obs.Event{Mobile: mobileID, Seq: seq, Phase: obs.PhaseSnapshot, Dur: sinceSpan(start)}))
	p, err := prepareMerge(cs.cfg, view, hm, buf.bind(mobileID, seq))
	if err != nil {
		return nil, err
	}
	start = home.spanStart()
	out := cs.installLocked(mobileID, hm, p, parts)
	buf.Observe(cs.tag(obs.Event{Mobile: mobileID, Seq: seq, Phase: obs.PhaseAdmit, Dur: sinceSpan(start)}))
	return out, nil
}

// snapshot captures every member's part in its own short critical section
// (no global lock) for Preview, which merges outside the mutexes. A part
// captured later may include commits an earlier one missed; a preview is
// advisory, and combineParts orders whatever the parts hold.
//
//tiermerge:locks(none)
func (cs *clusterSet) snapshot(tokens []Checkout, footprint model.ItemSet) ([]shardPart, FallbackReason) {
	parts := make([]shardPart, len(cs.members))
	for i, b := range cs.members {
		var fb FallbackReason
		b.mu.Lock()
		parts[i], fb = cs.partLocked(i, tokens[i], footprint)
		b.mu.Unlock()
		if fb != FallbackNone {
			return nil, fb
		}
	}
	return parts, FallbackNone
}

// partLocked validates members[i]'s checkout token and captures its part.
// The only member's view is the merge's view and carries the footprint's
// posting lists; one of several is re-indexed in combined order and carries
// none. Caller holds that member's mutex.
//
//tiermerge:locks(shard)
func (cs *clusterSet) partLocked(i int, ck Checkout, footprint model.ItemSet) (shardPart, FallbackReason) {
	b := cs.members[i]
	if len(cs.members) > 1 {
		footprint = nil
	}
	snap, fb := b.snapshotLocked(ck, footprint)
	if fb != FallbackNone {
		return shardPart{}, fb
	}
	part := shardPart{idx: cs.involved[i], b: b, snap: snap}
	if len(cs.members) > 1 {
		// Only a combined view deduplicates cross-shard slices.
		part.refs = b.crossRefsLocked(snap.pos)
	}
	return part, FallbackNone
}

// combineParts turns the members' prefix snapshots into the one serial base
// view a merge prepares against. A single part's view is that view already.
// Several parts interleave: shard-local entries are item-disjoint across
// shards, so any interleaving preserving each shard's order is a legal
// serial history; cross-shard slices are deduplicated into their global
// identity (full transaction, full effect) and emitted at a position
// consistent with every involved shard — the position every slice has
// reached, which exists because cross-shard installs append to all their
// shards atomically and snapshots are taken in ascending shard order. The
// combined history is indexed transiently, in that order, and viewed whole
// with the footprint's posting lists.
func combineParts(parts []shardPart, footprint model.ItemSet) *graph.BaseView {
	if len(parts) == 1 {
		return parts[0].snap.view
	}
	type ref struct{ part, pos int }
	where := make(map[*crossTxn][]ref)
	total := 0
	for pi, p := range parts {
		total += len(p.refs)
		for i, g := range p.refs {
			if g != nil {
				where[g] = append(where[g], ref{pi, i})
			}
		}
	}
	ix := graph.NewBaseIndex(parts[0].snap.view.Deltas(), total)
	ptr := make([]int, len(parts))
	emitted := make(map[*crossTxn]bool)
	ready := func(g *crossTxn) bool {
		for _, r := range where[g] {
			if ptr[r.part] < r.pos {
				return false
			}
		}
		return true
	}
	emitCross := func(g *crossTxn) {
		ix.Append(graph.AccessOf(g.t, g.eff, ix.Deltas()))
		emitted[g] = true
	}
	for {
		progress := false
		for pi, p := range parts {
			local := p.snap.view.Accesses()
			for ptr[pi] < len(p.refs) {
				i := ptr[pi]
				g := p.refs[i]
				switch {
				case g == nil:
					ix.Append(local[i])
				case emitted[g]:
					// A sibling slice already emitted the global entry.
				case ready(g):
					emitCross(g)
				default:
					// Blocked on another shard's pointer; let it advance.
					goto nextPart
				}
				ptr[pi]++
				progress = true
			}
		nextPart:
		}
		done := true
		for pi, p := range parts {
			if ptr[pi] < len(p.refs) {
				done = false
			}
		}
		if done {
			break
		}
		if !progress {
			// Unreachable when snapshots respect the atomic cross-install
			// order; break the tie deterministically instead of spinning.
			for pi, p := range parts {
				if ptr[pi] < len(p.refs) {
					emitCross(p.refs[ptr[pi]])
					ptr[pi]++
					break
				}
			}
		}
	}
	return ix.View(0, footprint)
}

// installLocked commits a prepared merge: charge the deltas to home,
// install the forwarded updates at each member's strategy position, and
// re-execute the backed-out transactions, comparing each against its
// tentative effect for acceptance (step 6). Caller holds every member's
// mutex.
//
//tiermerge:locks(shard)
func (cs *clusterSet) installLocked(mobileID string, hm *history.Augmented, p *preparedMerge, parts []shardPart) *ConnectOutcome {
	home := cs.members[0]
	home.counters.Add(p.deltaPrepare)
	if p.insertConflict {
		return cs.fallbackLocked(hm, FallbackInsertConflict)
	}
	home.counters.Add(p.deltaCommit)
	if len(parts) > 1 {
		home.counters.Update(func(c *cost.Counts) { c.CrossShardMerges++ })
	}
	cs.installForwardedLocked(mobileID, p.rep.ForwardUpdates, p.rep.ForwardDeltas, parts)
	out := &ConnectOutcome{Merged: true, Report: p.rep, BadIDs: p.rep.BadIDs, Saved: len(p.rep.SavedIDs)}
	for _, t := range p.rep.Reexecute {
		if cs.reprocessOneLocked(t, p.effByTxn[t]) {
			out.Reprocessed++
		} else {
			out.Failed++
		}
	}
	return out
}

// installForwardedLocked installs a merge's forwarded write-back (repaired
// values plus net deltas), each member's share at its strategy position:
// always the tail under Strategy 2, the checkout position under Strategy 1.
// Updates confined to one member go through its ordinary installForwarded;
// updates spanning members become one global forwarded transaction (the
// "XU" namespace keeps its ID, and its slices' IDs, disjoint from every
// cluster's own "U<mobile>.<seq>" forward transactions) installed as
// per-shard slices sharing its identity. Caller holds every member's mutex.
//
//tiermerge:locks(shard)
func (cs *clusterSet) installForwardedLocked(mobileID string, values, deltas map[model.Item]model.Value, parts []shardPart) {
	if len(values)+len(deltas) == 0 {
		return
	}
	nUpd := make([]int, len(cs.shards)) // updates landing on each shard
	for _, src := range [2]map[model.Item]model.Value{values, deltas} {
		for it := range src {
			nUpd[cs.router.Shard(it)]++
		}
	}
	hit, sole := 0, 0
	for i, part := range parts {
		if nUpd[part.idx] > 0 {
			hit++
			sole = i
		}
	}
	insertAt := func(part shardPart) int {
		if cs.cfg.Origin == Strategy1 {
			return part.snap.pos
		}
		return len(part.b.entries)
	}
	if hit == 1 {
		parts[sole].b.installForwarded(mobileID, values, deltas, insertAt(parts[sole]))
		return
	}
	gt := &tx.Transaction{
		ID:   fmt.Sprintf("XU%s.%d", mobileID, cs.crossSeq.Add(1)),
		Type: "forwarded-updates",
		Kind: tx.Base,
		Body: forwardBody(values, deltas),
	}
	geff, err := gt.ExecInPlace(cs.gatherLocked(gt.StaticReadSet().Union(gt.StaticWriteSet())), nil)
	if err != nil {
		panic(fmt.Sprintf("replica: forwarded updates failed: %v", err))
	}
	g := &crossTxn{t: gt, eff: geff}
	for _, part := range parts {
		if n := nUpd[part.idx]; n > 0 {
			part.b.installForwardTxn(cs.sliceTxn(gt, geff, part.idx, deltas), n, insertAt(part), g)
		}
	}
}

// fallback re-executes every transaction of hm as one atomic unit under the
// members' mutexes — the reprocessing protocol, and what a reconnect
// degrades to when its checkout token no longer admits a merge.
//
//tiermerge:locks(none)
func (cs *clusterSet) fallback(hm *history.Augmented, reason FallbackReason) *ConnectOutcome {
	lockClusters(cs.members)
	out := cs.fallbackLocked(hm, reason)
	unlockClusters(cs.members)
	return out
}

// fallbackLocked is fallback's critical section. Caller holds every
// member's mutex.
//
//tiermerge:locks(shard)
func (cs *clusterSet) fallbackLocked(hm *history.Augmented, reason FallbackReason) *ConnectOutcome {
	out := &ConnectOutcome{Fallback: reason}
	if reason != FallbackNone {
		cs.members[0].counters.Update(func(c *cost.Counts) { c.MergeFallbacks++ })
	}
	for i := 0; i < hm.H.Len(); i++ {
		if cs.reprocessOneLocked(hm.H.Txn(i), hm.Effects[i]) {
			out.Reprocessed++
		} else {
			out.Failed++
		}
	}
	return out
}

// memberAt returns the member with shard index k, or nil when shard k is
// outside the set.
func (cs *clusterSet) memberAt(k int) *BaseCluster {
	for i, inv := range cs.involved {
		if inv == k {
			return cs.members[i]
		}
	}
	return nil
}

// execMember picks where a re-executed transaction with the given static
// footprint runs: the member owning the footprint (home when it names
// none), or nil when it spans members and the transaction must install as
// slices. Items the router places outside the set are ignored — their
// shards' mutexes are not held — exactly as an unsharded base ignores
// routing.
func (cs *clusterSet) execMember(static model.ItemSet) *BaseCluster {
	var sole *BaseCluster
	for it := range static {
		b := cs.memberAt(cs.router.Shard(it))
		if b == nil || b == sole {
			continue
		}
		if sole != nil {
			return nil
		}
		sole = b
	}
	if sole == nil {
		return cs.members[0]
	}
	return sole
}

// reprocessOneLocked re-executes one tentative transaction as a base
// transaction: transform, execute on master data, validate against the
// acceptance criterion, commit, charge costs, and report the result back to
// the mobile user. A transaction local to one member executes on that
// member's master and commits there; one spanning members executes over a
// scratch state gathered from their masters and commits as restricted
// slices sharing one global identity (home takes its charges; the per-shard
// forced writes land on each shard). Failed re-executions — the transaction
// is not defined on the current master state, or its base outcome violates
// the acceptance criterion — are reported, not committed. tentEff is the
// transaction's effect on the mobile replica (nil when unknown), which the
// acceptance criterion compares against. Caller holds every member's mutex.
//
//tiermerge:locks(shard)
func (cs *clusterSet) reprocessOneLocked(t *tx.Transaction, tentEff *tx.Effect) bool {
	static := t.StaticReadSet().Union(t.StaticWriteSet())
	local := cs.execMember(static)
	charged := local
	if local == nil {
		charged = cs.members[0]
	}
	w := cs.cfg.Weights
	// Code + arguments travel mobile -> base; the result travels back.
	charged.counters.Msg(w, int64(t.StmtCount())*w.CodeBytesPerStmt+int64(t.ParamCount())*w.ArgBytes)
	charged.counters.Msg(w, w.ResultBytes)
	base := &tx.Transaction{
		ID:          t.ID + "@base",
		Type:        t.Type,
		Kind:        tx.Base,
		Params:      t.Params,
		Body:        t.Body,
		InverseBody: t.InverseBody,
	}
	var scratch model.State
	if local != nil {
		scratch = local.master.Clone()
	} else {
		scratch = cs.gatherLocked(static)
	}
	eff, err := base.ExecInPlace(scratch, nil)
	charged.counters.Update(func(c *cost.Counts) {
		c.BaseTransforms++
		c.BaseQueries += int64(base.StmtCount())
		c.BaseLocks += int64(len(static))
		c.TxnsReprocessed++
		c.MobileReports++
	})
	if err != nil {
		return false
	}
	if cs.cfg.Acceptance != nil && tentEff != nil {
		if err := cs.cfg.Acceptance(t, tentEff, eff); err != nil {
			return false
		}
	}
	if local != nil {
		local.commitReprocessed(base, eff, scratch)
	} else {
		cs.installSlicesLocked(base, eff)
	}
	return true
}

// preview computes the merge report a connect would produce right now —
// precedence graph, back-out set, saved set, forwarded updates — without
// committing anything or charging costs.
//
//tiermerge:locks(none)
func (cs *clusterSet) preview(tokens []Checkout, hm *history.Augmented) (*merge.Report, error) {
	// Validate and snapshot under the mutexes, then merge outside them — the
	// same indexed path a reconnect's prepare takes: the views stay valid
	// after release (see snapshotLocked), and the merge is the heavy step —
	// running it locked would stall admissions and invoke any configured
	// MergeOptions.Observer under a mutex.
	footprint := footprintOf(hm)
	parts, fb := cs.snapshot(tokens, footprint)
	switch fb {
	case FallbackNone:
	case FallbackWindowExpired:
		return nil, fmt.Errorf("preview: %w: everything would be reprocessed", ErrWindowExpired)
	default:
		return nil, fmt.Errorf("preview: %w: everything would be reprocessed", ErrOriginInvalid)
	}
	rep, _, err := merge.MergeIndexed(hm, combineParts(parts, footprint), cs.cfg.MergeOptions)
	return rep, err
}

// reprocess runs the original two-tier protocol for one reconnect: every
// tentative transaction is shipped to the base tier and re-executed.
//
//tiermerge:locks(none)
func (cs *clusterSet) reprocess(hm *history.Augmented) *ConnectOutcome {
	start := cs.members[0].spanStart()
	out := cs.fallback(hm, FallbackNone)
	if err := syncShards(cs.members); err != nil {
		panic(fmt.Sprintf("replica: base journal failed: %v", err))
	}
	cs.emit(obs.Event{
		Phase:      obs.PhaseReprocess,
		Dur:        sinceSpan(start),
		Reexecuted: out.Reprocessed,
		Failed:     out.Failed,
	})
	return out
}
