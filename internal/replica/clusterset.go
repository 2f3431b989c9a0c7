package replica

import (
	"fmt"
	"slices"

	"tiermerge/internal/cost"
	"tiermerge/internal/graph"
	"tiermerge/internal/history"
	"tiermerge/internal/merge"
	"tiermerge/internal/model"
	"tiermerge/internal/obs"
	"tiermerge/internal/tx"
)

// The one merge path. A reconnect runs against a set of clusters — one for an
// unsharded base or a shard-local merge, several for a cross-shard merge —
// and every set size runs the same routine, one critical section over the
// members (DESIGN.md §7, §11):
//
//  1. take the member mutexes in ascending shard order (lock, which widens
//     a partial set to every shard when the window holds a cross-shard
//     entry or a window advance is sweeping the shards);
//  2. validate each member's checkout token and capture its part — the
//     indexed base history with the posting lists of Hm's footprint; one
//     member's view is the merge's view, several interleave into one
//     combined index (combinedIndex), which the partition keeps across the
//     merges that hold every shard's mutex and extends with only the
//     entries committed since the last one (viewLocked);
//  3. prepare: graph build over the base entries that can lie on a cycle
//     through Hm, back-out, the O(n²) rewrite, pruning (pipeline.go), with
//     its sub-phase events buffered;
//  4. install the forwarded updates and re-execute the backed-out
//     transactions across the members — or fall back to reprocessing on a
//     token the base no longer honours or a Strategy 1 insert conflict;
//  5. write each member's installs as one commit record of its journal,
//     unlock, deliver the buffered events, and force the members' journals
//     before acknowledging.
//
// Nothing commits between capture and install, so a prepared merge needs no
// revalidation and never retries. A base transaction takes the same shape
// (execBase): lock, execute, write the commit records, unlock, force the
// members' journals. One global
// lock order — cluster mutexes ascending, with nothing under a mutex ever
// waiting on anything — keeps merges, base transactions and each other
// deadlock-free.

// clusterSet is the set of clusters one reconnect involves: an ordered
// subset of a partition's clusters plus the partition's item router. A
// BaseCluster forms the one-member set over itself; a ShardedBase forms the
// set of the shards a history's footprint touches, or of every shard.
// Everything a reconnect does — merge, preview, reprocess — is a method of
// the set, so the unsharded base is simply the set of size one.
type clusterSet struct {
	*partition
	// cfg is the forming tier's configuration.
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

// every forms the cluster set over all the partition's shards.
func (s *partition) every(cfg Config) *clusterSet {
	involved := make([]int, len(s.shards))
	for k := range involved {
		involved[k] = k
	}
	return s.set(cfg, involved)
}

// lock takes the members' mutexes (lockClusters) and returns the set it
// holds them for. A partial set that finds a cross-shard entry in the
// window once its mutexes are held — installed since the set was formed —
// releases them and takes every shard's instead: that entry may close a
// cycle its members cannot see, and a commit that read it must force every
// journal holding one of its slices. It widens too while the window barrier
// sweeps (windowVer odd), because the barrier zeroes crossEntries before it
// closes any shard's window. crossEntries is read first: a zero the barrier
// wrote is then followed by an odd version, since the sweep cannot finish
// while a member's mutex is held. The full set never widens, so neither
// does this more than once. An entry installed after the check needs one of
// the held mutexes to touch the members, so it follows the reconnect.
func (cs *clusterSet) lock() *clusterSet {
	lockClusters(cs.members)
	if len(cs.members) == len(cs.shards) || (cs.crossEntries.Load() == 0 && cs.windowVer.Load()&1 == 0) {
		return cs
	}
	unlockClusters(cs.members)
	all := cs.every(cs.cfg)
	lockClusters(all.members)
	return all
}

// observer is the sink of the set's events: a shard's stamping observer
// when that shard is the only member, the tier's own otherwise.
func (cs *clusterSet) observer() obs.Observer {
	if len(cs.members) == 1 {
		return cs.members[0].cfg.Observer
	}
	return cs.cfg.Observer
}

// shardPart is one member's share of a reconnect: its prefix snapshot and,
// when the set has several members, the cross-shard identities parallel to
// the snapshot's entries that the combined index has not consumed yet.
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
	if o := cs.observer(); o != nil {
		o.Observe(cs.tag(ev))
	}
}

// merge runs the merging protocol for one reconnect; tokens[k] is the
// checkout token of shard k.
func (cs *clusterSet) merge(mobileID string, tokens []Checkout, hm *history.Augmented) (*ConnectOutcome, error) {
	seq := cs.members[0].mergeSeq.Add(1)
	start := cs.members[0].spanStart()
	cs, out, err := cs.round(mobileID, seq, tokens, hm)
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
// merge and install under them (roundLocked), release them. It returns the
// set it ran over, which lock may have widened. A user observer must never
// run under a mutex, so the section's events are buffered and delivered
// after unlock, behind the lock-wait span timing the acquisition.
func (cs *clusterSet) round(mobileID string, seq int64, tokens []Checkout, hm *history.Augmented) (*clusterSet, *ConnectOutcome, error) {
	var buf *eventBuffer
	if cs.cfg.Observer != nil {
		buf = &eventBuffer{}
	}
	waitStart := cs.members[0].spanStart()
	cs = cs.lock()
	wait := sinceSpan(waitStart)
	out, err := cs.roundLocked(mobileID, seq, tokens, hm, buf)
	if cerr := cs.commitLocked(); err == nil {
		err = cerr
	}
	unlockClusters(cs.members)
	cs.emit(obs.Event{Mobile: mobileID, Seq: seq, Phase: obs.PhaseLockWait, Dur: wait})
	buf.flush(cs.observer())
	return cs, out, err
}

// roundLocked captures every member's part, prepares the merge against the
// combined view and installs it — or falls back to reprocessing when a
// member no longer honours its checkout token. buf (nil without an
// observer) collects the section's events. Caller holds every member's
// mutex.
func (cs *clusterSet) roundLocked(mobileID string, seq int64, tokens []Checkout, hm *history.Augmented, buf *eventBuffer) (*ConnectOutcome, error) {
	home := cs.members[0]
	home.counters.Update(func(c *cost.Counts) { c.AdmitBatches++ })
	footprint := footprintOf(hm)
	start := home.spanStart()
	parts := make([]shardPart, len(cs.members))
	for i := range cs.members {
		var fb FallbackReason
		if parts[i], fb = cs.partLocked(i, tokens[cs.involved[i]], footprint, &home.scratch); fb != FallbackNone {
			return cs.fallbackLocked(hm, fb), nil
		}
	}
	view := cs.viewLocked(parts, footprint, &home.scratch)
	buf.Observe(cs.tag(obs.Event{Mobile: mobileID, Seq: seq, Phase: obs.PhaseSnapshot, Dur: sinceSpan(start)}))
	p, err := prepareMerge(cs.cfg, view, hm, &home.scratch, buf.bind(mobileID, seq))
	if err != nil {
		return nil, err
	}
	start = home.spanStart()
	out := cs.installLocked(mobileID, hm, p, parts)
	buf.Observe(cs.tag(obs.Event{Mobile: mobileID, Seq: seq, Phase: obs.PhaseAdmit, Dur: sinceSpan(start)}))
	return out, nil
}

// commitLocked writes each member's staged commits as one commit record of
// its journal (BaseCluster.commitJournal), so whatever the critical section
// installed reaches each log whole, or torn and not at all. It returns the
// first journal write failure. Caller holds every member's mutex.
func (cs *clusterSet) commitLocked() error {
	var err error
	for _, b := range cs.members {
		if cerr := b.commitJournal(); err == nil {
			err = cerr
		}
	}
	return err
}

// snapshot captures every member's part in its own short critical section
// (no global lock) for Preview, which merges outside the mutexes. A part
// captured later may include commits an earlier one missed; a preview is
// advisory, and a fresh combined index orders whatever the parts hold.
func (cs *clusterSet) snapshot(tokens []Checkout, footprint model.ItemSet) ([]shardPart, FallbackReason) {
	parts := make([]shardPart, len(cs.members))
	for i, b := range cs.members {
		var fb FallbackReason
		b.mu.Lock()
		parts[i], fb = cs.partLocked(i, tokens[cs.involved[i]], footprint, nil)
		if fb == FallbackNone && len(parts) > 1 {
			parts[i].refs = b.crossRefsLocked(parts[i].snap.pos)
		}
		b.mu.Unlock()
		if fb != FallbackNone {
			return nil, fb
		}
	}
	return parts, FallbackNone
}

// partLocked validates members[i]'s checkout token and captures its part.
// The only member's view is the merge's view, with the posting lists of
// footprint held in s (nil: fresh); one of several is indexed in combined
// order and captures none. Caller holds that member's mutex.
func (cs *clusterSet) partLocked(i int, ck Checkout, footprint model.ItemSet, s *graph.Scratch) (shardPart, FallbackReason) {
	b := cs.members[i]
	pos, fb := b.checkTokenLocked(ck, footprint)
	if fb != FallbackNone {
		return shardPart{}, fb
	}
	post := footprint
	if len(cs.members) > 1 {
		post = nil
	}
	snap := prefixSnapshot{pos: pos, view: b.windowPrefix().View(pos, post, s)}
	return shardPart{idx: cs.involved[i], b: b, snap: snap}, FallbackNone
}

// viewLocked is the base view a merge prepares against: a single part's
// view, or the parts interleaved into a combined index — the partition's
// kept one when the set holds every shard's mutex, a fresh one for a
// partial set (which exists only while the window holds no cross-shard
// entry). Only the unconsumed suffix of each member's cross-shard
// identities is copied. The posting lists of footprint are held in s.
// Caller holds every member's mutex.
func (cs *clusterSet) viewLocked(parts []shardPart, footprint model.ItemSet, s *graph.Scratch) *graph.BaseView {
	if len(parts) == 1 {
		return parts[0].snap.view
	}
	c := &combinedIndex{}
	if len(parts) == len(cs.shards) {
		c = &cs.combined
	}
	keys := make([]partKey, len(parts))
	for i, p := range parts {
		keys[i] = partKey{p.b.windowID, p.b.structVer, p.snap.pos}
	}
	if !slices.Equal(c.keys, keys) {
		c.reset(keys, parts)
	}
	for i, p := range parts {
		parts[i].refs = p.b.crossRefsLocked(p.snap.pos + c.done[i])
	}
	return c.extend(parts, footprint, s)
}

// combinedIndex is several shards' windows interleaved into one serial base
// history and indexed for merging — the partition-level counterpart of a
// cluster's prefixCache. Shard-local entries are item-disjoint across
// shards, so any interleaving preserving each shard's order is legal; a
// cross-shard transaction's slices collapse into its global identity.
//
// The partition keeps one (partition.combined), read and written only
// while every shard's mutex is held. A cross-shard install appends all its
// slices under every involved mutex, so every cross-shard transaction lies
// wholly before or wholly after the consumed counts, and interleaving the
// unconsumed suffixes after that legal prefix is still consistent with
// every shard's order: a merge extends the index instead of rebuilding it.
// A different key — window advance, Strategy 1 interior insert (structVer)
// or view start — rebuilds it over fresh arrays. Views are capped slices,
// as with windowPrefix, so they stay valid after unlock.
type combinedIndex struct {
	keys  []partKey // per part: window, structVer and view start
	done  []int     // per part: entries consumed from the view start
	index *graph.BaseIndex
}

type partKey struct {
	windowID  int
	structVer int64
	pos       int
}

// reset empties c for parts viewing the prefixes keys name: a fresh index
// is a kept one with nothing consumed.
func (c *combinedIndex) reset(keys []partKey, parts []shardPart) {
	*c = combinedIndex{keys: keys, done: make([]int, len(parts)), index: graph.NewBaseIndex(parts[0].snap.view.Deltas(), 0)}
}

// extend interleaves each part's entries past its consumed count (parallel
// to parts[i].refs) into the index, a cross-shard entry once every part
// holding one of its slices has reached it, and views the whole index with
// the footprint's posting lists, held in s (nil: fresh).
func (c *combinedIndex) extend(parts []shardPart, footprint model.ItemSet, s *graph.Scratch) *graph.BaseView {
	type ref struct{ part, pos int }
	where := make(map[*crossTxn][]ref)
	local := make([][]graph.Access, len(parts))
	for pi, p := range parts {
		local[pi] = p.snap.view.Accesses()[c.done[pi]:]
		for i, g := range p.refs {
			if g != nil {
				where[g] = append(where[g], ref{pi, i})
			}
		}
	}
	ix := c.index
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
		ix.Append(g.acc)
		emitted[g] = true
	}
	for {
		progress := false
		for pi, p := range parts {
			for ptr[pi] < len(p.refs) {
				i := ptr[pi]
				g := p.refs[i]
				switch {
				case g == nil:
					ix.Append(local[pi][i])
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
		finished := true
		for pi, p := range parts {
			if ptr[pi] < len(p.refs) {
				finished = false
			}
		}
		if finished {
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
	for pi := range parts {
		c.done[pi] += ptr[pi]
	}
	return ix.View(0, footprint, s)
}

// installLocked commits a prepared merge: charge the deltas to home,
// install the forwarded updates at each member's strategy position, and
// re-execute the backed-out transactions, comparing each against its
// tentative effect for acceptance (step 6). Caller holds every member's
// mutex.
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
	geff, err := gt.ExecInPlace(cs.gatherLocked(gt.Footprint()), nil)
	if err != nil {
		panic(fmt.Sprintf("replica: forwarded updates failed: %v", err))
	}
	g := cs.newCross(gt, geff)
	for _, part := range parts {
		if n := nUpd[part.idx]; n > 0 {
			part.b.installForwardTxn(cs.sliceTxn(gt, geff, part.idx, deltas), n, insertAt(part), g)
		}
	}
}

// fallback re-executes every transaction of hm as one atomic unit under the
// members' mutexes — the reprocessing protocol, and what a reconnect
// degrades to when its checkout token no longer admits a merge.
func (cs *clusterSet) fallback(hm *history.Augmented, reason FallbackReason) *ConnectOutcome {
	lockClusters(cs.members)
	out := cs.fallbackLocked(hm, reason)
	err := cs.commitLocked()
	unlockClusters(cs.members)
	if err != nil {
		panic(fmt.Sprintf("replica: base journal failed: %v", err))
	}
	return out
}

// fallbackLocked is fallback's critical section. Caller holds every
// member's mutex.
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

// execMember picks where a re-executed or base transaction with the given
// static footprint runs: the member owning the footprint (home when it
// names none), or nil when it spans members and the transaction must
// install as slices. The set holds the shard of every item Hm's
// transactions name on any branch (ShardedBase.set), or the base
// transaction names (ShardedBase.over), so every item has its member.
func (cs *clusterSet) execMember(static model.ItemSet) *BaseCluster {
	var sole *BaseCluster
	for it := range static {
		switch b := cs.memberAt(cs.router.Shard(it)); {
		case sole == nil:
			sole = b
		case b != sole:
			return nil
		}
	}
	if sole == nil {
		return cs.members[0]
	}
	return sole
}

// reprocessOneLocked re-executes one tentative transaction as a base
// transaction: transform, execute on master data, validate against the
// acceptance criterion, commit, charge costs, and report the result back to
// the mobile user. It executes over a scratch state gathered from the
// members' masters, holding only the items it names on any branch; one local
// to a member commits its writes to that member's master, one spanning
// members commits as restricted slices sharing one global identity (home
// takes its charges; the per-shard forced writes land on each shard). Failed
// re-executions — the transaction is not defined on the current master
// state, or its base outcome violates the acceptance criterion — are
// reported, not committed. tentEff is the transaction's effect on the mobile
// replica (nil when unknown), which the acceptance criterion compares
// against. Caller holds every member's mutex.
func (cs *clusterSet) reprocessOneLocked(t *tx.Transaction, tentEff *tx.Effect) bool {
	static := t.Footprint()
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
	eff, err := base.ExecInPlace(cs.gatherLocked(static), nil)
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
		local.commitReprocessed(base, eff)
	} else {
		cs.installSlicesLocked(base, eff)
	}
	return true
}

// execBase runs one base transaction with the shape of a reconnect's round
// and no item locks: take the members' mutexes (lock, which may widen the
// set), execute and commit (execBaseLocked), release them, then force the
// members' journals before acknowledging. The mutexes serialize execution,
// and the ack waits for every journal that can hold a commit the
// transaction read — its own shards', or every shard's while the window
// holds a cross-shard entry (DESIGN.md §14).
func (cs *clusterSet) execBase(t *tx.Transaction) error {
	if t.Kind != tx.Base {
		return fmt.Errorf("%w: %s", ErrNotBase, t.ID)
	}
	cs = cs.lock()
	err := cs.execBaseLocked(t)
	if cerr := cs.commitLocked(); err == nil {
		err = cerr
	}
	unlockClusters(cs.members)
	if err != nil {
		return err
	}
	return syncShards(cs.members)
}

// execBaseLocked executes t in place on the member owning its static
// footprint or, when the footprint spans members, over a scratch state
// gathered from their masters, installed as restricted slices; the
// footprint's lowest shard takes the query and lock charges. Caller holds
// every member's mutex.
func (cs *clusterSet) execBaseLocked(t *tx.Transaction) error {
	static := t.Footprint()
	if b := cs.execMember(static); b != nil {
		return b.execBaseLocked(t)
	}
	eff, err := t.ExecInPlace(cs.gatherLocked(static), nil)
	if err != nil {
		return fmt.Errorf("replica: exec base %s: %w", t.ID, err)
	}
	nLocks := int64(len(eff.Items)) // one lock per item read or written
	cs.shards[cs.router.shardsOf(static)[0]].counters.Update(func(c *cost.Counts) {
		c.BaseQueries += int64(t.StmtCount())
		c.BaseLocks += nLocks
	})
	cs.installSlicesLocked(t, eff)
	return nil
}

// preview computes the merge report a connect would produce right now —
// precedence graph, back-out set, saved set, forwarded updates — without
// committing anything or charging costs.
func (cs *clusterSet) preview(tokens []Checkout, hm *history.Augmented) (*merge.Report, error) {
	// Validate and snapshot under the mutexes, then merge outside them — the
	// same indexed path a reconnect's prepare takes: the views stay valid
	// after release (see checkTokenLocked), and the merge is the heavy step —
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
	view := parts[0].snap.view
	if len(parts) > 1 {
		// Parts from separate critical sections: never the kept index.
		c := &combinedIndex{}
		c.reset(nil, parts)
		view = c.extend(parts, footprint, nil)
	}
	// Outside the mutexes, so no cluster's scratch: fresh arrays.
	rep, _, err := merge.MergeIndexed(hm, view, nil, cs.cfg.MergeOptions)
	return rep, err
}

// reprocess runs the original two-tier protocol for one reconnect: every
// tentative transaction is shipped to the base tier and re-executed.
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
