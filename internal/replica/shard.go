package replica

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"tiermerge/internal/cost"
	"tiermerge/internal/expr"
	"tiermerge/internal/graph"
	"tiermerge/internal/history"
	"tiermerge/internal/merge"
	"tiermerge/internal/model"
	"tiermerge/internal/obs"
	"tiermerge/internal/tx"
)

// Sharded base tier. A single BaseCluster funnels every merge through one
// cluster mutex — the scalability ceiling E16 measures. ShardedBase
// partitions the item space across N BaseCluster shards, each with its own
// mutex, window clock, base history, WAL journal and cost counters. A
// reconnect runs against a set of shards (clusterset.go) and prepares and
// installs under all of their mutexes at once (DESIGN.md §11).
//
// Cross-shard installed transactions are stored per shard as restricted
// slices (this shard's reads and writes only) sharing one *crossTxn
// identity, which the combined view of several shards deduplicates into the
// whole transaction. A restricted slice hides the conflicts its transaction
// has on other shards, and a cycle through Hm can leave Hm's shards through
// one cross-shard entry and return through another: with Hm = {T: b3 :=
// b3 + b} on shard 1 and base entries X: a := 2; b := 20 then Y: c := a +
// b3 spanning shards 0 and 1, shard 1's slices show T -> X and Y -> T but
// not X -> Y, which only the item a on shard 0 carries. So a merge or a
// base commit spans the shards its footprint touches only while the window
// holds no cross-shard entry and no window advance is sweeping the shards,
// and every shard otherwise (ShardedBase.set, clusterSet.lock); an
// advisory preview checks the entry count only. Without cross-shard entries
// every base entry lies in one shard, every conflict path between Hm's
// vertices stays inside one of Hm's shards, and the footprint's shards see
// all of them. The footprint is static — every item Hm's transactions name
// on any branch — because a transaction re-executed at the base may take a
// branch its tentative run skipped.

// ShardRouter maps items to shards: an explicit Config.ShardFn when one is
// configured, FNV-1a hashing of the item name otherwise.
type ShardRouter struct {
	n  int
	fn func(model.Item) int
}

func newShardRouter(n int, fn func(model.Item) int) ShardRouter {
	return ShardRouter{n: n, fn: fn}
}

// Shards returns the shard count.
func (r ShardRouter) Shards() int { return r.n }

// Shard returns the shard owning item it.
func (r ShardRouter) Shard(it model.Item) int {
	if r.fn != nil {
		k := r.fn(it) % r.n
		if k < 0 {
			k += r.n
		}
		return k
	}
	h := uint32(2166136261)
	for i := 0; i < len(it); i++ {
		h ^= uint32(it[i])
		h *= 16777619
	}
	return int(h % uint32(r.n))
}

// shardsOf returns the sorted distinct shards owning items.
func (r ShardRouter) shardsOf(items []model.Item) []int {
	hit := make([]bool, r.n)
	for _, it := range items {
		hit[r.Shard(it)] = true
	}
	var out []int
	for k, h := range hit {
		if h {
			out = append(out, k)
		}
	}
	return out
}

// partition is a base tier's item map: its clusters in shard order and the
// router assigning every item to exactly one of them. A plain BaseCluster
// is the one-shard partition over itself (BaseCluster.solo).
type partition struct {
	router ShardRouter
	shards []*BaseCluster

	// crossSeq numbers forwarded-update transactions spanning shards; the
	// "XU" namespace keeps their IDs disjoint from every shard's own
	// "U<mobile>.<seq>" forward transactions.
	crossSeq atomic.Int64
	// crossEntries counts the cross-shard transactions installed in the
	// current window, each incremented under every involved shard's mutex.
	// The window barrier resets it before any shard advances, so it may
	// overcount the window (a stale count only widens merges); the closing
	// window's entries it stops counting during the sweep are covered by
	// windowVer.
	crossEntries atomic.Int64
	// windowVer is the window barrier: a seqlock-style version counter,
	// odd while an advance is sweeping the shards. Checkouts and window
	// reads retry around in-progress advances, so a checkout never
	// observes shard A in the new window and shard B still in the old one
	// (the mixed-window prefix AdvanceWindow's doc warns about), and a set
	// locked mid-sweep widens (clusterSet.lock): the count was reset
	// before the shards' windows closed. A mutex cannot play this role:
	// the per-shard calls the barrier spans are locks(none) operations,
	// which the lock discipline forbids under a held mutex.
	windowVer atomic.Int64

	// combined is kept across merges; read and written only under every
	// shard's mutex.
	combined combinedIndex
}

// newCross counts one more cross-shard transaction in the window and
// returns its global identity. Caller holds every involved shard's mutex.
func (s *partition) newCross(t *tx.Transaction, eff *tx.Effect) *crossTxn {
	s.crossEntries.Add(1)
	return &crossTxn{acc: graph.AccessOf(t, eff, !s.shards[0].cfg.MergeOptions.DisableDeltas)}
}

// ShardedBase coordinates N BaseCluster shards behind the BaseCluster
// connect surface (CheckoutReplica / Merge / Reprocess / Preview /
// ExecBase / AdvanceWindow). With one shard every call delegates straight
// to the underlying cluster — the N=1 configuration is byte-for-byte a
// plain BaseCluster.
//
// Invariant: the per-shard window clocks advance only through
// ShardedBase.AdvanceWindow (the window barrier); calling AdvanceWindow on
// an individual shard of a multi-shard tier breaks the all-shards-agree
// window invariant checkouts rely on.
type ShardedBase struct {
	cfg Config
	partition
}

// NewShardedBase builds a sharded base tier over the initial master state,
// partitioned across shards clusters by cfg.ShardFn (or the default hash
// router). It panics when cfg fails validation or shards < 1, like
// NewBaseCluster.
func NewShardedBase(initial model.State, shards int, cfg Config) *ShardedBase {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("replica: NewShardedBase: %v", err))
	}
	if shards < 1 {
		panic(fmt.Sprintf("replica: NewShardedBase: %d shards (want >= 1)", shards))
	}
	cfg = cfg.withDefaults()
	s := &ShardedBase{cfg: cfg, partition: partition{router: newShardRouter(shards, cfg.ShardFn)}}
	s.shards = make([]*BaseCluster, shards)
	if shards == 1 {
		// Byte-for-byte the unsharded behavior: no observer wrapping, no
		// partitioning.
		s.shards[0] = NewBaseCluster(initial, cfg)
		return s
	}
	parts := make([]model.State, shards)
	for k := range parts {
		parts[k] = model.NewState()
	}
	for it, v := range initial {
		parts[s.router.Shard(it)].Set(it, v)
	}
	for k := range s.shards {
		scfg := cfg
		scfg.Observer = shardObserver(cfg.Observer, k+1)
		s.shards[k] = NewBaseCluster(parts[k], scfg)
	}
	return s
}

// OpenShardedBase opens (or recovers) a durable sharded base tier rooted
// at dir: shard k's segment log lives under dir/shard-<k>. Each shard
// recovers independently through OpenBase; the per-shard recoveries are
// returned in shard order. Shard counts must match across restarts — the
// router's partition is part of the on-disk contract.
func OpenShardedBase(dir string, initial model.State, shards int, cfg Config) (*ShardedBase, []*Recovery, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, fmt.Errorf("replica: open sharded base: %w", err)
	}
	if shards < 1 {
		return nil, nil, fmt.Errorf("%w: %d shards (want >= 1)", ErrBadConfig, shards)
	}
	cfg = cfg.withDefaults()
	s := &ShardedBase{cfg: cfg, partition: partition{router: newShardRouter(shards, cfg.ShardFn)}}
	s.shards = make([]*BaseCluster, shards)
	parts := make([]model.State, shards)
	for k := range parts {
		parts[k] = model.NewState()
	}
	for it, v := range initial {
		parts[s.router.Shard(it)].Set(it, v)
	}
	if shards == 1 {
		parts[0] = initial
	}
	recs := make([]*Recovery, shards)
	for k := range s.shards {
		scfg := cfg
		if shards > 1 {
			scfg.Observer = shardObserver(cfg.Observer, k+1)
		}
		b, rec, err := OpenBase(filepath.Join(dir, fmt.Sprintf("shard-%d", k)), parts[k], scfg)
		if err != nil {
			for _, prev := range s.shards[:k] {
				prev.CloseStore()
			}
			return nil, nil, fmt.Errorf("replica: open sharded base: shard %d: %w", k, err)
		}
		s.shards[k] = b
		recs[k] = rec
	}
	if shards > 1 {
		s.closeRecoveredWindow()
	}
	return s, recs, nil
}

// closeRecoveredWindow moves every shard to the highest recovered window,
// or one past it when that window holds entries. Replay restores a
// cross-shard transaction as unlinked slices, which no merge could
// recombine, so a recovered window with entries must not admit merges;
// mobiles still holding its tokens fall back to reprocessing. Caller owns
// the tier exclusively (construction), so the per-shard advances need no
// barrier.
func (s *ShardedBase) closeRecoveredWindow() {
	target := 0
	for _, b := range s.shards {
		target = max(target, b.WindowID())
	}
	for _, b := range s.shards {
		if b.WindowID() == target && b.HistoryLen() > 0 {
			target++
			break
		}
	}
	for _, b := range s.shards {
		for b.WindowID() < target {
			b.AdvanceWindow()
		}
	}
}

// Checkpoint rotates every shard's segment log (see BaseCluster.Checkpoint).
func (s *ShardedBase) Checkpoint() error {
	for k, b := range s.shards {
		if err := b.Checkpoint(); err != nil {
			return fmt.Errorf("replica: checkpoint shard %d: %w", k, err)
		}
	}
	return nil
}

// CloseStore closes every shard's storage engine.
func (s *ShardedBase) CloseStore() error {
	var first error
	for _, b := range s.shards {
		if err := b.CloseStore(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// shardObserver stamps every event a shard emits with its 1-based shard
// index before forwarding to the user observer.
func shardObserver(o obs.Observer, shard int) obs.Observer {
	if o == nil {
		return nil
	}
	return obs.ObserverFunc(func(ev obs.Event) {
		if ev.Shard == 0 {
			ev.Shard = shard
		}
		o.Observe(ev)
	})
}

// Shards returns the shard count.
func (s *ShardedBase) Shards() int { return len(s.shards) }

// Shard returns shard k for inspection (counters, debug dumps, admission
// gates in tests). Do not call AdvanceWindow on it directly — windows
// advance through the sharded tier's barrier.
func (s *ShardedBase) Shard(k int) *BaseCluster { return s.shards[k] }

// ShardOf returns the shard index owning item it.
func (s *ShardedBase) ShardOf(it model.Item) int { return s.router.Shard(it) }

// Router returns the tier's item router.
func (s *ShardedBase) Router() ShardRouter { return s.router }

// Weights returns the active cost weights.
func (s *ShardedBase) Weights() cost.Weights { return s.cfg.Weights }

// Counters returns the aggregated counter snapshot across every shard.
// Per-shard counters are available through Shard(k).Counters().
func (s *ShardedBase) Counters() cost.Counts {
	var total cost.Counts
	for _, b := range s.shards {
		total.Add(b.Counters().Snapshot())
	}
	return total
}

// Master returns a copy of the combined master state across every shard.
func (s *ShardedBase) Master() model.State {
	out := model.NewState()
	for _, b := range s.shards {
		for it, v := range b.Master() {
			out.Set(it, v)
		}
	}
	return out
}

// emit delivers one coordination-path event to the user observer (shard
// events go through the per-shard wrapped observers instead).
func (s *ShardedBase) emit(ev obs.Event) {
	if o := s.cfg.Observer; o != nil {
		o.Observe(ev)
	}
}

// spanStart mirrors BaseCluster.spanStart for the coordination path.
func (s *ShardedBase) spanStart() time.Time {
	if s.cfg.Observer == nil {
		return time.Time{}
	}
	return time.Now()
}

// WindowID returns the current global window identifier, retrying around
// in-progress advances.
func (s *ShardedBase) WindowID() int {
	if len(s.shards) == 1 {
		return s.shards[0].WindowID()
	}
	for {
		v := s.windowVer.Load()
		if v&1 == 1 {
			runtime.Gosched()
			continue
		}
		id := s.shards[0].WindowID()
		if s.windowVer.Load() == v {
			return id
		}
	}
}

// AdvanceWindow starts a new time window on every shard behind the window
// barrier: concurrent checkouts either complete before the sweep or after
// it, never straddling shards in different windows. Concurrent advancers
// serialize on the barrier's version CAS.
func (s *ShardedBase) AdvanceWindow() int {
	if len(s.shards) == 1 {
		return s.shards[0].AdvanceWindow()
	}
	for {
		v := s.windowVer.Load()
		if v&1 == 1 {
			runtime.Gosched()
			continue
		}
		if s.windowVer.CompareAndSwap(v, v+1) {
			break
		}
	}
	s.crossEntries.Store(0)
	var id int
	for _, b := range s.shards {
		id = b.AdvanceWindow()
	}
	s.windowVer.Add(1)
	return id
}

// CheckoutReplica hands a mobile node its origin snapshot across every
// shard: per-shard checkout tokens (Checkout.Shards) plus the combined
// origin state. The barrier read retries if a window advance raced the
// multi-shard sweep, so the returned tokens always agree on one window.
// Under Strategy 1 origins are live masters, and the sweep also retries
// when crossEntries moved: a cross-shard install counts itself and appends
// under every involved mutex, so a sweep that saw it on some shards only
// read the counter on both sides of it. The origin is then a real cut.
func (s *ShardedBase) CheckoutReplica(mobileID string) Checkout {
	return s.checkout(mobileID, false)
}

// checkout is CheckoutReplica; shared hands out the shards' Strategy 2
// window origins themselves and leaves the union unbuilt (Origin nil), for
// a caller that only reads them (see unionOrigin).
func (s *ShardedBase) checkout(mobileID string, shared bool) Checkout {
	if len(s.shards) == 1 {
		return s.shards[0].checkout(mobileID, shared)
	}
	for {
		v := s.windowVer.Load()
		if v&1 == 1 {
			runtime.Gosched()
			continue
		}
		cross := s.crossEntries.Load()
		parts := make([]Checkout, len(s.shards))
		for k, b := range s.shards {
			parts[k] = b.checkout(mobileID, shared)
		}
		if s.windowVer.Load() != v || (s.cfg.Origin == Strategy1 && s.crossEntries.Load() != cross) {
			continue
		}
		ck := Checkout{MobileID: mobileID, WindowID: parts[0].WindowID, Shards: parts}
		if !shared {
			ck.Origin = unionOrigin(parts)
		}
		return ck
	}
}

// unionOrigin is the origin of a sharded checkout: the union of its
// per-shard origins, whose items are disjoint.
func unionOrigin(parts []Checkout) model.State {
	n := 0
	for _, p := range parts {
		n += len(p.Origin)
	}
	origin := make(model.State, n)
	for _, p := range parts {
		for it, val := range p.Origin {
			origin[it] = val
		}
	}
	return origin
}

// clustersOf maps sorted shard indices to their clusters.
func (s *partition) clustersOf(involved []int) []*BaseCluster {
	bs := make([]*BaseCluster, len(involved))
	for i, k := range involved {
		bs[i] = s.shards[k]
	}
	return bs
}

// lockClusters acquires the given clusters' mutexes in ascending shard
// order — the one global acquisition order every multi-cluster path uses,
// so two reconnects (or a reconnect and a cross-shard base transaction)
// can never deadlock on shard mutexes. Callers must pass the
// clusters in that order (clustersOf over a sorted shard list).
func lockClusters(bs []*BaseCluster) {
	for _, b := range bs {
		b.mu.Lock()
	}
}

// unlockClusters releases what lockClusters acquired.
func unlockClusters(bs []*BaseCluster) {
	for i := len(bs) - 1; i >= 0; i-- {
		bs[i].mu.Unlock()
	}
}

// ExecBase runs one base transaction against the sharded tier, over the set
// of the shards its footprint touches (see clusterSet.execBase).
func (s *ShardedBase) ExecBase(t *tx.Transaction) error {
	return s.over(t.Footprint()).execBase(t)
}

// syncShards forces the journals of the given clusters to stable media —
// the set counterpart of syncJournal, called after the members' mutexes
// are released on every path that acknowledges a commit.
func syncShards(bs []*BaseCluster) error {
	for _, b := range bs {
		if err := b.syncJournal(); err != nil {
			return err
		}
	}
	return nil
}

// gatherLocked assembles a scratch state holding the current master value
// of every one of items, read from each item's owning shard. Caller holds
// every involved shard's mutex.
func (s *partition) gatherLocked(items []model.Item) model.State {
	scratch := make(model.State, len(items))
	for _, it := range items {
		scratch.Set(it, s.shards[s.router.Shard(it)].master.Get(it))
	}
	return scratch
}

// installSlicesLocked installs one executed cross-shard transaction: for
// each involved shard a restricted slice transaction — reads of this
// shard's read-only items, constant writes of this shard's written values
// — is executed on the shard master (reproducing the restricted effect
// with true before-images) and appended to its history, all slices
// sharing one *crossTxn global identity carrying the full transaction and
// effect. Each shard forces its own commit record: a cross-shard install
// pays one forced write per involved shard, the genuine durability cost
// of spanning partitions. Caller holds every involved shard's mutex.
func (s *partition) installSlicesLocked(base *tx.Transaction, eff *tx.Effect) {
	g := s.newCross(base, eff)
	touched := make([]model.Item, len(eff.Items))
	for i, r := range eff.Items {
		touched[i] = r.Item
	}
	for _, k := range s.router.shardsOf(touched) {
		b := s.shards[k]
		slice := s.sliceTxn(base, eff, k, nil)
		seff, err := slice.ExecInPlace(b.master, nil)
		if err != nil {
			// Slices are reads plus constant writes; failure is a
			// programming error.
			panic(fmt.Sprintf("replica: cross-shard slice %s: %v", slice.ID, err))
		}
		b.entries = append(b.entries, baseEntry{t: slice, eff: seff, global: g})
		b.counters.Update(func(c *cost.Counts) { c.BaseForcedWrites++ })
		b.chargePropagation(seff)
		if lerr := b.logCommit(slice, seff); lerr != nil {
			panic(fmt.Sprintf("replica: base journal failed: %v", lerr))
		}
	}
}

// sliceTxn builds shard k's restricted slice of an executed cross-shard
// transaction: Read statements for the shard's read-only items and
// constant Updates writing the values the full execution produced — except
// for items of deltas (may be nil), which become additive updates
// (x := x + δ) so the installed slice stays delta-pure on them and later
// delta merges elide their conflict edges against it. The slice's effect
// equals the full effect restricted to the shard.
func (s *partition) sliceTxn(base *tx.Transaction, eff *tx.Effect, k int, deltas map[model.Item]model.Value) *tx.Transaction {
	var body []tx.Stmt
	for _, r := range eff.Items {
		if !r.Written && s.router.Shard(r.Item) == k {
			body = append(body, tx.Read(r.Item))
		}
	}
	for _, r := range eff.Items {
		if it := r.Item; r.Written && s.router.Shard(it) == k {
			if d, ok := deltas[it]; ok {
				body = append(body, tx.Update(it, expr.Add(expr.Var(it), expr.Const(d))))
			} else {
				body = append(body, tx.Update(it, expr.Const(r.Value)))
			}
		}
	}
	return &tx.Transaction{
		ID:   fmt.Sprintf("%s@s%d", base.ID, k),
		Type: base.Type,
		Kind: tx.Base,
		Body: body,
	}
}

// set forms the cluster set a reconnect carrying hm runs against — or, for a
// merge or preview (viewing) while the window holds a cross-shard entry,
// every shard (see the file comment). The set holds the shards of every
// item hm's transactions name on any branch (shard 0 for an empty history),
// not only of those their tentative runs touched: a re-execution at the
// base may take another branch, and it must find the items it reaches
// under the set's mutexes.
func (s *ShardedBase) set(hm *history.Augmented, viewing bool) *clusterSet {
	if viewing && s.crossEntries.Load() > 0 {
		return s.every(s.cfg)
	}
	n := 0
	for i := 0; i < hm.H.Len(); i++ {
		n += len(hm.H.Txn(i).Footprint())
	}
	static := make([]model.Item, 0, n)
	for i := 0; i < hm.H.Len(); i++ {
		static = append(static, hm.H.Txn(i).Footprint()...)
	}
	return s.over(static)
}

// over forms the cluster set over the shards owning the items of a static
// footprint, repeats allowed (shard 0 for an empty one).
func (s *ShardedBase) over(static []model.Item) *clusterSet {
	involved := s.router.shardsOf(static)
	if len(involved) == 0 {
		involved = []int{0}
	}
	return s.partition.set(s.cfg, involved)
}

// shardTokens returns the per-shard checkout tokens of ck, in shard order.
func (s *ShardedBase) shardTokens(ck Checkout) ([]Checkout, error) {
	if ck.Shards == nil {
		return s.wireTokens(ck).Shards, nil
	}
	if len(ck.Shards) != len(s.shards) {
		return nil, fmt.Errorf("%w: checkout carries %d shard tokens, tier has %d shards",
			ErrBadConfig, len(ck.Shards), len(s.shards))
	}
	return ck.Shards, nil
}

// Merge runs the merging protocol against the sharded tier, over the set of
// shards the history's footprint touches (every shard while the window holds
// a cross-shard entry).
func (s *ShardedBase) Merge(ck Checkout, hm *history.Augmented) (*ConnectOutcome, error) {
	if len(s.shards) == 1 {
		return s.shards[0].Merge(ck, hm)
	}
	tokens, err := s.shardTokens(ck)
	if err != nil {
		return nil, err
	}
	return s.set(hm, true).merge(ck.MobileID, tokens, hm)
}

// wireTokens synthesizes the per-shard tokens of a checkout that crossed
// the wire (the reconnect journal carries only the combined token): its
// origin, Hm's footprint of the real one, is partitioned by the router, and
// each shard checks its part; window and position are copied.
// Under Strategy 1 the copied position is validated per shard and a stale
// one degrades that merge to reprocessing — correct, if conservative;
// sharded Strategy 1 workloads should reconnect through the in-process
// API, which keeps the real tokens.
func (s *ShardedBase) wireTokens(ck Checkout) Checkout {
	parts := make([]Checkout, len(s.shards))
	for k := range parts {
		parts[k] = Checkout{
			MobileID: ck.MobileID,
			WindowID: ck.WindowID,
			Pos:      ck.Pos,
			Origin:   model.NewState(),
		}
	}
	for it, v := range ck.Origin {
		parts[s.router.Shard(it)].Origin.Set(it, v)
	}
	ck.Shards = parts
	return ck
}

// Preview reports what a merge would do right now without committing
// anything, like BaseCluster.Preview.
func (s *ShardedBase) Preview(ck Checkout, hm *history.Augmented) (*merge.Report, error) {
	if len(s.shards) == 1 {
		return s.shards[0].Preview(ck, hm)
	}
	tokens, err := s.shardTokens(ck)
	if err != nil {
		return nil, err
	}
	return s.set(hm, true).preview(tokens, hm)
}

// Reprocess runs the original two-tier protocol against the sharded tier,
// re-executing each tentative transaction on its shard (or across shards).
func (s *ShardedBase) Reprocess(hm *history.Augmented) *ConnectOutcome {
	if len(s.shards) == 1 {
		return s.shards[0].Reprocess(hm)
	}
	return s.set(hm, false).reprocess(hm)
}

// WritePrometheus renders the aggregated cost counters plus per-shard
// series labeled by shard index.
func (s *ShardedBase) WritePrometheus(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	total := s.Counters()
	total.Each(func(name string, v int64) {
		family := "tiermerge_cost_" + name + "_total"
		p("# TYPE %s counter\n%s %d\n", family, family, v)
	})
	rep := total.Weighted(s.cfg.Weights)
	p("# TYPE tiermerge_cost_units gauge\n")
	p("%s %d\n", obs.Label("tiermerge_cost_units", "component", "comm"), rep.Comm)
	p("%s %d\n", obs.Label("tiermerge_cost_units", "component", "base"), rep.BaseCompute)
	p("%s %d\n", obs.Label("tiermerge_cost_units", "component", "mobile"), rep.MobileCompute)
	p("# TYPE tiermerge_window_id gauge\ntiermerge_window_id %d\n", s.WindowID())
	p("# TYPE tiermerge_shards gauge\ntiermerge_shards %d\n", len(s.shards))
	p("# TYPE tiermerge_shard_history_len gauge\n")
	for k, b := range s.shards {
		p("%s %d\n", obs.Label("tiermerge_shard_history_len", "shard", fmt.Sprintf("%d", k+1)), b.HistoryLen())
	}
	p("# TYPE tiermerge_shard_merges_total counter\n")
	for k, b := range s.shards {
		c := b.Counters().Snapshot()
		p("%s %d\n", obs.Label("tiermerge_shard_merges_total", "shard", fmt.Sprintf("%d", k+1)), c.MergesPerformed)
	}
	if err != nil {
		return err
	}
	if reg := obs.RegistryOf(s.cfg.Observer); reg != nil {
		return reg.Snapshot().WritePrometheus(w)
	}
	return nil
}
