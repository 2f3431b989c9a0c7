package replica

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"sync"
	"sync/atomic"

	"tiermerge/internal/cost"
	"tiermerge/internal/expr"
	"tiermerge/internal/graph"
	"tiermerge/internal/history"
	"tiermerge/internal/merge"
	"tiermerge/internal/model"
	"tiermerge/internal/obs"
	"tiermerge/internal/store"

	"tiermerge/internal/tx"
	"tiermerge/internal/wal"
)

// ErrNotBase is returned when a tentative transaction is submitted through
// the base-transaction interface.
var ErrNotBase = errors.New("replica: transaction is not a base transaction")

// baseEntry is one committed position of the base history within the
// current time window.
type baseEntry struct {
	t   *tx.Transaction
	eff *tx.Effect
	// global, when non-nil, links a per-shard slice of a cross-shard
	// transaction to its global identity (shard.go). The slice's t/eff are
	// restricted to this shard's items, which hides the transaction's
	// conflicts on other shards; a combined base view deduplicates sibling
	// slices through this pointer and sees one transaction with the full
	// footprint. Merges therefore view every shard while the window holds
	// such an entry (ShardedBase.set).
	global *crossTxn
}

// crossTxn is the global identity of one cross-shard installed transaction:
// its full access over every involved shard, delta classification included,
// computed once at install (partition.newCross) so no merge recomputes it.
// Sibling baseEntry slices on different shards share one *crossTxn, so
// pointer identity deduplicates them when shards' histories are combined.
type crossTxn struct {
	acc graph.Access
}

// BaseCluster is the base tier: the master copy of every item, the
// serializable base history of the current time window (its mutex
// serializes every commit), and the merge/reprocess endpoints mobile nodes
// connect to.
type BaseCluster struct {
	mu  sync.Mutex
	cfg Config

	master   model.State
	windowID int
	// windowOrigin is the master as of the window's start. It is never
	// mutated: AdvanceWindow and recovery replace the map, so a reader that
	// took it under b.mu may keep reading it after unlocking (Checkpoint,
	// the server's checkout frame).
	windowOrigin model.State
	entries      []baseEntry

	// structVer is bumped whenever the committed prefix of the current
	// window changes shape other than by appending — interior inserts
	// (Strategy 1) and window advances — and rebuilds the prefix cache.
	structVer int64
	// prefix caches the indexed base history of the current window so
	// merges stop parsing it from scratch (see windowPrefix).
	prefix prefixCache
	// scratch holds the graph phase's transient arrays — the merge view's
	// posting map, the build's layout and edge buffer, the cycle pass — for
	// the merges this cluster is home to (clusterSet.members[0]), which run
	// their whole prepare under b.mu. Each merge resets what it reads, and
	// nothing a report, an outcome, the log or Hm holds points into it.
	// PreviewMerge, which merges outside the mutex, never uses it.
	scratch graph.Scratch

	counters cost.Counters
	seq      int
	journal  *wal.Writer

	// ckptGate serializes Checkpoint calls (a one-slot semaphore, held
	// across the boundary capture and the rotation file I/O — deliberately
	// a channel, not a mutex, because it brackets blocking work and b.mu
	// acquisition). Overlapping checkpoints would interleave their
	// BeginRotate/ResetSeq boundary splits and flush records committed
	// between the two captures into a generation the first rotation
	// deletes — losing acknowledged commits. Nil without a durable store.
	ckptGate chan struct{}

	// disk is the durable segment log the journal writes through and
	// Checkpoint rotates (OpenBase); nil for an in-memory cluster. Set at
	// construction and immutable afterwards.
	disk *store.Disk

	// mergeSeq numbers reconnect merges; every observer event of one merge
	// carries the same sequence number so tracers can group them.
	mergeSeq atomic.Int64

	// solo is the one-shard partition over this cluster alone: the item
	// map its reconnects run against (see set). Set at construction.
	solo *partition
}

// emit delivers one event to the configured observer. It must never be
// called while b.mu is held: observers run arbitrary user code, and the
// lock-discipline contract forbids blocking work under the cluster mutex
// (TestEventsOutsideLock checks every emitting path). Locked sections
// gather the numbers; callers emit after unlocking.
func (b *BaseCluster) emit(ev obs.Event) {
	if o := b.cfg.Observer; o != nil {
		o.Observe(ev)
	}
}

// spanStart opens a timing span: it reads the clock only when an observer
// is configured, so the nil-observer fast path pays a single nil check and
// no syscalls.
func (b *BaseCluster) spanStart() time.Time {
	if b.cfg.Observer == nil {
		return time.Time{}
	}
	return time.Now()
}

// sinceSpan closes a span opened by spanStart.
func sinceSpan(start time.Time) time.Duration {
	if start.IsZero() {
		return 0
	}
	return time.Since(start)
}

// prefixCache holds the current window's base history indexed for merging
// (graph.BaseIndex): everything G(Hm, Hb) is built from, parsed once per
// committed entry instead of once per reconnect. The index is append-only
// between structVer bumps, so snapshots hand out capped views that stay
// valid and race-free while it keeps growing behind them.
type prefixCache struct {
	windowID  int
	structVer int64
	index     *graph.BaseIndex
}

// NewBaseCluster builds an in-memory base cluster over the initial master
// state. It panics when cfg fails (Config).Validate — misconfiguration is
// a programming error, caught at construction instead of surfacing
// mid-merge. Callers assembling configurations from user input should
// Validate first.
func NewBaseCluster(initial model.State, cfg Config) *BaseCluster {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("replica: NewBaseCluster: %v", err))
	}
	return newBaseCluster(initial, cfg, nil)
}

// newBaseCluster builds a cluster over a validated cfg, journaling through
// disk when it is non-nil — OpenBase passes the durable engine it recovers
// from.
func newBaseCluster(initial model.State, cfg Config, disk *store.Disk) *BaseCluster {
	b := &BaseCluster{
		cfg:          cfg.withDefaults(),
		master:       initial.Clone(),
		windowID:     1,
		windowOrigin: initial.Clone(),
		disk:         disk,
	}
	if disk != nil {
		b.ckptGate = make(chan struct{}, 1)
	}
	b.solo = &partition{router: newShardRouter(1, nil), shards: []*BaseCluster{b}}
	return b
}

// set forms the one-member cluster set every reconnect against this cluster
// runs through (clusterset.go).
func (b *BaseCluster) set() *clusterSet {
	return b.solo.set(b.cfg, []int{0})
}

// Counters exposes the cluster's cost counters.
func (b *BaseCluster) Counters() *cost.Counters { return &b.counters }

// Weights returns the active cost weights.
func (b *BaseCluster) Weights() cost.Weights { return b.cfg.Weights }

// Master returns a copy of the current master state.
func (b *BaseCluster) Master() model.State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.master.Clone()
}

// WindowID returns the current time-window identifier.
func (b *BaseCluster) WindowID() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.windowID
}

// HistoryLen returns the number of base transactions committed in the
// current window.
func (b *BaseCluster) HistoryLen() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.entries)
}

// AdvanceWindow starts a new time window: the current master state becomes
// the shared origin for every tentative history begun in the window
// (Section 2.2's periodic resynchronization). Mobile nodes still carrying
// tentative work from an earlier window will fall back to reprocessing when
// they connect.
func (b *BaseCluster) AdvanceWindow() int {
	b.mu.Lock()
	b.windowID++
	b.windowOrigin = b.master.Clone()
	b.entries = nil
	b.structVer++
	// The prefix cache describes the closed window: drop it rather than
	// retain that window's transactions until the next merge.
	b.prefix = prefixCache{}
	err := b.logWindow()
	id := b.windowID
	b.mu.Unlock()
	if err == nil {
		// Force the window record before anyone acts on the new window.
		err = b.syncJournal()
	}
	if err != nil {
		panic(fmt.Sprintf("replica: base journal failed: %v", err))
	}
	return id
}

// syncJournal forces the base journal to stable media; every path that
// acknowledges a commit or a window advance calls it after releasing b.mu
// (the flush blocks on file I/O, which must never run under the cluster
// mutex). An in-memory sink makes it a no-op.
func (b *BaseCluster) syncJournal() error {
	b.mu.Lock()
	j := b.journal
	b.mu.Unlock()
	if j == nil {
		return nil
	}
	if err := j.Sync(); err != nil {
		return fmt.Errorf("replica: journal sync: %w", err)
	}
	return nil
}

// ExecBase runs one base transaction against master data and appends it to
// the base history. It charges query, lock and forced-log costs plus lazy
// propagation to the other base replicas. See clusterSet.execBase.
func (b *BaseCluster) ExecBase(t *tx.Transaction) error {
	return b.set().execBase(t)
}

// execBaseLocked executes t in place on the master, appends it to the
// history, charges its costs and writes (but does not force) its journal
// record. Caller holds b.mu.
func (b *BaseCluster) execBaseLocked(t *tx.Transaction) error {
	eff, err := t.ExecInPlace(b.master, nil)
	if err != nil {
		return fmt.Errorf("replica: exec base %s: %w", t.ID, err)
	}
	b.entries = append(b.entries, baseEntry{t: t, eff: eff})
	b.chargeBaseExec(t, eff)
	if err := b.logCommit(t, eff); err != nil {
		return fmt.Errorf("replica: journal %s: %w", t.ID, err)
	}
	return nil
}

// chargeBaseExec records the execution costs of one base transaction.
// Caller holds b.mu.
func (b *BaseCluster) chargeBaseExec(t *tx.Transaction, eff *tx.Effect) {
	nStmts := int64(t.StmtCount())
	nLocks := int64(len(eff.Items)) // one lock per item read or written
	b.counters.Update(func(c *cost.Counts) {
		c.BaseQueries += nStmts
		c.BaseLocks += nLocks
		c.BaseForcedWrites++
	})
	b.chargePropagation(eff)
}

// chargePropagation charges the lazy master's propagation of one commit
// to the other BaseNodes-1 base replicas (Section 7.1): one message per
// replica carrying the commit's write images. Caller holds b.mu.
func (b *BaseCluster) chargePropagation(eff *tx.Effect) {
	if b.cfg.BaseNodes <= 1 {
		return
	}
	var writes int64
	for _, r := range eff.Items {
		if r.Written {
			writes++
		}
	}
	if writes == 0 {
		return
	}
	w := b.cfg.Weights
	for range b.cfg.BaseNodes - 1 {
		b.counters.Msg(w, writes*w.UpdateEntryBytes)
	}
}

// windowPrefix returns the index of the current window's base history,
// extending it with the entries committed since the last call, or rebuilding
// it when the window advanced or the prefix changed shape (an interior
// insert bumps structVer; the rebuild gives fresh backing arrays, so views
// of the old arrangement stay intact). Caller holds b.mu, and must capture
// its view (BaseIndex.View) before releasing it.
func (b *BaseCluster) windowPrefix() *graph.BaseIndex {
	n := len(b.entries)
	c := &b.prefix
	if c.index == nil || c.windowID != b.windowID || c.structVer != b.structVer || c.index.Len() > n {
		*c = prefixCache{
			windowID:  b.windowID,
			structVer: b.structVer,
			index:     graph.NewBaseIndex(!b.cfg.MergeOptions.DisableDeltas, n+8),
		}
	}
	for _, e := range b.entries[c.index.Len():] {
		c.index.Append(graph.AccessOf(e.t, e.eff, c.index.Deltas()))
	}
	return c.index
}

// crossRefsLocked copies the cross-shard identities of entries[pos:],
// parallel to the accesses of a view captured from pos (nil elements for
// shard-local entries) — only the suffix a combined index has not consumed
// yet. The copy stays valid after the lock is released. Caller holds b.mu.
func (b *BaseCluster) crossRefsLocked(pos int) []*crossTxn {
	out := make([]*crossTxn, len(b.entries)-pos)
	for i := pos; i < len(b.entries); i++ {
		out[i-pos] = b.entries[i].global
	}
	return out
}

// forwardTxn builds the synthetic base transaction that installs a merge's
// forwarded write-back. Its read set equals its write set — the saved
// tentative transactions read every item they wrote (no blind writes
// against the shared origin) — so later merges detect conflicts with it
// exactly as with any other base transaction.
func (b *BaseCluster) forwardTxn(mobileID string, values, deltas map[model.Item]model.Value) *tx.Transaction {
	b.seq++
	t := &tx.Transaction{
		ID:   fmt.Sprintf("U%s.%d", mobileID, b.seq),
		Type: "forwarded-updates",
		Kind: tx.Base,
		Body: forwardBody(values, deltas),
	}
	return t
}

// forwardBody builds the statement list of a forwarded-updates transaction
// in sorted item order: constant updates installing repaired values,
// additive updates (x := x + δ) installing net increments. The additive
// statements are pure deltas by construction, so the installed base entry
// is delta-pure on those items and later delta merges elide their conflict
// edges against it instead of retrying.
func forwardBody(values, deltas map[model.Item]model.Value) []tx.Stmt {
	items := make([]model.Item, 0, len(values)+len(deltas))
	for it := range values {
		items = append(items, it)
	}
	for it := range deltas {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	body := make([]tx.Stmt, len(items))
	for i, it := range items {
		if v, ok := values[it]; ok {
			body[i] = tx.Update(it, expr.Const(v))
		} else {
			body[i] = tx.Update(it, expr.Add(expr.Var(it), expr.Const(deltas[it])))
		}
	}
	return body
}

// commitReprocessed commits one re-executed tentative transaction (see
// clusterSet.reprocessOneLocked): its writes land on the master and it joins
// the base history with one forced log write. Caller holds b.mu.
func (b *BaseCluster) commitReprocessed(base *tx.Transaction, eff *tx.Effect) {
	eff.Apply(b.master)
	b.counters.Update(func(c *cost.Counts) { c.BaseForcedWrites++ })
	b.entries = append(b.entries, baseEntry{t: base, eff: eff})
	b.chargePropagation(eff)
	if err := b.logCommit(base, eff); err != nil {
		panic(fmt.Sprintf("replica: base journal failed: %v", err))
	}
}

// Merge runs the merging protocol for a connected mobile node. It validates
// the checkout token (window and, under Strategy 1, origin position),
// executes the merge, installs forwarded updates, re-executes backed-out
// transactions, and charges every Section 7.1 cost component.
//
// The whole reconnect runs in one critical section under the cluster
// mutex; the prepare reads only the base entries that can lie on a cycle
// through Hm, so its cost follows Hm, not the window. See clusterset.go for
// the steps.
func (b *BaseCluster) Merge(ck Checkout, hm *history.Augmented) (*ConnectOutcome, error) {
	return b.set().merge(ck.MobileID, []Checkout{ck}, hm)
}

// installForwarded installs the forwarded write-back at the given history
// position (always the tail under Strategy 2; possibly earlier under
// Strategy 1, after the conflict check). Caller holds b.mu.
func (b *BaseCluster) installForwarded(mobileID string, values, deltas map[model.Item]model.Value, at int) {
	if len(values)+len(deltas) == 0 {
		return
	}
	b.installForwardTxn(b.forwardTxn(mobileID, values, deltas), len(values)+len(deltas), at, nil)
}

// installForwardTxn is installForwarded over an already-built forwarded
// transaction of nUpd update statements, stamping g (may be nil) as its
// cross-shard identity — the sharded coordinator builds per-shard slice
// transactions itself so their IDs share the global transaction's
// namespace. The transaction executes on the master wherever its entry
// lands: an interior insert passed the insert-conflict check, so no entry
// after the insert position touches the forwarded items and their values
// there equal the live ones — additive (delta) statements included. Caller
// holds b.mu.
func (b *BaseCluster) installForwardTxn(ft *tx.Transaction, nUpd int, at int, g *crossTxn) {
	eff, err := ft.ExecInPlace(b.master, nil)
	if err != nil {
		// Constant and additive updates cannot fail; a failure is a
		// programming error.
		panic(fmt.Sprintf("replica: forwarded updates failed: %v", err))
	}
	entry := baseEntry{t: ft, eff: eff, global: g}
	if at >= len(b.entries) {
		b.entries = append(b.entries, entry)
	} else {
		b.entries = append(b.entries, baseEntry{})
		copy(b.entries[at+1:], b.entries[at:])
		b.entries[at] = entry
		// The prefix changed shape in the middle: rebuild the cache built
		// over the old arrangement.
		b.structVer++
	}
	b.counters.Update(func(c *cost.Counts) {
		c.BaseApplies += int64(nUpd)
		c.BaseLocks += int64(nUpd)
		c.BaseForcedWrites++
	})
	b.chargePropagation(eff)
	// The journal is value-ordered, not position-ordered: replaying an
	// interior insert last still lands on the same master state, by the same
	// insert-conflict guarantee.
	if err := b.logCommit(ft, eff); err != nil {
		panic(fmt.Sprintf("replica: base journal failed: %v", err))
	}
}

// Reprocess runs the original two-tier protocol for a connected mobile
// node: every tentative transaction is shipped to the base tier and
// re-executed.
func (b *BaseCluster) Reprocess(hm *history.Augmented) *ConnectOutcome {
	return b.set().reprocess(hm)
}

// Checkout is the token a mobile node receives when it synchronizes its
// replica before disconnecting.
type Checkout struct {
	MobileID string
	WindowID int
	// Pos is the base-history position of the snapshot (Strategy 1 only).
	Pos int
	// Origin is the snapshot the tentative history starts from; a token
	// that crossed the wire carries only Hm's footprint of it.
	Origin model.State
	// Shards carries the per-shard checkout tokens when the checkout came
	// from a sharded base tier (ShardedBase.CheckoutReplica); nil for a
	// plain cluster checkout. All entries agree on WindowID (the window
	// barrier guarantees it), and Origin is their union.
	Shards []Checkout
}

// CheckoutReplica hands a mobile node its origin snapshot: the window
// origin under Strategy 2, the live master state under Strategy 1. The
// download is charged to the communication budget.
func (b *BaseCluster) CheckoutReplica(mobileID string) Checkout {
	return b.checkout(mobileID, false)
}

// checkout is CheckoutReplica; shared hands out a Strategy 2 window origin
// itself instead of a copy, for a caller that only reads it.
func (b *BaseCluster) checkout(mobileID string, shared bool) Checkout {
	start := b.spanStart()
	b.mu.Lock()
	w := b.cfg.Weights
	ck := Checkout{MobileID: mobileID, WindowID: b.windowID}
	switch {
	case b.cfg.Origin == Strategy1:
		ck.Pos = len(b.entries)
		ck.Origin = b.master.Clone()
	case shared:
		ck.Origin = b.windowOrigin
	default:
		ck.Origin = b.windowOrigin.Clone()
	}
	b.counters.Msg(w, int64(len(ck.Origin))*w.UpdateEntryBytes)
	b.mu.Unlock()
	b.emit(obs.Event{Mobile: mobileID, Phase: obs.PhaseCheckout, Dur: sinceSpan(start)})
	return ck
}

// Preview computes the merge report a connect would produce right now —
// precedence graph, back-out set, saved set, forwarded updates — without
// committing anything or charging costs. Mobile users call it to see what a
// reconnect would cost them before going online ("what will I lose?").
func (b *BaseCluster) Preview(ck Checkout, hm *history.Augmented) (*merge.Report, error) {
	return b.set().preview([]Checkout{ck}, hm)
}
