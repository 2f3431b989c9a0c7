// Package store is the base tier's storage engine. The paper's correctness
// argument leans on base transactions being durable (Section 2.1), and its
// Strategy 1 needs the base state at past history positions. This package
// supplies the engine every replica.BaseCluster writes through — its one
// representation of per-position base state:
//
//   - versioned values: every item carries a chain of versions stamped with
//     the (windowID, pos) base-history coordinate that wrote them, ordered
//     lexicographically. A read resolves against a watermark — the newest
//     version at or below (window, pos) — so the base state at any history
//     position of any window is reconstructible without per-position state
//     clones (the SplinterDB transaction_data_config shape: versions merged
//     at the storage layer).
//   - snapshots: SnapshotAt pins a watermark and registers it with the
//     engine; checkpoint compaction never drops a version a live snapshot
//     can still resolve (retain-until-released). Release the snapshot to
//     let compaction advance.
//   - checkpointing: Checkpoint(window, pos) compacts every chain to the
//     newest version at or below the floor, discarding history no snapshot
//     can reach.
//
// Two engines implement it: Memory (chains only — what NewBaseCluster
// uses) and Disk (chains plus a segmented durable log: an atomically
// rotated checkpoint file and a live tail the base journal appends to, see
// disk.go — what OpenBase uses).
package store

import (
	"sort"
	"sync"

	"tiermerge/internal/model"
	"tiermerge/internal/obs"
)

// Engine is the storage seam replica.BaseCluster writes through. All chain
// operations (Get, Set, InsertAt, SnapshotAt, Checkpoint, Stats) are
// memory-only and safe to call while the cluster mutex is held; only
// Close — and the Disk engine's file operations — touch stable media.
type Engine interface {
	// Get returns the newest committed value of it.
	Get(it model.Item) (model.Value, bool)
	// Set records writes as versions stamped (window, pos). Writing the
	// same coordinate twice overwrites (recovery replays are idempotent).
	Set(window, pos int, writes map[model.Item]model.Value)
	// InsertAt makes room at (window, pos): every version of window at a
	// position >= pos moves up one, then writes lands at (window, pos) —
	// the Strategy 1 interior insert. Reads between the insert position and
	// the tail see the inserted values exactly when no later version
	// overwrites them, which the merge protocol's insert-conflict check
	// guarantees.
	InsertAt(window, pos int, writes map[model.Item]model.Value)
	// SnapshotAt pins the base state at watermark (window, pos). The
	// snapshot stays readable — and blocks compaction past its watermark —
	// until released.
	SnapshotAt(window, pos int) *Snapshot
	// Checkpoint compacts every chain to the newest version at or below
	// floor (window, pos), clamped by the oldest live snapshot.
	Checkpoint(window, pos int) CheckpointStats
	// Stats reports chain and snapshot occupancy.
	Stats() Stats
	// Close releases the engine's resources, flushing buffered log bytes
	// to stable media on durable engines.
	Close() error
}

// version is one value of an item's chain, stamped with the base-history
// coordinate that wrote it.
type version struct {
	window, pos int
	value       model.Value
}

// before reports strict (window, pos) lexicographic order.
func (v version) before(window, pos int) bool {
	return v.window < window || (v.window == window && v.pos < pos)
}

// atOrBefore reports v <= (window, pos).
func (v version) atOrBefore(window, pos int) bool {
	return v.window < window || (v.window == window && v.pos <= pos)
}

// Stats is an engine occupancy report.
type Stats struct {
	// Items is the number of distinct items with at least one version.
	Items int
	// Versions is the total version count across all chains — the figure
	// the soak test bounds across windows.
	Versions int
	// Snapshots is the number of live (unreleased) snapshots.
	Snapshots int
}

// CheckpointStats reports one chain compaction.
type CheckpointStats struct {
	// Compacted is the number of versions dropped.
	Compacted int
	// FloorWindow/FloorPos is the effective floor after clamping to the
	// oldest live snapshot.
	FloorWindow, FloorPos int
}

// Option configures an engine.
type Option func(*table)

// WithRegistry attaches an obs metrics registry; the engine maintains the
// tiermerge_store_* series on it.
func WithRegistry(reg *obs.Registry) Option {
	return func(t *table) {
		if reg == nil {
			return
		}
		t.mVersions = reg.Gauge("tiermerge_store_versions")
		t.mSnapshots = reg.Gauge("tiermerge_store_snapshots_open")
		t.mCheckpoints = reg.Counter("tiermerge_store_checkpoints_total")
		t.mCompacted = reg.Counter("tiermerge_store_versions_compacted_total")
	}
}

// table is the version-chain core shared by the Memory and Disk engines.
// Its mutex orders chain mutations against snapshot reads; it is only ever
// acquired after the cluster mutex (never the reverse), and no operation
// under it blocks.
type table struct {
	mu       sync.RWMutex
	chains   map[model.Item][]version
	snaps    map[*Snapshot]struct{}
	versions int

	mVersions, mSnapshots    *obs.Gauge
	mCheckpoints, mCompacted *obs.Counter
}

func (t *table) init(opts []Option) {
	t.chains = make(map[model.Item][]version)
	t.snaps = make(map[*Snapshot]struct{})
	for _, o := range opts {
		o(t)
	}
}

// Get returns the newest committed value of it.
//
//tiermerge:nonblocking
func (t *table) Get(it model.Item) (model.Value, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ch := t.chains[it]
	if len(ch) == 0 {
		return 0, false
	}
	return ch[len(ch)-1].value, true
}

// Set records writes as versions stamped (window, pos).
//
//tiermerge:nonblocking
func (t *table) Set(window, pos int, writes map[model.Item]model.Value) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for it, v := range writes {
		t.setOne(it, window, pos, v)
	}
	t.gaugeVersionsLocked()
}

func (t *table) setOne(it model.Item, window, pos int, v model.Value) {
	ch := t.chains[it]
	// Find the insertion point; the common case appends at the tail.
	i := sort.Search(len(ch), func(i int) bool { return !ch[i].before(window, pos) })
	if i < len(ch) && ch[i].window == window && ch[i].pos == pos {
		ch[i].value = v // idempotent re-write of the same coordinate
		return
	}
	ch = append(ch, version{})
	copy(ch[i+1:], ch[i:])
	ch[i] = version{window: window, pos: pos, value: v}
	t.chains[it] = ch
	t.versions++
}

// InsertAt shifts every version of window at position >= pos up one, then
// records writes at (window, pos).
//
//tiermerge:nonblocking
func (t *table) InsertAt(window, pos int, writes map[model.Item]model.Value) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for it, ch := range t.chains {
		changed := false
		for i := range ch {
			if ch[i].window == window && ch[i].pos >= pos {
				ch[i].pos++
				changed = true
			}
		}
		if changed {
			t.chains[it] = ch
		}
	}
	for it, v := range writes {
		t.setOne(it, window, pos, v)
	}
	t.gaugeVersionsLocked()
}

// SnapshotAt pins the base state at watermark (window, pos).
//
//tiermerge:nonblocking
func (t *table) SnapshotAt(window, pos int) *Snapshot {
	s := &Snapshot{t: t, window: window, pos: pos}
	t.mu.Lock()
	t.snaps[s] = struct{}{}
	if t.mSnapshots != nil {
		t.mSnapshots.Set(int64(len(t.snaps)))
	}
	t.mu.Unlock()
	return s
}

// Checkpoint compacts every chain to the newest version at or below the
// floor, clamped to the oldest live snapshot's watermark.
//
//tiermerge:nonblocking
func (t *table) Checkpoint(window, pos int) CheckpointStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	for s := range t.snaps {
		if (version{window: s.window, pos: s.pos}).before(window, pos) {
			window, pos = s.window, s.pos
		}
	}
	st := CheckpointStats{FloorWindow: window, FloorPos: pos}
	for it, ch := range t.chains {
		// keep = index of the newest version <= floor: everything before it
		// is unreachable from any allowed watermark.
		keep := sort.Search(len(ch), func(i int) bool { return !ch[i].atOrBefore(window, pos) }) - 1
		if keep <= 0 {
			continue
		}
		st.Compacted += keep
		t.chains[it] = append(ch[:0:0], ch[keep:]...)
	}
	t.versions -= st.Compacted
	if t.mCheckpoints != nil {
		t.mCheckpoints.Inc()
		t.mCompacted.Add(int64(st.Compacted))
	}
	t.gaugeVersionsLocked()
	return st
}

// Stats reports chain and snapshot occupancy.
//
//tiermerge:nonblocking
func (t *table) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return Stats{Items: len(t.chains), Versions: t.versions, Snapshots: len(t.snaps)}
}

func (t *table) gaugeVersionsLocked() {
	if t.mVersions != nil {
		t.mVersions.Set(int64(t.versions))
	}
}

// release unregisters a snapshot.
func (t *table) release(s *Snapshot) {
	t.mu.Lock()
	delete(t.snaps, s)
	if t.mSnapshots != nil {
		t.mSnapshots.Set(int64(len(t.snaps)))
	}
	t.mu.Unlock()
}

// Snapshot is a pinned read view of the base state at one (window, pos)
// watermark. Reads are safe concurrently with chain mutations; the
// watermark's versions survive compaction until Release.
type Snapshot struct {
	t           *table
	window, pos int
	once        sync.Once
}

// Window returns the snapshot's watermark window.
func (s *Snapshot) Window() int { return s.window }

// Pos returns the snapshot's watermark position.
func (s *Snapshot) Pos() int { return s.pos }

// Get resolves it at the snapshot watermark.
//
//tiermerge:nonblocking
func (s *Snapshot) Get(it model.Item) (model.Value, bool) {
	s.t.mu.RLock()
	defer s.t.mu.RUnlock()
	return resolve(s.t.chains[it], s.window, s.pos)
}

// State materializes the full base state at the snapshot watermark.
//
//tiermerge:nonblocking
func (s *Snapshot) State() model.State {
	s.t.mu.RLock()
	defer s.t.mu.RUnlock()
	st := make(model.State, len(s.t.chains))
	for it, ch := range s.t.chains {
		if v, ok := resolve(ch, s.window, s.pos); ok {
			st[it] = v
		}
	}
	return st
}

// Release unpins the snapshot, letting checkpoint compaction advance past
// its watermark. Safe to call more than once.
func (s *Snapshot) Release() {
	s.once.Do(func() { s.t.release(s) })
}

// resolve returns the newest version of ch at or below (window, pos).
func resolve(ch []version, window, pos int) (model.Value, bool) {
	i := sort.Search(len(ch), func(i int) bool { return !ch[i].atOrBefore(window, pos) })
	if i == 0 {
		return 0, false
	}
	return ch[i-1].value, true
}

// Memory is the chains-only engine: versioned per-window state, no
// durability.
type Memory struct {
	table
}

// NewMemory builds an in-memory engine.
func NewMemory(opts ...Option) *Memory {
	m := &Memory{}
	m.table.init(opts)
	return m
}

// Close is a no-op: the memory engine holds no durable resources.
func (m *Memory) Close() error { return nil }
