// Package store is the base tier's durable log. The paper's correctness
// argument leans on base transactions being durable (Section 2.1); Disk
// (disk.go) supplies that: an atomically rotated checkpoint segment and a
// live tail the base journal appends to, which OpenBase roots a cluster in.
// The base state itself lives in replica.BaseCluster alone — the master,
// the window origin and the window's committed entries — so this package
// holds no per-position state.
//
// Memory is the benchmark probe's fixture and nothing else: it times
// materializing a base state at a history position. It is deleted together
// with the probe's copy of the lock manager (ROADMAP 2a).
package store

import (
	"sort"

	"tiermerge/internal/model"
)

// Memory is a list of writes stamped with (window, pos) base-history
// coordinates; a snapshot materializes the state at one coordinate.
type Memory struct {
	writes []stamped
}

// stamped is one Set call.
type stamped struct {
	window, pos int
	writes      map[model.Item]model.Value
}

// atOrBefore reports s <= (window, pos) in lexicographic order.
func (s stamped) atOrBefore(window, pos int) bool {
	return s.window < window || (s.window == window && s.pos <= pos)
}

// NewMemory builds an empty fixture.
func NewMemory() *Memory { return &Memory{} }

// Set records writes at (window, pos).
func (m *Memory) Set(window, pos int, writes map[model.Item]model.Value) {
	i := sort.Search(len(m.writes), func(i int) bool { return !m.writes[i].atOrBefore(window, pos) })
	m.writes = append(m.writes, stamped{})
	copy(m.writes[i+1:], m.writes[i:])
	m.writes[i] = stamped{window: window, pos: pos, writes: writes}
}

// SnapshotAt returns the view of the state at watermark (window, pos).
func (m *Memory) SnapshotAt(window, pos int) *Snapshot {
	return &Snapshot{m: m, window: window, pos: pos}
}

// Snapshot is a read view of a Memory at one (window, pos) watermark.
type Snapshot struct {
	m           *Memory
	window, pos int
}

// State materializes the state at the snapshot watermark: every write at
// or below it, applied in coordinate order.
func (s *Snapshot) State() model.State {
	st := make(model.State)
	for _, w := range s.m.writes {
		if !w.atOrBefore(s.window, s.pos) {
			break
		}
		st.Apply(w.writes)
	}
	return st
}

// Release is a no-op; it stays because the probe calls it.
func (s *Snapshot) Release() {}
