// Package lockmgr implements a strict two-phase lock manager with shared
// and exclusive modes and wait-for-graph deadlock detection. The base tier
// uses it to give base transactions ACID serializability on master data
// ("base transactions work only on master data since lazy master
// replication where reads go to the master gives ACID serializability",
// Section 2.1).
package lockmgr

import (
	"errors"
	"sync"

	"tiermerge/internal/model"
)

// ErrDeadlock is returned to a requester chosen as the deadlock victim; the
// caller must release its locks and retry or abort.
var ErrDeadlock = errors.New("lockmgr: deadlock victim")

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	Shared Mode = iota + 1
	Exclusive
)

func (m Mode) String() string {
	switch m {
	case Shared:
		return "S"
	case Exclusive:
		return "X"
	default:
		return "?"
	}
}

// compatible reports whether a new request of mode m can join holders all
// in mode have.
func compatible(have, m Mode) bool { return have == Shared && m == Shared }

// waiter is a queued lock request.
type waiter struct {
	owner string
	mode  Mode
	ready chan error
}

// lockState tracks one item's holders and queue.
type lockState struct {
	holders map[string]Mode
	queue   []*waiter
}

// Manager is the lock manager. The zero value is not usable; call New.
type Manager struct {
	mu    sync.Mutex
	locks map[model.Item]*lockState
	// held[owner] = items currently held, for release-all.
	held map[string]map[model.Item]struct{}
	// waitItem[owner] = the item the owner is currently blocked on.
	// Deadlock detection derives wait-for edges from this plus the live
	// lock table, so edges can never go stale.
	waitItem map[string]model.Item

	// AcquireCount counts granted acquisitions, for the cost model.
	acquires int64
}

// New returns an empty lock manager.
func New() *Manager {
	return &Manager{
		locks:    make(map[model.Item]*lockState),
		held:     make(map[string]map[model.Item]struct{}),
		waitItem: make(map[string]model.Item),
	}
}

// Acquire obtains the lock on item in the given mode for owner, blocking
// until granted. Re-acquiring a held item is a no-op when the held mode
// covers the request; a shared-to-exclusive upgrade is granted when owner is
// the only holder and queues otherwise. Returns ErrDeadlock if granting
// would close a wait-for cycle (the requester is the victim and holds its
// previous locks; the caller decides whether to release).
func (m *Manager) Acquire(owner string, item model.Item, mode Mode) error {
	m.mu.Lock()
	ls := m.locks[item]
	if ls == nil {
		ls = &lockState{holders: make(map[string]Mode)}
		m.locks[item] = ls
	}
	if have, ok := ls.holders[owner]; ok {
		if have == Exclusive || mode == Shared {
			m.mu.Unlock()
			return nil // already covered
		}
		// Upgrade: allowed immediately only as sole holder.
		if len(ls.holders) == 1 {
			ls.holders[owner] = Exclusive
			m.acquires++
			m.mu.Unlock()
			return nil
		}
	}
	if m.grantable(ls, owner, mode) {
		m.grant(ls, owner, item, mode)
		m.mu.Unlock()
		return nil
	}
	// Must wait: record what the owner waits on and check for a cycle in
	// the live wait-for graph.
	m.waitItem[owner] = item
	if m.cycleFrom(owner) {
		delete(m.waitItem, owner)
		m.mu.Unlock()
		return ErrDeadlock
	}
	w := &waiter{owner: owner, mode: mode, ready: make(chan error, 1)}
	ls.queue = append(ls.queue, w)
	m.mu.Unlock()
	return <-w.ready
}

// grantable reports whether owner's request is compatible with current
// holders (ignoring queue order for the head request; callers queue FIFO).
func (m *Manager) grantable(ls *lockState, owner string, mode Mode) bool {
	if len(ls.queue) > 0 {
		return false // FIFO fairness: queued requests go first
	}
	for h, hm := range ls.holders {
		if h == owner {
			continue
		}
		if !compatible(hm, mode) || mode == Exclusive {
			return false
		}
	}
	return true
}

func (m *Manager) grant(ls *lockState, owner string, item model.Item, mode Mode) {
	if have, ok := ls.holders[owner]; !ok || mode == Exclusive && have == Shared {
		ls.holders[owner] = mode
	}
	if m.held[owner] == nil {
		m.held[owner] = make(map[model.Item]struct{})
	}
	m.held[owner][item] = struct{}{}
	delete(m.waitItem, owner)
	m.acquires++
}

// ReleaseAll releases every lock owner holds (strict 2PL release at
// commit/abort) and wakes compatible queued waiters.
func (m *Manager) ReleaseAll(owner string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	items := m.held[owner]
	delete(m.held, owner)
	delete(m.waitItem, owner)
	for it := range items {
		ls := m.locks[it]
		if ls == nil {
			continue
		}
		delete(ls.holders, owner)
		m.wake(ls, it)
		if len(ls.holders) == 0 && len(ls.queue) == 0 {
			delete(m.locks, it)
		}
	}
}

// wake grants as many queued waiters as compatibility allows, in FIFO
// order. It runs under m.mu; the ready channels are buffered (capacity 1,
// one send per queued waiter ever), so the sends never park.
func (m *Manager) wake(ls *lockState, item model.Item) {
	for len(ls.queue) > 0 {
		w := ls.queue[0]
		ok := true
		for h, hm := range ls.holders {
			if h == w.owner {
				continue
			}
			if !compatible(hm, w.mode) || w.mode == Exclusive {
				ok = false
				break
			}
		}
		if !ok {
			return
		}
		ls.queue = ls.queue[1:]
		m.grant(ls, w.owner, item, w.mode)
		w.ready <- nil
	}
}

// blockersOf returns the owners currently blocking owner: the holders of
// the item it waits on plus the waiters already queued ahead of it (FIFO
// grant order). Caller holds m.mu.
func (m *Manager) blockersOf(owner string) []string {
	item, waiting := m.waitItem[owner]
	if !waiting {
		return nil
	}
	ls := m.locks[item]
	if ls == nil {
		return nil
	}
	var out []string
	for h := range ls.holders {
		if h != owner {
			out = append(out, h)
		}
	}
	for _, w := range ls.queue {
		if w.owner == owner {
			break // only waiters ahead of us block us
		}
		out = append(out, w.owner)
	}
	return out
}

// cycleFrom reports whether the live wait-for graph has a cycle through
// start. Caller holds m.mu.
func (m *Manager) cycleFrom(start string) bool {
	seen := make(map[string]bool)
	stack := m.blockersOf(start)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == start {
			return true
		}
		if seen[v] {
			continue
		}
		seen[v] = true
		stack = append(stack, m.blockersOf(v)...)
	}
	return false
}

// Acquires returns the number of granted lock acquisitions (for the cost
// model).
func (m *Manager) Acquires() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.acquires
}

// HeldBy returns the items owner currently holds, for tests.
func (m *Manager) HeldBy(owner string) []model.Item {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []model.Item
	for it := range m.held[owner] {
		out = append(out, it)
	}
	return out
}
