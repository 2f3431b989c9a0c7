// Package clean is a fixture every analyzer accepts: the canonical lock
// and clone disciplines followed at once.
package clean

import (
	"sync"

	"tiermerge/internal/model"
)

type cluster struct {
	mu    sync.Mutex
	state model.State
}

// Merge installs updates under the cluster lock.
//
//tiermerge:locks(none)
func (c *cluster) Merge(updates map[model.Item]model.Value) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.installLocked(updates)
}

// installLocked applies updates to the master state.
//
//tiermerge:locks(cluster)
func (c *cluster) installLocked(updates map[model.Item]model.Value) {
	c.state.Apply(updates)
}

// stamp copies the frozen state before editing it.
func stamp(snap model.State, it model.Item, v model.Value) model.State {
	own := snap.Clone()
	own.Set(it, v)
	return own
}

var _ = stamp
