package replica

import (
	"fmt"
	"sync"
	"time"

	"tiermerge/internal/expr"
	"tiermerge/internal/fault"
	"tiermerge/internal/merge"
	"tiermerge/internal/tx"
)

// txDivByItem builds the update expression x := x + x/w, which fails when
// item w is zero — used to exercise failed re-executions.
func txDivByItem() expr.Expr {
	return expr.Add(expr.Var("x"), expr.Div(expr.Var("x"), expr.Var("w")))
}

// reportOutcome renders every outcome-bearing field of a merge report, for
// comparing two merges that must have decided identically.
func reportOutcome(rep *merge.Report) string {
	reexec := make([]string, len(rep.Reexecute))
	for i, t := range rep.Reexecute {
		reexec[i] = t.ID
	}
	return fmt.Sprintf("conflict=%v bad=%v affected=%v saved=%v reexecute=%v forward=%v deltas=%v folded=%d state=%s",
		rep.Conflict, rep.BadIDs, rep.AffectedIDs, rep.SavedIDs, reexec,
		rep.ForwardUpdates, rep.ForwardDeltas, rep.DeltaFolded, rep.RepairedState)
}

// gatedSync is a fault.SyncWriter whose next Sync after hold parks until
// released: a commit stalled in its fsync.
type gatedSync struct {
	*fault.SyncWriter
	mu              sync.Mutex
	parked, release chan struct{}
}

// hold arms the gate: the next Sync closes parked and waits for release,
// which may be called more than once.
func (g *gatedSync) hold() (parked <-chan struct{}, release func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.parked, g.release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	rel := g.release
	return g.parked, func() { once.Do(func() { close(rel) }) }
}

func (g *gatedSync) Sync() error {
	g.mu.Lock()
	parked, release := g.parked, g.release
	g.parked = nil
	g.mu.Unlock()
	if parked != nil {
		close(parked)
		<-release
	}
	return g.SyncWriter.Sync()
}

// execWithin runs one base transaction and reports an error when it has
// not returned after d — a commit waiting on another commit's fsync.
func execWithin(b BaseTier, t *tx.Transaction, d time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- b.ExecBase(t) }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		return fmt.Errorf("%s still waiting after %v: it waits on the parked commit's fsync", t.ID, d)
	}
}
