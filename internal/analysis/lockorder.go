package analysis

// LockOrder machine-checks the deadlock-freedom argument of the cluster-set
// admit (DESIGN.md §7, §11), which prose alone promised before the
// interprocedural engine existed:
//
//   - item locks before shard mutexes: the lock manager's Acquire blocks
//     (it parks on a waiter channel), so the engine's transitive-blocking
//     check forbids reaching it while any shard or cluster mutex is held —
//     every path must take item locks first, exactly as the cluster set's
//     admit and execBaseCross do;
//   - distinct mutexes of one class (the per-shard BaseCluster.mu) are
//     acquired in strictly ascending index order: a constant-index
//     acquisition at or below a held index, or an indexed acquisition
//     inside a loop that decrements the index variable, is reported (the
//     mirror image of the lockClusters helper);
//   - the same mutex is never re-locked while held (sync mutexes are not
//     reentrant), directly or through a callee's inferred summary;
//   - no //tiermerge:blocking call — and no call whose summary is
//     *inferred* to block, annotation or not — is reachable while a mutex
//     is held, transitively through any number of hops;
//   - observer events are never emitted under a mutex (Observe runs
//     arbitrary user callbacks), unless the emission is buffered through
//     an eventBuffer and the function says so with
//     //tiermerge:buffered-events;
//   - the module-wide lock-order graph derived from every acquisition
//     site must be acyclic: a cycle means two code paths order the same
//     mutex classes oppositely — a deadlock waiting for the right
//     interleaving, reported at every edge of the cycle.
//
// All the work happens in the engine (summary.go) over the full
// source-loaded package set; this analyzer emits the findings that fall
// in the package being linted.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "derives a module-wide lock-order graph from interprocedural lock-set " +
		"summaries: enforces ascending same-class (shard) mutex acquisition, forbids " +
		"re-locking a held mutex, transitively-blocking calls and observer event " +
		"emission under any mutex, and reports any cycle in the lock-order graph " +
		"(potential deadlock)",
	Run: runLockOrder,
}

func runLockOrder(pass *Pass) error {
	pass.Engine.emitFindings(pass)
	return nil
}
