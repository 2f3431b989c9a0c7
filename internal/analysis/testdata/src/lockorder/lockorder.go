// Package lockorder exercises lockheld's lock-order rules: ascending
// same-class acquisition, reentrancy, transitive blocking and emission
// under mutexes, and lock-order-graph cycles.
package lockorder

import (
	"sync"

	"tiermerge/internal/obs"
)

type shard struct {
	mu sync.Mutex
}

type tier struct {
	shards []*shard
	obs    obs.Observer
}

// ---- ascending-index discipline ----

// lockDescending acquires same-class shard mutexes in a descending loop —
// the deadlock mirror image of the ascending helper.
func lockDescending(t *tier) {
	for i := len(t.shards) - 1; i >= 0; i-- {
		t.shards[i].mu.Lock() // want "inside a loop that decrements i"
	}
}

// lockOutOfOrder acquires constant shard indices out of order.
func lockOutOfOrder(t *tier) {
	t.shards[1].mu.Lock()
	t.shards[0].mu.Lock() // want "strictly ascending index order" "lock of t.shards.0..mu while t.shards.1..mu is already held"
	t.shards[0].mu.Unlock()
	t.shards[1].mu.Unlock()
}

// lockAscending is the lockClusters discipline: ascending acquisition,
// descending release. No findings.
func lockAscending(t *tier) {
	for i := 0; i < len(t.shards); i++ {
		t.shards[i].mu.Lock()
	}
	for i := len(t.shards) - 1; i >= 0; i-- {
		t.shards[i].mu.Unlock()
	}
}

// ---- reentrancy ----

// relock re-locks the mutex it already holds.
func relock(s *shard) {
	s.mu.Lock()
	s.mu.Lock() // want "not reentrant"
	s.mu.Unlock()
	s.mu.Unlock()
}

// ---- transitive blocking ----

// waitForSignal parks on a channel receive (hop 2).
func waitForSignal(ch chan int) int { return <-ch }

// fetchRemote reaches the receive one call away (hop 1).
func fetchRemote(ch chan int) int { return waitForSignal(ch) }

// blockTwoHopsUnderMutex calls a function whose blocking primitive sits
// two call hops deep — no annotation anywhere on the chain.
func blockTwoHopsUnderMutex(s *shard, ch chan int) {
	s.mu.Lock()
	fetchRemote(ch) // want "call to fetchRemote while a mutex is held .s\\.mu.: may block .waitForSignal → channel receive."
	s.mu.Unlock()
}

// fetchUnlocked shows the same call is fine without a mutex held.
func fetchUnlocked(ch chan int) int {
	return fetchRemote(ch)
}

// ---- net-acquirer / net-releaser summaries ----

// lockAll leaves every shard mutex held on exit (the lockClusters shape).
func lockAll(t *tier) {
	for i := 0; i < len(t.shards); i++ {
		t.shards[i].mu.Lock()
	}
}

// unlockAll releases what lockAll acquired.
func unlockAll(t *tier) {
	for i := len(t.shards) - 1; i >= 0; i-- {
		t.shards[i].mu.Unlock()
	}
}

// blockUnderHelperHeld blocks while the helper-acquired mutexes are still
// held, then legitimately after the helper released them.
func blockUnderHelperHeld(t *tier, ch chan int) {
	lockAll(t)
	fetchRemote(ch) // want "while a mutex is held ..lockAll..: may block"
	unlockAll(t)
	fetchRemote(ch) // clean: unlockAll dropped the class
}

// ---- emission under mutexes ----

// note delivers an event through the Observer interface.
func note(o obs.Observer) {
	if o != nil {
		o.Observe(obs.Event{Phase: "note"})
	}
}

// emitTransitivelyUnderMutex reaches Observe one call away.
func emitTransitivelyUnderMutex(t *tier, s *shard) {
	s.mu.Lock()
	note(t.obs) // want "may emit observer events"
	s.mu.Unlock()
}

// emitDirectlyUnderMutex calls Observe itself under the mutex.
func emitDirectlyUnderMutex(t *tier, s *shard) {
	s.mu.Lock()
	t.obs.Observe(obs.Event{}) // want "observer event emitted while a mutex is held"
	s.mu.Unlock()
}

// emitAfterUnlock is the approved shape.
func emitAfterUnlock(t *tier, s *shard) {
	s.mu.Lock()
	s.mu.Unlock()
	t.obs.Observe(obs.Event{})
}

// bufferedNotify's emissions land in a post-unlock-flushed buffer, so the
// directive exempts them.
//
//tiermerge:buffered-events
func bufferedNotify(t *tier, s *shard) {
	s.mu.Lock()
	t.obs.Observe(obs.Event{})
	s.mu.Unlock()
}

// ---- asserted non-blocking sends ----

// signal sends on a buffered channel with guaranteed capacity.
//
//tiermerge:nonblocking
func signal(done chan struct{}) { done <- struct{}{} }

// wakeUnderLock relies on the nonblocking assertion; no finding.
func wakeUnderLock(s *shard, done chan struct{}) {
	s.mu.Lock()
	signal(done)
	s.mu.Unlock()
}

// ---- lock-order-graph cycles ----

type left struct{ mu sync.Mutex }

type right struct{ mu sync.Mutex }

// lockLeftThenRight orders left before right.
func lockLeftThenRight(l *left, r *right) {
	l.mu.Lock()
	r.mu.Lock() // want "lock-order cycle" "lock of r.mu while l.mu is already held"
	r.mu.Unlock()
	l.mu.Unlock()
}

// lockRightThenLeft orders right before left — together with
// lockLeftThenRight this closes a cycle, reported at both legs.
func lockRightThenLeft(l *left, r *right) {
	r.mu.Lock()
	l.mu.Lock() // want "lock-order cycle" "lock of l.mu while r.mu is already held"
	l.mu.Unlock()
	r.mu.Unlock()
}

// ---- io-mutex exemption for the transitive-blocking rule ----

// wal mirrors the durable engine: fsyncLoop blocks (MayBlock through the
// channel wait), called under the annotated io-mutex vs a plain mutex.
type wal struct {
	// fmu serializes file I/O; blocking under it is its charter.
	//
	//tiermerge:iomutex
	fmu sync.Mutex
	mu  sync.Mutex
	ack chan struct{}
}

// fsyncWait parks until the flusher acknowledges — an inferred MayBlock
// helper with no annotation anywhere.
func (w *wal) fsyncWait() { <-w.ack }

// flushUnderIO calls the blocking helper under the io-mutex only: the
// engine's transitive-blocking rule stands down.
func (w *wal) flushUnderIO() {
	w.fmu.Lock()
	w.fsyncWait()
	w.fmu.Unlock()
}

// flushUnderPlain calls it under an ordinary mutex: flagged.
func (w *wal) flushUnderPlain() {
	w.mu.Lock()
	w.fsyncWait() // want "may block"
	w.mu.Unlock()
}
