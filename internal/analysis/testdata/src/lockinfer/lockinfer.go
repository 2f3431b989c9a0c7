// Package lockinfer exercises lockheld's interprocedural half: inferred
// summaries make the locks(...) annotations checked assertions, and catch
// self-deadlocks with no annotation anywhere on the chain.
package lockinfer

import (
	"sync"

	"tiermerge/internal/obs"
)

type cluster struct {
	mu  sync.Mutex
	obs obs.Observer
}

// ---- inference with no annotations anywhere ----

// restate locks and unlocks the cluster mutex; nothing marks it.
func restate(c *cluster) {
	c.mu.Lock()
	c.mu.Unlock()
}

// reenterThroughHelper calls the unannotated helper while already holding
// the mutex the helper will re-acquire — the violation a removed
// locks(none) annotation used to hide.
func reenterThroughHelper(c *cluster) {
	c.mu.Lock()
	restate(c) // want "restate acquires lockinfer.cluster.mu .Lock. — self-deadlock"
	c.mu.Unlock()
}

// reenterUnlocked shows the same call is fine without the mutex held.
func reenterUnlocked(c *cluster) {
	restate(c)
}

// ---- annotations as checked assertions ----

// drain parks on a channel receive.
func drain(ch chan int) int { return <-ch }

// flushLocked claims to run under the cluster mutex but transitively
// blocks — the annotation contradicts the inferred summary.
//
//tiermerge:locks(cluster)
func flushLocked(c *cluster, ch chan int) { // want "locks.cluster. .runs under a held mutex. but may block: drain → channel receive"
	drain(ch) // want "call to drain while a mutex is held .caller-held mutex.: may block .channel receive."
}

// noteLocked claims to run under the cluster mutex but delivers observer
// events — user callbacks under a mutex.
//
//tiermerge:locks(cluster)
func noteLocked(c *cluster) { // want "but may emit observer events"
	c.obs.Observe(obs.Event{}) // want "observer event emitted while a mutex is held"
}

// noteBuffered is the sanctioned form: the buffered-events directive says
// the observer is a post-unlock-flushed buffer.
//
//tiermerge:locks(cluster)
//tiermerge:buffered-events
func noteBuffered(c *cluster) {
	c.obs.Observe(obs.Event{})
}

// applyLocked is a well-behaved locks(cluster) body: pure mutation, no
// blocking, no emission.
//
//tiermerge:locks(cluster)
func applyLocked(c *cluster, n *int) {
	*n++
}
