// Package lockheld exercises the lockheld analyzer: locks(none|cluster)
// call contracts and the no-blocking-under-lock rule.
package lockheld

import (
	"net"
	"os"
	"sync"
	"time"
)

type cluster struct {
	mu    sync.Mutex
	state map[string]int
	wake  chan struct{}
}

// Merge takes the cluster lock itself.
//
//tiermerge:locks(none)
func (c *cluster) Merge(k string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.installLocked(k)
}

// installLocked requires the cluster mutex.
//
//tiermerge:locks(cluster)
func (c *cluster) installLocked(k string) {
	c.state[k]++
}

func (c *cluster) reMerge(k string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Merge(k) // want "Merge is ..tiermerge:locks.none."
}

func (c *cluster) unsafeInstall(k string) {
	c.installLocked(k) // want "installLocked is ..tiermerge:locks.cluster."
}

func (c *cluster) napLocked() {
	c.mu.Lock()
	time.Sleep(time.Millisecond) // want "blocking call time.Sleep while a mutex is held"
	c.mu.Unlock()
}

func (c *cluster) notifyLocked() {
	c.mu.Lock()
	c.wake <- struct{}{} // want "channel send while a mutex is held"
	c.mu.Unlock()
}

func (c *cluster) waitLocked() {
	c.mu.Lock()
	<-c.wake // want "channel receive while a mutex is held"
	c.mu.Unlock()
}

// rebuildLocked runs under the caller's cluster mutex, so calling
// another locks(cluster) function is fine.
//
//tiermerge:locks(cluster)
func (c *cluster) rebuildLocked() {
	c.installLocked("rebuilt")
}

func (c *cluster) asyncMerge(k string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.Merge(k + "-async")
	}()
}

func (c *cluster) politeNotify() {
	c.mu.Lock()
	c.state["n"]++
	c.mu.Unlock()
	c.wake <- struct{}{}
}

// admitQueue mirrors the batched-admission entry point: requests enqueue
// under a short mutex section and then block on a result channel, and the
// leader delivers results only after every mutex is released.
type admitQueue struct {
	mu sync.Mutex
	q  []chan int
}

func (a *admitQueue) enqueueAndWait() int {
	done := make(chan int, 1)
	a.mu.Lock()
	a.q = append(a.q, done)
	a.mu.Unlock()
	return <-done // mutex released before blocking: allowed
}

func (a *admitQueue) deliverLocked() {
	a.mu.Lock()
	for _, done := range a.q {
		done <- 1 // want "channel send while a mutex is held"
	}
	a.q = nil
	a.mu.Unlock()
}

func (a *admitQueue) drainThenDeliver() {
	a.mu.Lock()
	q := a.q
	a.q = nil
	a.mu.Unlock()
	for _, done := range q {
		done <- 1
	}
}

// Sharded-tier vocabulary: locks(shard) functions run under the mutexes
// of every involved shard, acquired in ascending shard order through a
// sorted-loop helper.

type shardedTier struct {
	shards []*cluster
}

// lockShards is the sorted-order helper: one key per loop-body pass, so
// the nested-mutex rule naturally exempts it.
//
//tiermerge:blocking
func lockShards(bs []*cluster) {
	for _, b := range bs {
		b.mu.Lock()
	}
}

func unlockShards(bs []*cluster) {
	for i := len(bs) - 1; i >= 0; i-- {
		bs[i].mu.Unlock()
	}
}

// installAcrossLocked requires every involved shard's mutex; calling
// another locks(shard) helper under the caller-held contract is fine, and
// so is a locks(cluster) helper (the shard's own mutex is among the held
// ones).
//
//tiermerge:locks(shard)
func (s *shardedTier) installAcrossLocked(k string) {
	s.sliceLocked(k)
	s.shards[0].installLocked(k)
}

//tiermerge:locks(shard)
func (s *shardedTier) sliceLocked(k string) {
	for _, b := range s.shards {
		b.state[k]++
	}
}

// admitAcross acquires through the helper; calling a locks(shard) function
// with no lint-visible mutex is deliberately not flagged (the acquisition
// ran through lockShards, which the linear scan cannot attribute).
//
//tiermerge:locks(none)
func (s *shardedTier) admitAcross(k string) {
	lockShards(s.shards)
	s.installAcrossLocked(k)
	unlockShards(s.shards)
}

// nestedLock acquires a second distinct mutex under a held one — the
// deadlock shape the sorted-order helper exists to prevent.
func nestedLock(a, b *cluster) {
	a.mu.Lock()
	b.mu.Lock() // want "lock of b.mu while a.mu is already held"
	b.mu.Unlock()
	a.mu.Unlock()
}

// relockInOrderIsStillNested: even "sorted" manual nesting is flagged —
// the lint cannot see the order, only the helper shape is exempt.
func relockInOrderIsStillNested(s *shardedTier) {
	s.shards[0].mu.Lock()
	s.shards[1].mu.Lock() // want "lock of s.shards.1..mu while s.shards.0..mu is already held"
	s.shards[1].mu.Unlock()
	s.shards[0].mu.Unlock()
}

// lockUnderCallerContract: a locks(shard) function acquiring a further
// mutex nests against the caller-held shard mutexes.
//
//tiermerge:locks(shard)
func (s *shardedTier) lockUnderCallerContract(extra *cluster) {
	extra.mu.Lock() // want "lock of extra.mu while the caller-held shard mutexes"
	extra.mu.Unlock()
}

// lockThenBlockOnShard: holding one shard's mutex while blocking on the
// helper that waits for another's is flagged through the blocking rule.
func lockThenBlockOnShard(s *shardedTier, b *cluster) {
	b.mu.Lock()
	lockShards(s.shards) // want "lockShards is ..tiermerge:blocking but is called while a mutex is held"
	b.mu.Unlock()
	unlockShards(s.shards)
}

// sequentialLocks release before the next acquire — not nested, allowed.
func sequentialLocks(a, b *cluster) {
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
}

// connPool mirrors the TCP client transport's idle-connection pool: its
// mutex guards only the pool slice and the closed flag, so every socket
// operation — dial, frame write, frame read — must run outside it. Socket
// calls park the goroutine on kernel I/O for up to a full deadline, which
// under a held pool mutex stalls every other Call.

type connPool struct {
	mu     sync.Mutex
	idle   []net.Conn
	closed bool
}

func (p *connPool) dialUnderLock(addr string) {
	p.mu.Lock()
	c, err := net.Dial("tcp", addr) // want "blocking call net.Dial while a mutex is held"
	if err == nil {
		p.idle = append(p.idle, c)
	}
	p.mu.Unlock()
}

func (p *connPool) writeUnderLock(payload []byte) {
	p.mu.Lock()
	if len(p.idle) > 0 {
		p.idle[0].Write(payload) // want "blocking call net.Write while a mutex is held"
	}
	p.mu.Unlock()
}

func (p *connPool) readUnderLock(buf []byte) {
	p.mu.Lock()
	if len(p.idle) > 0 {
		p.idle[0].Read(buf) // want "blocking call net.Read while a mutex is held"
	}
	p.mu.Unlock()
}

// getThenDial is the correct shape: pop under the mutex, release, then do
// socket I/O with no lock held.
func (p *connPool) getThenDial(addr string) net.Conn {
	p.mu.Lock()
	var c net.Conn
	if n := len(p.idle); n > 0 {
		c = p.idle[n-1]
		p.idle = p.idle[:n-1]
	}
	p.mu.Unlock()
	if c == nil {
		c, _ = net.Dial("tcp", addr)
	}
	return c
}

// drainThenClose pops the whole pool under the mutex and closes outside
// it (Close is not in the blocking set, but the shape keeps the critical
// section free of any socket call).
func (p *connPool) drainThenClose() {
	p.mu.Lock()
	conns := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// acceptUnderLock covers the listener side: Accept parks until a peer
// dials, potentially forever.
type acceptor struct {
	mu    sync.Mutex
	conns map[net.Conn]bool
}

func (a *acceptor) acceptUnderLock(ln net.Listener) {
	a.mu.Lock()
	c, err := ln.Accept() // want "blocking call net.Accept while a mutex is held"
	if err == nil {
		a.conns[c] = true
	}
	a.mu.Unlock()
}

func (a *acceptor) acceptThenTrack(ln net.Listener) {
	c, err := ln.Accept()
	if err != nil {
		return
	}
	a.mu.Lock()
	a.conns[c] = true
	a.mu.Unlock()
}

// journal mirrors the durable store's group-commit discipline: the state
// mutex guards only the in-memory buffer, and every file operation —
// append, fsync, checkpoint rename — must run outside it. Disk I/O parks
// the goroutine exactly like socket I/O, and an fsync under the state
// mutex would stall every committer.

type journal struct {
	mu  sync.Mutex
	buf []byte
	f   *os.File
}

func (j *journal) syncUnderLock() {
	j.mu.Lock()
	j.f.Write(j.buf) // want "blocking call os.Write while a mutex is held"
	j.f.Sync()       // want "blocking call os.Sync while a mutex is held"
	j.buf = j.buf[:0]
	j.mu.Unlock()
}

func (j *journal) rotateUnderLock(dir string) {
	j.mu.Lock()
	os.Rename(dir+"/ckpt.tmp", dir+"/ckpt.wal") // want "blocking call os.Rename while a mutex is held"
	j.mu.Unlock()
}

// snapshotThenSync is the correct shape: copy the buffer under the mutex,
// release, then write and fsync with no lock held.
func (j *journal) snapshotThenSync() error {
	j.mu.Lock()
	pending := append([]byte(nil), j.buf...)
	j.buf = j.buf[:0]
	j.mu.Unlock()
	if _, err := j.f.Write(pending); err != nil {
		return err
	}
	return j.f.Sync()
}

// segmentLog mirrors the durable engine's two-mutex discipline: an
// annotated io-mutex serializing all file operations (blocking under it
// is its charter) over an annotated leaf mutex guarding the in-memory
// buffer (safe to take nested — it never waits on anything).

type segmentLog struct {
	// bmu guards the buffer only; memory-only critical sections.
	//
	//tiermerge:leafmutex
	bmu sync.Mutex
	buf []byte

	// fmu serializes flushes, fsyncs and rotation.
	//
	//tiermerge:iomutex
	fmu sync.Mutex
	f   *os.File
}

// sync is the group-commit shape: drain the buffer through the nested
// leaf mutex, then do file I/O under the io-mutex alone — none of it is
// flagged.
func (l *segmentLog) sync() error {
	l.fmu.Lock()
	defer l.fmu.Unlock()
	l.bmu.Lock()
	pending := l.buf
	l.buf = nil
	l.bmu.Unlock()
	if _, err := l.f.Write(pending); err != nil {
		return err
	}
	return l.f.Sync()
}

// blockUnderLeaf: the leaf contract covers only nested acquisition — a
// blocking call under the leaf mutex itself is still flagged.
func (l *segmentLog) blockUnderLeaf() {
	l.bmu.Lock()
	l.f.Sync() // want "blocking call os.Sync while a mutex is held"
	l.bmu.Unlock()
}

// waitUnderIO: the io-mutex charter covers file I/O, not channel waits —
// a channel wait can cycle back to the mutex, file I/O cannot.
func (l *segmentLog) waitUnderIO(done chan int) {
	l.fmu.Lock()
	<-done // want "channel receive while a mutex is held"
	l.fmu.Unlock()
}

// nestPlainUnderIO: nesting an ordinary mutex under the io-mutex is still
// the deadlock shape; only annotated leaf mutexes are exempt.
func (l *segmentLog) nestPlainUnderIO(c *cluster) {
	l.fmu.Lock()
	c.mu.Lock() // want "lock of c.mu while l.fmu is already held"
	c.mu.Unlock()
	l.fmu.Unlock()
}

// ioUnderPlain: an io-mutex exempts blocking only under ITSELF — file I/O
// while an ordinary mutex is also held stays flagged.
func (l *segmentLog) ioUnderPlain(c *cluster) {
	c.mu.Lock()
	l.fmu.Lock() // want "lock of l.fmu while c.mu is already held"
	l.f.Sync()   // want "blocking call os.Sync while a mutex is held"
	l.fmu.Unlock()
	c.mu.Unlock()
}
