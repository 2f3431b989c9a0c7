// The Disk engine: the segmented durable log. The log is a pair of files
// per generation,
//
//	ckpt-<gen>.wal — a complete, self-contained base journal: the window
//	                 origin (checkout record) followed by every entry of
//	                 the window committed before the checkpoint. Written to
//	                 a temp file, fsynced and atomically renamed into
//	                 place; never appended to afterwards.
//	tail-<gen>.wal — the live continuation: every commit and window
//	                 advance since the checkpoint, appended through the
//	                 buffered tail (Write) and forced by Sync. Its records
//	                 are an independent wal stream numbered from 1.
//
// Recovery replays checkpoint-then-tail; rotation (a new checkpoint)
// deletes the previous generation — the WAL truncation that keeps the log
// proportional to one checkpoint interval instead of the cluster's
// lifetime. Crashes between rotation steps leave either the old pair, both
// pairs, or the new pair with a missing tail; OpenDisk picks the newest
// generation with a readable checkpoint and sweeps the rest.
//
// Rotation gate: BeginRotate opens a pending-rotation window (rotDone)
// during which Sync parks — without holding any mutex — instead of
// flushing. Bytes buffered after the boundary are numbered for the NEXT
// tail stream; flushing them into the outgoing tail would plant a
// sequence restart mid-file that Strict recovery rejects, and would let
// the subsequent generation sweep delete an acknowledged record's only
// durable copy. CompleteRotate resolves the gate: on success parked Syncs
// flush to the new tail; on failure the log is wedged (failed) — Write
// and Sync report the error, no commit acknowledges on a broken stream,
// and the on-disk old generation stays intact for recovery after restart.
//
// Lock discipline: Write only appends to an in-memory buffer and is safe
// under the cluster mutex (group commit: many committers buffer under the
// lock, the first Sync outside it flushes and fsyncs for all). Sync,
// BeginRotate/CompleteRotate and Close do the file I/O and must never run
// while the cluster mutex is held (TestCheckpointWrittenOutsideLock and
// TestBaseCommitsShareOneFsync in internal/replica check it).
package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"tiermerge/internal/obs"
)

// Disk is the durable engine: the segmented log the base journal persists
// through.
type Disk struct {
	dir string

	// bmu guards the pending buffers and the rotation-gate state —
	// memory-only, safe under the cluster mutex and safe to take nested
	// under fmu (it never waits on anything).
	bmu sync.Mutex
	// old holds bytes buffered before a BeginRotate that CompleteRotate
	// still has to flush to the outgoing tail; buf holds bytes destined for
	// the current (or, mid-rotation, the next) tail.
	old, buf []byte
	// rotDone is non-nil while a rotation boundary is pending (between
	// BeginRotate and CompleteRotate) and is closed when the rotation
	// resolves. While pending, Sync must not flush buf: those bytes are
	// numbered for the next tail stream and may only be written once
	// CompleteRotate has installed it.
	rotDone chan struct{}
	// failed is the sticky wedge: set when a rotation fails, after which
	// Write and Sync report it and nothing is acknowledged — continuing to
	// append a restarted-sequence stream to the old tail would make the
	// log unrecoverable. The on-disk old generation stays intact; a
	// restart recovers it.
	failed error

	// fmu orders all file operations: flushes, fsyncs and rotation. A Sync
	// racing a rotation blocks here until the new tail is in place, so an
	// acknowledged commit is durable in exactly one generation. Blocking
	// file I/O under it is its charter — never take it under the cluster
	// mutex.
	fmu      sync.Mutex
	gen      int
	tail     tailFile
	unsynced bool

	mLogWritten, mLogTruncated *obs.Counter
}

// tailFile is the live tail's file surface — *os.File in production;
// the package's tests substitute fault-injecting implementations to
// exercise partial writes and sync failures.
type tailFile interface {
	io.Writer
	Sync() error
	Close() error
	Truncate(size int64) error
}

// RotateStats reports one checkpoint rotation.
type RotateStats struct {
	// CheckpointBytes is the size of the new checkpoint file.
	CheckpointBytes int64
	// TruncatedBytes is the size of the deleted previous generation
	// (checkpoint + tail) — the log growth a rotation reclaimed.
	TruncatedBytes int64
}

// OpenDisk opens (or creates) a durable engine rooted at dir. A fresh
// directory starts at generation zero with no segments: callers write the
// initial checkpoint through Rotate before appending. On an existing
// directory the newest readable generation survives and stale generations
// and temp files are swept.
func OpenDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	d := &Disk{dir: dir}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	var gens []int
	for _, e := range names {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(filepath.Join(dir, name)) // torn rotation leftovers
		case strings.HasPrefix(name, "ckpt-") && strings.HasSuffix(name, ".wal"):
			if g, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".wal")); err == nil {
				gens = append(gens, g)
			}
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(gens)))
	for i, g := range gens {
		if i == 0 {
			d.gen = g
			continue
		}
		// Stale generation (crash between rotation and cleanup): sweep it.
		os.Remove(d.ckptPath(g))
		os.Remove(d.tailPath(g))
	}
	if d.gen > 0 {
		f, err := os.OpenFile(d.tailPath(d.gen), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("store: open tail: %w", err)
		}
		d.tail = f
	}
	return d, nil
}

// Registry attaches reg for the engine's two log-byte counters.
func (d *Disk) Registry(reg *obs.Registry) {
	if reg == nil {
		return
	}
	d.mLogWritten = reg.Counter("tiermerge_store_log_bytes_written_total")
	d.mLogTruncated = reg.Counter("tiermerge_store_log_bytes_truncated_total")
}

// Dir returns the engine's root directory.
func (d *Disk) Dir() string { return d.dir }

// Generation returns the current segment generation (zero on a fresh
// directory, before the first Rotate).
func (d *Disk) Generation() int {
	d.fmu.Lock()
	defer d.fmu.Unlock()
	return d.gen
}

// Fresh reports whether the directory holds no segments yet.
func (d *Disk) Fresh() bool { return d.Generation() == 0 }

func (d *Disk) ckptPath(gen int) string { return segmentPath(d.dir, "ckpt", gen) }

func (d *Disk) tailPath(gen int) string { return segmentPath(d.dir, "tail", gen) }

func segmentPath(dir, kind string, gen int) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%08d.wal", kind, gen))
}

// CheckpointTempPath returns the temp path a rotation stages generation
// gen's checkpoint at before the atomic rename publishes it. Exposed so
// crash simulations can materialize a mid-rotation image; OpenDisk sweeps
// any such leftover.
func CheckpointTempPath(dir string, gen int) string {
	return segmentPath(dir, "ckpt", gen) + ".tmp"
}

// ReadSegments returns the current generation's checkpoint and tail
// contents for recovery. A missing tail (crash between checkpoint rename
// and tail creation) reads as empty.
func (d *Disk) ReadSegments() (ckpt, tail []byte, err error) {
	d.fmu.Lock()
	defer d.fmu.Unlock()
	if d.gen == 0 {
		return nil, nil, fmt.Errorf("store: %s holds no segments", d.dir)
	}
	ckpt, err = os.ReadFile(d.ckptPath(d.gen))
	if err != nil {
		return nil, nil, fmt.Errorf("store: read checkpoint: %w", err)
	}
	tail, err = os.ReadFile(d.tailPath(d.gen))
	if err != nil {
		if os.IsNotExist(err) {
			return ckpt, nil, nil
		}
		return nil, nil, fmt.Errorf("store: read tail: %w", err)
	}
	return ckpt, tail, nil
}

// TruncateTail cuts the live tail to n bytes — recovery drops a torn final
// line before appends resume.
func (d *Disk) TruncateTail(n int64) error {
	d.fmu.Lock()
	defer d.fmu.Unlock()
	if d.tail == nil {
		return fmt.Errorf("store: no live tail")
	}
	if err := d.tail.Truncate(n); err != nil {
		return fmt.Errorf("store: truncate tail: %w", err)
	}
	return d.tail.Sync()
}

// Write buffers p for the live tail. It never touches the file — commit
// paths call it while holding the cluster mutex; the bytes reach stable
// media at the next Sync. On a wedged log (a rotation failed) it reports
// the sticky failure so commit paths stop before buffering records that
// can never be forced.
func (d *Disk) Write(p []byte) (int, error) {
	d.bmu.Lock()
	if err := d.failed; err != nil {
		d.bmu.Unlock()
		return 0, err
	}
	d.buf = append(d.buf, p...)
	d.bmu.Unlock()
	return len(p), nil
}

// Failed reports the sticky wedge state: non-nil once a rotation has
// failed, after which no append or sync can succeed and the cluster must
// stop acknowledging (restart and recover the intact old generation).
func (d *Disk) Failed() error {
	d.bmu.Lock()
	defer d.bmu.Unlock()
	return d.failed
}

// Sync flushes buffered tail bytes to the live tail file and forces them
// to stable media. Concurrent committers group-commit: whoever enters
// first flushes everyone's buffered records (the buffer preserves commit
// order); later entrants find nothing pending and return after a cheap
// check. A Sync racing a rotation parks until CompleteRotate resolves the
// gate: bytes buffered after the boundary belong to the next tail stream
// and must never reach the outgoing one. Must not be called under the
// cluster mutex.
func (d *Disk) Sync() error {
	for {
		if err := d.awaitRotation(); err != nil {
			return err
		}
		d.fmu.Lock()
		retry, err := d.syncLocked()
		d.fmu.Unlock()
		if !retry {
			return err
		}
	}
}

// awaitRotation parks until no rotation boundary is pending, then reports
// the wedge state. It holds no mutex while waiting — CompleteRotate needs
// fmu to resolve the gate, and the gate channel itself is read under bmu
// and waited on bare.
func (d *Disk) awaitRotation() error {
	for {
		d.bmu.Lock()
		ch, err := d.rotDone, d.failed
		d.bmu.Unlock()
		if err != nil {
			return err
		}
		if ch == nil {
			return nil
		}
		<-ch
	}
}

// syncLocked flushes and fsyncs under fmu. retry reports that a rotation
// boundary landed between the caller's awaitRotation and fmu acquisition:
// the buffered bytes now belong to the next tail, so the caller must park
// again and re-enter once the rotation resolves.
func (d *Disk) syncLocked() (retry bool, err error) {
	d.bmu.Lock()
	if d.rotDone != nil {
		d.bmu.Unlock()
		return true, nil
	}
	if err := d.failed; err != nil {
		d.bmu.Unlock()
		return false, err
	}
	pending := d.buf
	d.buf = nil
	d.bmu.Unlock()
	if len(pending) == 0 && !d.unsynced {
		return false, nil
	}
	if d.tail == nil {
		return false, fmt.Errorf("store: no live tail (rotate first)")
	}
	if len(pending) > 0 {
		n, werr := d.tail.Write(pending)
		if n > 0 {
			d.unsynced = true
			if d.mLogWritten != nil {
				d.mLogWritten.Add(int64(n))
			}
		}
		if werr != nil {
			// Re-queue only the suffix the (possibly partial) write did
			// not persist: the first n bytes are already in the file, and
			// rewriting them on retry would duplicate interior records —
			// a sequence error Strict recovery rejects.
			d.bmu.Lock()
			d.buf = append(pending[n:], d.buf...)
			d.bmu.Unlock()
			return false, fmt.Errorf("store: tail write: %w", werr)
		}
	}
	if err := d.tail.Sync(); err != nil {
		return false, fmt.Errorf("store: tail sync: %w", err)
	}
	d.unsynced = false
	return false, nil
}

// BeginRotate marks the checkpoint boundary: bytes buffered so far belong
// to the outgoing tail, bytes buffered after it to the next one. It also
// opens the rotation gate — Syncs arriving before CompleteRotate resolves
// it park instead of flushing post-boundary bytes into the outgoing tail.
// Memory only — callers invoke it inside the same critical section that
// snapshots the state the checkpoint will record, then call CompleteRotate
// outside the lock. Every BeginRotate must be paired with a CompleteRotate
// (parked Syncs wait for it).
func (d *Disk) BeginRotate() {
	d.bmu.Lock()
	d.old = append(d.old, d.buf...)
	d.buf = nil
	if d.rotDone == nil {
		d.rotDone = make(chan struct{})
	}
	d.bmu.Unlock()
}

// resolveRotation closes the rotation gate, releasing parked Syncs. A
// non-nil err wedges the log first, so the released Syncs (and every
// later Write) report the failure instead of appending a broken stream
// to the old tail.
func (d *Disk) resolveRotation(err error) {
	d.bmu.Lock()
	if err != nil && d.failed == nil {
		d.failed = fmt.Errorf("store: log wedged by failed rotation: %w", err)
	}
	if d.rotDone != nil {
		close(d.rotDone)
		d.rotDone = nil
	}
	d.bmu.Unlock()
}

// CompleteRotate performs the file work of a checkpoint rotation: flush
// the outgoing tail, write the new checkpoint through writeCkpt (temp file,
// fsync, atomic rename), open a fresh tail, and delete the previous
// generation. On success it resolves the rotation gate and parked Syncs
// flush into the new tail. On failure the on-disk old generation is left
// intact (a publish that got as far as the rename is rolled back) and the
// log is wedged: the journal's record numbering was already split at the
// boundary, so appending to the old tail again would corrupt it — Write
// and Sync report the failure, no commit acknowledges, and a restart
// recovers the old generation. Must not be called under the cluster mutex.
func (d *Disk) CompleteRotate(writeCkpt func(w io.Writer) error) (RotateStats, error) {
	d.fmu.Lock()
	st, err := d.completeRotateLocked(writeCkpt)
	d.fmu.Unlock()
	d.resolveRotation(err)
	return st, err
}

func (d *Disk) completeRotateLocked(writeCkpt func(w io.Writer) error) (RotateStats, error) {
	var st RotateStats

	// Complete the outgoing generation: everything acknowledged before the
	// boundary must be durable in it before it becomes the fallback.
	d.bmu.Lock()
	old := d.old
	d.old = nil
	d.bmu.Unlock()
	if len(old) > 0 {
		if d.tail == nil {
			d.restoreOld(old)
			return st, fmt.Errorf("store: rotate: boundary bytes with no live tail")
		}
		n, err := d.tail.Write(old)
		if n > 0 {
			d.unsynced = true
			if d.mLogWritten != nil {
				d.mLogWritten.Add(int64(n))
			}
		}
		if err != nil {
			// Re-queue only what the (possibly partial) write left
			// unpersisted; the first n bytes are already in the file.
			d.restoreOld(old[n:])
			return st, fmt.Errorf("store: rotate: flush outgoing tail: %w", err)
		}
	}
	if d.tail != nil {
		if err := d.tail.Sync(); err != nil {
			return st, fmt.Errorf("store: rotate: sync outgoing tail: %w", err)
		}
		d.unsynced = false
	}

	next := d.gen + 1
	tmp := CheckpointTempPath(d.dir, next)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return st, fmt.Errorf("store: rotate: %w", err)
	}
	if err := writeCkpt(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return st, fmt.Errorf("store: rotate: write checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return st, fmt.Errorf("store: rotate: sync checkpoint: %w", err)
	}
	if info, err := f.Stat(); err == nil {
		st.CheckpointBytes = info.Size()
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return st, fmt.Errorf("store: rotate: close checkpoint: %w", err)
	}
	if err := os.Rename(tmp, d.ckptPath(next)); err != nil {
		os.Remove(tmp)
		return st, fmt.Errorf("store: rotate: publish checkpoint: %w", err)
	}
	syncDir(d.dir)

	newTail, err := os.OpenFile(d.tailPath(next), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		// Roll the publish back: remove the just-renamed checkpoint so the
		// directory keeps describing the old generation, whose tail is
		// still the one d.gen/d.tail point at. (The new checkpoint was
		// durable and self-contained, but advancing d.gen without a live
		// tail would leave in-memory and on-disk state describing
		// different generations.) The failure wedges the log either way;
		// recovery after restart replays the intact old generation.
		os.Remove(d.ckptPath(next))
		syncDir(d.dir)
		return st, fmt.Errorf("store: rotate: open new tail: %w", err)
	}

	// Truncation: reclaim the previous generation.
	st.TruncatedBytes += fileSize(d.ckptPath(d.gen)) + fileSize(d.tailPath(d.gen))
	if d.tail != nil {
		d.tail.Close()
	}
	os.Remove(d.ckptPath(d.gen))
	os.Remove(d.tailPath(d.gen))
	syncDir(d.dir)
	d.gen = next
	d.tail = newTail
	if d.mLogTruncated != nil {
		d.mLogTruncated.Add(st.TruncatedBytes)
	}
	if d.mLogWritten != nil {
		d.mLogWritten.Add(st.CheckpointBytes)
	}
	return st, nil
}

// restoreOld re-queues unpersisted boundary bytes after a failed rotation
// step, keeping the buffer state an honest picture of what never reached
// the file. (The failure wedges the log, so they are never flushed — but
// Close and post-mortem inspection see exactly what was lost, and none of
// it was acknowledged.)
func (d *Disk) restoreOld(old []byte) {
	if len(old) == 0 {
		return
	}
	d.bmu.Lock()
	d.old = append(old, d.old...)
	d.bmu.Unlock()
}

// LogSize returns the on-disk size of the current generation (checkpoint
// plus tail), not counting unflushed buffered bytes.
func (d *Disk) LogSize() int64 {
	d.fmu.Lock()
	defer d.fmu.Unlock()
	if d.gen == 0 {
		return 0
	}
	return fileSize(d.ckptPath(d.gen)) + fileSize(d.tailPath(d.gen))
}

// Close flushes and closes the live tail. It waits out a pending rotation
// like Sync does; on a wedged log it still releases the file descriptor
// and returns the wedge error.
func (d *Disk) Close() error {
	err := d.Sync()
	d.fmu.Lock()
	defer d.fmu.Unlock()
	if d.tail != nil {
		if cerr := d.tail.Close(); err == nil {
			err = cerr
		}
		d.tail = nil
	}
	return err
}

func fileSize(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}

// syncDir fsyncs a directory so a rename or unlink survives power loss;
// best-effort (some filesystems reject directory fsync).
func syncDir(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	f.Sync()
	f.Close()
}
