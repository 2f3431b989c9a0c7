package replica

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"tiermerge/internal/cost"
	"tiermerge/internal/model"
	"tiermerge/internal/obs"
	"tiermerge/internal/store"
	"tiermerge/internal/wal"
)

// Durable base tier (DESIGN.md §14). OpenBase roots a cluster in a
// store.Disk engine: committed entries land in MVCC version chains and in
// a segmented durable log — an atomically rotated checkpoint file plus a
// live tail the journal appends to. Checkpoint writes the current window
// as a fresh self-contained segment and truncates the log to the tail
// written since, so recovery replays checkpoint-then-tail instead of the
// full history since the beginning of time.

// ErrNoDurableStore is returned by Checkpoint on a cluster whose storage
// engine is not durable (NewBaseCluster, RecoverBaseCluster).
var ErrNoDurableStore = errors.New("replica: cluster has no durable store")

// OpenBase opens (or creates) a durable base cluster rooted at dir. A
// fresh directory starts the cluster at initial and writes its first
// checkpoint segment; an existing one is recovered by replaying the newest
// checkpoint and then the live tail (a torn final tail line is truncated
// away — the commit it belonged to was never acknowledged). The returned
// cluster journals through the segment log with sync-before-ack, and its
// Checkpoint method rotates segments. Close the cluster's engine with
// CloseStore when done.
func OpenBase(dir string, initial model.State, cfg Config) (*BaseCluster, *Recovery, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, fmt.Errorf("replica: open base: %w", err)
	}
	d, err := store.OpenDisk(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("replica: open base: %w", err)
	}
	if m, ok := cfg.Observer.(*obs.Metrics); ok {
		d.Registry(m.Registry())
	}
	if d.Fresh() {
		b := newBaseCluster(initial, cfg, d)
		b.mu.Lock()
		// The tail stream carries no leading checkout record — the
		// checkpoint segment holds the cluster snapshot.
		b.journal = wal.NewWriter(d)
		b.mu.Unlock()
		if err := b.Checkpoint(); err != nil {
			d.Close()
			return nil, nil, fmt.Errorf("replica: open base: initial checkpoint: %w", err)
		}
		return b, &Recovery{}, nil
	}
	b, rec, err := recoverFromSegments(d, cfg)
	if err != nil {
		d.Close()
		return nil, nil, err
	}
	return b, rec, nil
}

// recoverFromSegments rebuilds a cluster from an existing segment pair and
// attaches a journal continuing the tail.
func recoverFromSegments(d *store.Disk, cfg Config) (*BaseCluster, *Recovery, error) {
	ckpt, tail, err := d.ReadSegments()
	if err != nil {
		return nil, nil, fmt.Errorf("replica: open base: %w", err)
	}
	// The checkpoint segment was written atomically (temp + fsync +
	// rename): any damage at all — including a torn final line — is
	// corruption, not a crash artifact.
	cres, err := wal.Scan(bytes.NewReader(ckpt), wal.Strict)
	if err != nil || cres.Torn {
		return nil, nil, fmt.Errorf("replica: open base: checkpoint segment: %w", wal.ErrCorrupt)
	}
	// The tail is the live continuation: its own record stream (seqs from
	// 1, no checkout), where only a torn final line is tolerated.
	tres, err := wal.Scan(bytes.NewReader(tail), wal.Strict)
	if err != nil {
		return nil, nil, fmt.Errorf("replica: open base: tail segment: %w", err)
	}
	b, rec, err := recoverCluster(cfg, d, cres, tres)
	if err != nil {
		return nil, nil, err
	}
	// Repair the tail before appends resume. A trailing open transaction
	// was never acknowledged: its records are dropped from the replay AND
	// from the file — the client re-runs it, and its re-logged records
	// must not glue onto the stale ones. A torn trailing fragment is cut
	// the same way, and a final record that survived complete but lost
	// only its terminating newline is re-terminated so the next append
	// starts a fresh line.
	keep := len(tres.Records)
	if rec.Dropped > 0 {
		keep = openTxnStart(tres.Records)
	}
	tailBounds := lineBounds(tail)
	cut := int64(len(tail))
	switch {
	case keep == 0:
		cut = 0
	case keep <= len(tailBounds):
		cut = int64(tailBounds[keep-1])
	}
	if cut < int64(len(tail)) {
		if err := d.TruncateTail(cut); err != nil {
			return nil, nil, fmt.Errorf("replica: open base: %w", err)
		}
	} else if n := len(tail); n > 0 && tail[n-1] != '\n' {
		if _, err := d.Write([]byte{'\n'}); err != nil {
			return nil, nil, fmt.Errorf("replica: open base: %w", err)
		}
	}

	b.mu.Lock()
	jw := wal.NewWriter(d)
	jw.SetSeq(int64(keep))
	b.journal = jw
	b.mu.Unlock()
	return b, rec, nil
}

// Checkpoint writes the cluster's current window as a fresh checkpoint
// segment and truncates the journal to the tail written since — the log
// stops growing with history. The snapshot is captured
// and the rotation epoch split under the cluster mutex; the file work
// (write, fsync, rename, truncate) runs outside it. Concurrent commits are
// safe: their buffered records land in whichever tail their epoch selects,
// and a commit's sync-before-ack parks on the rotation gate until the new
// tail is live. Concurrent Checkpoint calls are serialized on ckptGate —
// interleaved boundary splits would flush records committed between the
// two captures into a generation the first rotation deletes.
//
// A failed rotation wedges the journal (store.Disk seals itself): the
// boundary already restarted the record numbering, so appending to the
// old tail again would corrupt it. From then on no commit or window
// advance can force the log, so nothing further is acknowledged; the
// on-disk old generation holds every commit acknowledged before the
// failure, and restarting the cluster recovers it. Operators should treat
// a Checkpoint error as fatal and restart.
//
//tiermerge:locks(none)
//tiermerge:blocking
func (b *BaseCluster) Checkpoint() error {
	if b.disk == nil {
		return ErrNoDurableStore
	}
	b.ckptGate <- struct{}{}
	defer func() { <-b.ckptGate }()
	b.mu.Lock()
	win := b.windowID
	origin := b.windowOrigin.Clone()
	entries := make([]baseEntry, len(b.entries))
	copy(entries, b.entries)
	// The checkpoint supersedes everything the version chains carry below
	// the current window origin.
	cs := b.store.Checkpoint(b.windowID, 0)
	b.disk.BeginRotate()
	if b.journal != nil {
		b.journal.ResetSeq()
	}
	b.mu.Unlock()

	st, err := b.disk.CompleteRotate(func(w io.Writer) error {
		jw := wal.NewWriter(w)
		if err := jw.Checkout(win, 0, origin); err != nil {
			return err
		}
		for _, e := range entries {
			if err := jw.LogTxn(e.t, e.eff); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("replica: checkpoint: %w", err)
	}
	b.counters.Update(func(c *cost.Counts) {
		c.StoreCheckpoints++
		c.StoreVersionsCompacted += int64(cs.Compacted)
		c.StoreBytesTruncated += st.TruncatedBytes
	})
	b.emit(obs.Event{
		Phase: obs.PhaseCheckpoint,
		Saved: len(entries),
	})
	return nil
}

// openTxnStart returns the index of the first record of the trailing open
// transaction — the truncation point that drops an unacknowledged tail
// txn's records from the file. It is len(recs) when the stream ends on a
// transaction boundary.
func openTxnStart(recs []wal.Record) int {
	start := len(recs)
	for i, r := range recs {
		switch r.Kind {
		case wal.KindBegin:
			start = i
		case wal.KindCommit:
			start = len(recs)
		}
	}
	return start
}

// lineBounds returns the byte offset just past each newline — the
// record-boundary offsets of a journal image.
func lineBounds(data []byte) []int {
	var out []int
	for i, c := range data {
		if c == '\n' {
			out = append(out, i+1)
		}
	}
	return out
}

// CloseStore flushes and closes the cluster's storage engine. The cluster
// must be quiescent — no in-flight commits or merges.
//
//tiermerge:locks(none)
//tiermerge:blocking
func (b *BaseCluster) CloseStore() error { return b.store.Close() }

// LogSize reports the on-disk footprint of the segment log (checkpoint +
// tail), or 0 without a durable store.
//
//tiermerge:locks(none)
func (b *BaseCluster) LogSize() int64 {
	if b.disk == nil {
		return 0
	}
	return b.disk.LogSize()
}
