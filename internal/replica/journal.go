package replica

import (
	"errors"
	"fmt"
	"io"

	"tiermerge/internal/cost"
	"tiermerge/internal/model"
	"tiermerge/internal/obs"
	"tiermerge/internal/store"
	"tiermerge/internal/tx"
	"tiermerge/internal/wal"
)

// Journaling and crash recovery for both tiers, over internal/wal, which
// alone knows the record format. A mobile node journals its disconnection
// period (checkout, then every tentative transaction) and RecoverMobileNode
// replays it. The base tier's correctness leans on base transactions being
// durable ("in order to ensure the durability of base transactions, only
// tentative transactions can be put into B", Section 2.1): a BaseCluster
// journals its window — the origin snapshot, every committed entry
// (ordinary base transactions, re-executed tentative transactions and
// forwarded-update transactions alike) and every window advance — and
// commit paths force the journal to stable media before they acknowledge
// (syncJournal). RecoverBaseCluster replays and verifies a whole journal.
// OpenBase (DESIGN.md §14) roots a cluster in a store.Disk engine instead:
// the same stream is split into an atomically rotated checkpoint segment
// and a live tail, Checkpoint writes the current window as a fresh
// self-contained segment and truncates the log to the tail written since,
// and recovery replays checkpoint-then-tail instead of the full history.

// AttachJournal starts write-ahead logging of the node's current
// disconnection period onto w: the current checkout is recorded
// immediately and every subsequent tentative transaction is journaled with
// its code, read values and write images. The journal covers one period —
// after the next Checkout the caller attaches a fresh journal (or none).
//
// A journal-recovered node (RecoverMobileNode) has no journal attached;
// call AttachJournal on it to re-establish durability for the rest of the
// period — the already-replayed transactions are re-journaled, so the new
// journal is complete on its own.
func (m *MobileNode) AttachJournal(w io.Writer) error {
	// Journal any transactions already run this period, so attaching late
	// still yields a complete journal.
	jw, err := m.journalPeriod(w, m.ck.Origin)
	if err != nil {
		return err
	}
	// Force the attachment snapshot to stable media (when w supports it)
	// before reporting the journal live.
	if err := jw.Sync(); err != nil {
		return err
	}
	m.journal = jw
	return nil
}

// journalPeriod writes the node's whole period onto w — its checkout with
// origin, then every tentative transaction run so far — and returns the
// writer that continues it. The mobile's own journal records the whole
// origin (recovery rebuilds the replica from it); a reconnect payload only
// Hm's footprint of it (Client.marshalJournal).
func (m *MobileNode) journalPeriod(w io.Writer, origin model.State) (*wal.Writer, error) {
	return wal.NewPeriod(w, m.ck.WindowID, m.ck.Pos, origin, m.run.H.Len(),
		func(i int) (*tx.Transaction, *tx.Effect) { return m.run.H.Txn(i), m.run.Effects[i] })
}

// logTentative journals one executed transaction when a journal is
// attached, forcing it to stable media before the caller acknowledges: an
// acked tentative transaction must survive a power loss, not just a
// process crash.
func (m *MobileNode) logTentative(t *tx.Transaction, eff *tx.Effect) error {
	if m.journal == nil {
		return nil
	}
	if err := m.journal.LogTxn(t, eff); err != nil {
		return err
	}
	return m.journal.Sync()
}

// Recovery reports what a crash recovery found in the journal: how much
// was replayed and what crash damage the log carried. A transaction is in
// the log exactly when the commit record holding it is whole, so the only
// crash damage is a torn final record; a false TornTail means the journal
// was pristine.
type Recovery struct {
	// Records is the number of journal records decoded and replayed.
	Records int
	// Committed is the number of committed transactions reconstructed into
	// the recovered history.
	Committed int
	// TornTail reports that the journal ended in a partially written
	// record (the crash interrupted the final append); it was dropped with
	// every transaction it held, none of which was acknowledged.
	TornTail bool
	// TornRecord and TornOffset locate the torn record when TornTail is
	// set (1-based record number, byte offset of its frame).
	TornRecord int
	TornOffset int64
}

func (r *Recovery) String() string {
	s := fmt.Sprintf("recovery: %d records, %d committed", r.Records, r.Committed)
	if r.TornTail {
		s += fmt.Sprintf(", torn tail at record %d (offset %d)", r.TornRecord, r.TornOffset)
	}
	return s
}

// charge bills the recovery into b: the recovery counters and one
// observer event attributed to who, stamped seq. Events are never emitted
// under b.mu, so neither is this.
func (r *Recovery) charge(b *BaseCluster, who string, seq int64) {
	b.counters.Update(func(c *cost.Counts) {
		c.Recoveries++
		c.WalRecordsReplayed += int64(r.Records)
	})
	ev := obs.Event{Mobile: who, Seq: seq, Phase: obs.PhaseRecover, Detail: "strict", Replayed: r.Records}
	if r.TornTail {
		ev.Cause = obs.CauseTornTail
	}
	b.emit(ev)
}

// RecoverMobileNode rebuilds a mobile node from its journal after a crash:
// the committed prefix of the tentative history is replayed and verified
// against the logged read values, write images and before-images; a torn
// final record is dropped (its user never got an acknowledgement), and the
// returned Recovery reports exactly what was replayed and whether a record
// tore. Damage anywhere else — a record failing its checksum, a
// dropped or duplicated record — fails with wal.ErrCorrupt
// instead of silently dropping acknowledged work.
//
// The recovered node holds the same checkout token it crashed with, so its
// next connect merges (or falls back) exactly as the lost node would have.
// It is not yet bound to a cluster (call Bind to hand it its cluster,
// which also emits the recovery to the cluster's observer)
// and has no journal attached — call AttachJournal to re-establish
// durability for the remainder of the period.
func RecoverMobileNode(id string, r io.Reader) (*MobileNode, *Recovery, error) {
	res, err := wal.Scan(r, wal.Strict)
	if err != nil {
		return nil, nil, fmt.Errorf("replica: recover %s: %w", id, err)
	}
	rep, err := wal.Replay(res.Records)
	if err != nil {
		return nil, nil, fmt.Errorf("replica: recover %s: %w", id, err)
	}
	rec := &Recovery{
		Records:    len(res.Records),
		Committed:  rep.Augmented.H.Len(),
		TornTail:   res.Torn,
		TornRecord: res.TornRecord,
		TornOffset: res.TornOffset,
	}
	m := &MobileNode{
		ID: id,
		ck: Checkout{
			MobileID: id,
			WindowID: rep.WindowID,
			Pos:      rep.Pos,
			Origin:   rep.Origin,
		},
		run:       rep.Augmented,
		recovered: rec,
	}
	return m, rec, nil
}

// AttachJournal starts journaling the cluster onto w: the current master
// snapshot and window are recorded immediately, followed by every
// subsequent commit and window advance. Entries committed in the current
// window before attachment are journaled too, so attaching late still
// yields a recoverable log. The attachment snapshot is forced to stable
// media (when w supports it) before AttachJournal returns.
func (b *BaseCluster) AttachJournal(w io.Writer) error {
	b.mu.Lock()
	jw, err := journalWindow(w, b.windowID, b.windowOrigin, b.entries)
	if err == nil {
		b.journal = jw
	}
	b.mu.Unlock()
	if err != nil {
		return err
	}
	return b.syncJournal()
}

// journalWindow writes one base window onto w as a journal period — the
// window's checkout record, then every entry — and returns the writer that
// continues it.
func journalWindow(w io.Writer, windowID int, origin model.State, entries []baseEntry) (*wal.Writer, error) {
	return wal.NewPeriod(w, windowID, 0, origin, len(entries),
		func(i int) (*tx.Transaction, *tx.Effect) { return entries[i].t, entries[i].eff })
}

// logCommit stages one committed base entry in the commit record the
// critical section ends with (commitJournal), so everything one section
// installs reaches the log as one record: whole, or torn and not at all.
// Caller holds b.mu.
func (b *BaseCluster) logCommit(t *tx.Transaction, eff *tx.Effect) error {
	if b.journal == nil {
		return nil
	}
	return b.journal.Stage(t, eff)
}

// commitJournal writes the entries logCommit staged as one commit record.
// Journal failures are returned to the committing path — a base that
// cannot log a commit must not acknowledge it. The record lands in the
// journal's buffer here; the committing path forces it with syncJournal
// after releasing the mutex (file I/O never runs under b.mu). Caller holds
// b.mu.
func (b *BaseCluster) commitJournal() error {
	if b.journal == nil {
		return nil
	}
	return b.journal.Commit()
}

// logWindow journals a window advance. Caller holds b.mu.
func (b *BaseCluster) logWindow() error {
	if b.journal == nil {
		return nil
	}
	return b.journal.Window(b.windowID, b.windowOrigin)
}

// replay applies the decoded records of one base journal stream — commits
// and window advances, after any checkout record — to the cluster: each
// transaction re-executes on the master and must reproduce what the journal
// logged (wal.Group.Verify). It returns the number of committed
// transactions. Caller holds b.mu.
func (b *BaseCluster) replay(recs []wal.Record) (committed int, err error) {
	groups, err := wal.Groups(recs)
	if err != nil {
		return 0, fmt.Errorf("replica: recover base: %w", err)
	}
	for i := range groups {
		g := &groups[i]
		if g.Txn == nil {
			b.windowID = g.WindowID
			b.windowOrigin = model.StateOf(g.Origin)
			if !b.windowOrigin.Equal(b.master) {
				return 0, fmt.Errorf("replica: recover base: %w: window origin diverges from replayed master",
					wal.ErrCorrupt)
			}
			b.entries = nil
			continue
		}
		eff, err := g.Txn.ExecInPlace(b.master, nil)
		if err != nil {
			return 0, fmt.Errorf("replica: recover base: replay %s: %w", g.Txn.ID, err)
		}
		if err := g.Verify(eff); err != nil {
			return 0, fmt.Errorf("replica: recover base: %w", err)
		}
		b.entries = append(b.entries, baseEntry{t: g.Txn, eff: eff})
		committed++
	}
	return committed, nil
}

// RecoverBaseCluster rebuilds a base cluster from its journal: the master
// state, the current window and its origin, and the base history of the
// current window (so pending mobile merges from that window still find
// their base sub-histories). Like mobile recovery, the only damage tolerated
// is a torn final record (the commit it belonged to was never acknowledged);
// interior damage is wal.ErrCorrupt. The returned Recovery reports what
// was replayed.
func RecoverBaseCluster(r io.Reader, cfg Config) (*BaseCluster, *Recovery, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, fmt.Errorf("replica: recover base: %w", err)
	}
	res, err := wal.Scan(r, wal.Strict)
	if err != nil {
		return nil, nil, fmt.Errorf("replica: recover base: %w", err)
	}
	return recoverCluster(cfg, nil, res)
}

// recoverCluster rebuilds a cluster journaling through disk (nil: in
// memory) from scanned journal streams: the first leads with the checkout
// record — the master snapshot and window the journal starts from — and
// each later one continues it without a header. A torn final record of the
// last stream was dropped by the scan and is reported (Recovery.TornTail).
// The recovery is charged to the recovered cluster's counters and
// observer.
func recoverCluster(cfg Config, disk *store.Disk, streams ...*wal.ScanResult) (*BaseCluster, *Recovery, error) {
	head, body, err := wal.SplitCheckout(streams[0].Records)
	if err != nil {
		return nil, nil, fmt.Errorf("replica: recover base: %w", err)
	}
	b := newBaseCluster(model.StateOf(head.Origin), cfg, disk)
	last := streams[len(streams)-1]
	rec := &Recovery{TornTail: last.Torn, TornRecord: last.TornRecord, TornOffset: last.TornOffset}
	// Replay under the cluster mutex; the recovery event is emitted after
	// the lock is released (events are never emitted under b.mu).
	b.mu.Lock()
	b.windowID = head.WindowID
	for i, s := range streams {
		recs := s.Records
		if i == 0 {
			recs = body
		}
		committed, err := b.replay(recs)
		if err != nil {
			b.mu.Unlock()
			return nil, nil, err
		}
		rec.Records += len(s.Records)
		rec.Committed += committed
	}
	b.mu.Unlock()
	rec.charge(b, "base", 0)
	return b, rec, nil
}

// ErrNoDurableStore is returned by Checkpoint on a cluster whose storage
// engine is not durable (NewBaseCluster, RecoverBaseCluster).
var ErrNoDurableStore = errors.New("replica: cluster has no durable store")

// OpenBase opens (or creates) a durable base cluster rooted at dir. A
// fresh directory starts the cluster at initial and writes its first
// checkpoint segment; an existing one is recovered by replaying the newest
// checkpoint and then the live tail (a torn final tail record is truncated
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
	// rename): any damage at all — including a torn final record — is
	// corruption, not a crash artifact.
	cres, err := wal.ScanBytes(ckpt, wal.Strict)
	if err == nil && cres.Torn {
		err = fmt.Errorf("%s: %w", cres.TornReason, wal.ErrCorrupt)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("replica: open base: checkpoint segment: %w", err)
	}
	// The tail is the live continuation: its own record stream (seqs from
	// 1, no checkout), where only a torn final record is tolerated.
	tres, err := wal.ScanBytes(tail, wal.Strict)
	if err != nil {
		return nil, nil, fmt.Errorf("replica: open base: tail segment: %w", err)
	}
	b, rec, err := recoverCluster(cfg, d, cres, tres)
	if err != nil {
		return nil, nil, err
	}
	// Repair the tail before appends resume: a torn final record was never
	// acknowledged, and the records appended next must not glue onto it.
	jw := wal.NewWriter(d)
	if cut := jw.Resume(tres); cut < int64(len(tail)) {
		if err := d.TruncateTail(cut); err != nil {
			return nil, nil, fmt.Errorf("replica: open base: %w", err)
		}
	}
	b.mu.Lock()
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
func (b *BaseCluster) Checkpoint() error {
	if b.disk == nil {
		return ErrNoDurableStore
	}
	b.ckptGate <- struct{}{}
	defer func() { <-b.ckptGate }()
	b.mu.Lock()
	win := b.windowID
	origin := b.windowOrigin
	entries := make([]baseEntry, len(b.entries))
	copy(entries, b.entries)
	b.disk.BeginRotate()
	if b.journal != nil {
		b.journal.ResetSeq()
	}
	b.mu.Unlock()

	st, err := b.disk.CompleteRotate(func(w io.Writer) error {
		_, err := journalWindow(w, win, origin, entries)
		return err
	})
	if err != nil {
		return fmt.Errorf("replica: checkpoint: %w", err)
	}
	b.counters.Update(func(c *cost.Counts) {
		c.StoreCheckpoints++
		c.StoreBytesTruncated += st.TruncatedBytes
	})
	b.emit(obs.Event{
		Phase: obs.PhaseCheckpoint,
		Saved: len(entries),
	})
	return nil
}

// CloseStore flushes and closes the cluster's durable segment log, if it
// has one. The cluster must be quiescent — no in-flight commits or merges.
func (b *BaseCluster) CloseStore() error {
	if b.disk == nil {
		return nil
	}
	return b.disk.Close()
}

// LogSize reports the on-disk footprint of the segment log (checkpoint +
// tail), or 0 without a durable store.
func (b *BaseCluster) LogSize() int64 {
	if b.disk == nil {
		return 0
	}
	return b.disk.LogSize()
}
