package replica

import (
	"fmt"
	"io"

	"tiermerge/internal/cost"
	"tiermerge/internal/model"
	"tiermerge/internal/store"
	"tiermerge/internal/tx"
	"tiermerge/internal/wal"
)

// Base-tier durability. The protocol's correctness leans on base
// transactions being durable ("in order to ensure the durability of base
// transactions, only tentative transactions can be put into B",
// Section 2.1). The in-memory BaseCluster gains that durability through an
// attached journal: the initial master snapshot, every committed entry —
// ordinary base transactions, re-executed tentative transactions and
// forwarded-update transactions alike — and every window advance are
// appended; RecoverBaseCluster replays and verifies the whole log after a
// crash. Commit paths force the journal to stable media before they
// acknowledge (syncJournal); OpenBase in durable.go adds checkpointing and
// log truncation on top of the same record stream.

// AttachJournal starts journaling the cluster onto w: the current master
// snapshot and window are recorded immediately, followed by every
// subsequent commit and window advance. Entries committed in the current
// window before attachment are journaled too, so attaching late still
// yields a recoverable log. The attachment snapshot is forced to stable
// media (when w supports it) before AttachJournal returns.
func (b *BaseCluster) AttachJournal(w io.Writer) error {
	b.mu.Lock()
	jw := wal.NewWriter(w)
	err := jw.Checkout(b.windowID, 0, b.windowOrigin)
	for _, e := range b.entries {
		if err != nil {
			break
		}
		err = jw.LogTxn(e.t, e.eff)
	}
	if err == nil {
		b.journal = jw
	}
	b.mu.Unlock()
	if err != nil {
		return err
	}
	return b.syncJournal()
}

// logCommit journals one committed base entry. Caller holds b.mu. Journal
// failures are returned to the committing path — a base that cannot force
// its log must not acknowledge the commit. The record lands in the
// journal's buffer here; the committing path forces it with syncJournal
// after releasing the mutex (file I/O never runs under b.mu).
//
//tiermerge:locks(cluster)
func (b *BaseCluster) logCommit(t *tx.Transaction, eff *tx.Effect) error {
	if b.journal == nil {
		return nil
	}
	return b.journal.LogTxn(t, eff)
}

// logWindow journals a window advance. Caller holds b.mu.
//
//tiermerge:locks(cluster)
func (b *BaseCluster) logWindow() error {
	if b.journal == nil {
		return nil
	}
	return b.journal.Window(b.windowID, b.windowOrigin)
}

// replayRecords applies a stream of base journal records — commits and
// window advances, with no leading checkout — to the cluster. Every
// replayed commit is verified against its logged write images. It returns
// the number of committed transactions and whether the stream ended inside
// an open transaction (a torn tail's unacknowledged trailing commit, which
// the caller drops). Caller holds b.mu.
//
//tiermerge:locks(cluster)
func (b *BaseCluster) replayRecords(recs []wal.Record) (committed int, open bool, err error) {
	var (
		curTxn    *tx.Transaction
		curWrites map[model.Item]model.Value
	)
	for _, rec := range recs {
		switch rec.Kind {
		case wal.KindBegin:
			if curTxn != nil {
				return committed, false, fmt.Errorf("replica: recover base: %w: begin %s while %s open",
					wal.ErrCorrupt, rec.TxID, curTxn.ID)
			}
			t, err := tx.UnmarshalTransaction(rec.Txn)
			if err != nil {
				return committed, false, fmt.Errorf("replica: recover base: %w: %v", wal.ErrCorrupt, err)
			}
			curTxn = t
			curWrites = make(map[model.Item]model.Value)
		case wal.KindRead:
			if curTxn == nil || curTxn.ID != rec.TxID {
				return committed, false, fmt.Errorf("replica: recover base: %w: stray read for %s",
					wal.ErrCorrupt, rec.TxID)
			}
		case wal.KindWrite:
			if curTxn == nil || curTxn.ID != rec.TxID {
				return committed, false, fmt.Errorf("replica: recover base: %w: stray write for %s",
					wal.ErrCorrupt, rec.TxID)
			}
			curWrites[rec.Item] = rec.After
		case wal.KindCommit:
			if curTxn == nil || curTxn.ID != rec.TxID {
				return committed, false, fmt.Errorf("replica: recover base: %w: stray commit for %s",
					wal.ErrCorrupt, rec.TxID)
			}
			eff, err := curTxn.ExecInPlace(b.master, nil)
			if err != nil {
				return committed, false, fmt.Errorf("replica: recover base: replay %s: %w", curTxn.ID, err)
			}
			for it, v := range curWrites {
				if eff.Writes[it] != v {
					return committed, false, fmt.Errorf("replica: recover base: %w: %s wrote %s=%d, logged %d",
						wal.ErrCorrupt, curTxn.ID, it, eff.Writes[it], v)
				}
			}
			if len(curWrites) != len(eff.Writes) {
				return committed, false, fmt.Errorf("replica: recover base: %w: %s write-count mismatch",
					wal.ErrCorrupt, curTxn.ID)
			}
			b.appendEntry(baseEntry{t: curTxn, eff: eff})
			b.propagate(curTxn.ID, eff.Writes)
			committed++
			curTxn, curWrites = nil, nil
		case wal.KindWindow:
			if curTxn != nil {
				return committed, false, fmt.Errorf("replica: recover base: %w: window advance mid-transaction",
					wal.ErrCorrupt)
			}
			b.windowID = rec.WindowID
			b.windowOrigin = model.StateOf(rec.Origin)
			if !b.windowOrigin.Equal(b.master) {
				return committed, false, fmt.Errorf("replica: recover base: %w: window origin diverges from replayed master",
					wal.ErrCorrupt)
			}
			b.entries = nil
		case wal.KindCheckout:
			return committed, false, fmt.Errorf("replica: recover base: %w: duplicate checkout", wal.ErrCorrupt)
		default:
			return committed, false, fmt.Errorf("replica: recover base: %w: unknown record %q",
				wal.ErrCorrupt, rec.Kind)
		}
	}
	return committed, curTxn != nil, nil
}

// RecoverBaseCluster rebuilds a base cluster from its journal: the master
// state, the current window and its origin, and the base history of the
// current window (so pending mobile merges from that window still find
// their base sub-histories). Like mobile recovery, the only damage tolerated
// is a torn final line (the commit it belonged to was never acknowledged);
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
	return recoverCluster(cfg, store.NewMemory(), res)
}

// recoverCluster rebuilds a cluster writing through eng from scanned
// journal streams: the first leads with the checkout record — the master
// snapshot and window the journal starts from — and each later one
// continues it without a header. Every replayed commit is verified against
// its logged write images. Only the last stream may end inside an open
// transaction: that commit tore during the crash and was never
// acknowledged, so it is dropped — and reported (Recovery.Dropped). The
// recovery is charged to the recovered cluster's counters and observer.
func recoverCluster(cfg Config, eng store.Engine, streams ...*wal.ScanResult) (*BaseCluster, *Recovery, error) {
	head := streams[0].Records
	if len(head) == 0 || head[0].Kind != wal.KindCheckout {
		return nil, nil, fmt.Errorf("replica: recover base: %w", wal.ErrCorrupt)
	}
	b := newBaseCluster(model.StateOf(head[0].Origin), cfg, eng)
	last := streams[len(streams)-1]
	rec := &Recovery{TornTail: last.Torn, TornLine: last.TornLine, TornOffset: last.TornOffset}
	// Replay under the cluster mutex; the recovery event is emitted after
	// the lock is released (events are never emitted under b.mu).
	b.mu.Lock()
	b.windowID = head[0].WindowID
	for i, s := range streams {
		recs := s.Records
		if i == 0 {
			recs = recs[1:]
		}
		committed, open, err := b.replayRecords(recs)
		if err == nil && open && s != last {
			err = fmt.Errorf("replica: recover base: %w: stream %d ends mid-transaction", wal.ErrCorrupt, i)
		}
		if err != nil {
			b.mu.Unlock()
			return nil, nil, err
		}
		rec.Records += len(s.Records)
		rec.Committed += committed
		if open {
			rec.Dropped = 1
		}
	}
	b.mu.Unlock()
	b.counters.Update(func(c *cost.Counts) {
		c.Recoveries++
		c.WalRecordsReplayed += int64(rec.Records)
		c.WalTailDropped += int64(rec.Dropped)
	})
	b.emit(rec.event("base"))
	return b, rec, nil
}
