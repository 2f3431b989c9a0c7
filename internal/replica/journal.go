package replica

import (
	"fmt"
	"io"

	"tiermerge/internal/cost"
	"tiermerge/internal/obs"
	"tiermerge/internal/tx"
	"tiermerge/internal/wal"
)

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
	jw := wal.NewWriter(w)
	if err := jw.Checkout(m.ck.WindowID, m.ck.Pos, m.ck.Origin); err != nil {
		return err
	}
	// Journal any transactions already run this period, so attaching late
	// still yields a complete journal.
	for i, eff := range m.run.Effects {
		if err := jw.LogTxn(m.run.H.Txn(i), eff); err != nil {
			return err
		}
	}
	// Force the attachment snapshot to stable media (when w supports it)
	// before reporting the journal live.
	if err := jw.Sync(); err != nil {
		return err
	}
	m.journal = jw
	return nil
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
// was replayed, what crash damage the log carried and what was discarded
// because of it. Zero Dropped and a false TornTail mean the journal was
// pristine.
type Recovery struct {
	// Records is the number of journal records decoded and replayed.
	Records int
	// Committed is the number of committed transactions reconstructed into
	// the recovered history.
	Committed int
	// Dropped counts trailing uncommitted transactions discarded at replay
	// (their users were never acknowledged).
	Dropped int
	// TornTail reports that the journal ended in a partially written line
	// (the crash interrupted the final append); the line was dropped.
	TornTail bool
	// TornLine and TornOffset locate the torn line when TornTail is set
	// (1-based line number, byte offset of the line start).
	TornLine   int
	TornOffset int64
}

func (r *Recovery) String() string {
	s := fmt.Sprintf("recovery: %d records, %d committed, %d dropped", r.Records, r.Committed, r.Dropped)
	if r.TornTail {
		s += fmt.Sprintf(", torn tail at line %d (offset %d)", r.TornLine, r.TornOffset)
	}
	return s
}

// event renders the recovery as an observer event (the caller stamps
// identity and emits it).
func (r *Recovery) event(who string) obs.Event {
	ev := obs.Event{
		Mobile:      who,
		Phase:       obs.PhaseRecover,
		Detail:      "strict",
		Replayed:    r.Records,
		DroppedTail: r.Dropped,
	}
	if r.TornTail {
		ev.Cause = obs.CauseTornTail
	}
	return ev
}

// RecoverMobileNode rebuilds a mobile node from its journal after a crash:
// the committed prefix of the tentative history is replayed and verified
// against the logged read values, write images and before-images; a torn
// trailing transaction is dropped (its user never got an acknowledgement),
// and the returned Recovery reports exactly what was replayed and what was
// discarded. Damage anywhere before the end of the journal — a malformed
// interior line, a dropped or duplicated line — fails with wal.ErrCorrupt
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
		Dropped:    rep.Dropped,
		TornTail:   res.Torn,
		TornLine:   res.TornLine,
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

// noteRecovery charges a journal recovery into the cluster the node just
// bound to: the recovery counters and one observer event, attributed to
// its own merge sequence number so traces show crash recoveries like any
// other reconnect span. Called once, at bind time.
func (m *MobileNode) noteRecovery(b *BaseCluster) {
	rec := m.recovered
	if rec == nil {
		return
	}
	m.recovered = nil
	b.counters.Update(func(c *cost.Counts) {
		c.Recoveries++
		c.WalRecordsReplayed += int64(rec.Records)
		c.WalTailDropped += int64(rec.Dropped)
	})
	ev := rec.event(m.ID)
	ev.Seq = b.mergeSeq.Add(1)
	b.emit(ev)
}
