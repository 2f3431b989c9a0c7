package replica

import (
	"bytes"
	"errors"
	"testing"

	"tiermerge/internal/model"
	"tiermerge/internal/store"
	"tiermerge/internal/tx"
	"tiermerge/internal/wal"
	"tiermerge/internal/workload"
)

// TestBaseRecoveryRebuildsMasterAndWindow journals a busy base tier —
// ordinary commits, merges (forwarded updates + re-executions), a window
// advance — crashes it, and recovers an equivalent cluster.
func TestBaseRecoveryRebuildsMasterAndWindow(t *testing.T) {
	var journal bytes.Buffer
	b := NewBaseCluster(origin(), Config{})
	if err := b.AttachJournal(&journal); err != nil {
		t.Fatal(err)
	}
	if err := b.ExecBase(workload.Deposit("Tb1", tx.Base, "x", 10)); err != nil {
		t.Fatal(err)
	}
	m := NewMobileNode("m1", b)
	if err := m.Run(workload.Deposit("Tm1", tx.Tentative, "y", 5)); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(workload.SetPrice("Tm2", tx.Tentative, "x", 77)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ConnectMerge(); err != nil {
		t.Fatal(err)
	}
	b.AdvanceWindow()
	if err := b.ExecBase(workload.Deposit("Tb2", tx.Base, "z", 3)); err != nil {
		t.Fatal(err)
	}

	rec, _, err := RecoverBaseCluster(bytes.NewReader(journal.Bytes()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Master().Equal(b.Master()) {
		t.Errorf("recovered master %s != %s", rec.Master(), b.Master())
	}
	if rec.WindowID() != b.WindowID() {
		t.Errorf("recovered window %d != %d", rec.WindowID(), b.WindowID())
	}
	if rec.HistoryLen() != b.HistoryLen() {
		t.Errorf("recovered window history len %d != %d", rec.HistoryLen(), b.HistoryLen())
	}
	// The recovered cluster keeps working: a mobile merges against it.
	m2 := NewMobileNode("m2", rec)
	if err := m2.Run(workload.Deposit("Tm3", tx.Tentative, "w", 9)); err != nil {
		t.Fatal(err)
	}
	out, err := m2.ConnectMerge()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Merged || out.Saved != 1 {
		t.Errorf("post-recovery merge: %+v", out)
	}
	if got := rec.Master().Get("w"); got != 409 {
		t.Errorf("post-recovery w = %d, want 409", got)
	}
}

// TestBaseRecoveryDropsTornTail: a commit torn mid-record is dropped — the
// client was never acknowledged.
func TestBaseRecoveryDropsTornTail(t *testing.T) {
	var journal bytes.Buffer
	b := NewBaseCluster(origin(), Config{})
	if err := b.AttachJournal(&journal); err != nil {
		t.Fatal(err)
	}
	if err := b.ExecBase(workload.Deposit("Tb1", tx.Base, "x", 10)); err != nil {
		t.Fatal(err)
	}
	sizeAfterFirst := journal.Len()
	if err := b.ExecBase(workload.Deposit("Tb2", tx.Base, "x", 100)); err != nil {
		t.Fatal(err)
	}
	// Tear inside the second commit's records.
	torn := journal.Bytes()[:sizeAfterFirst+20]
	rec, _, err := RecoverBaseCluster(bytes.NewReader(torn), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Master().Get("x"); got != 110 {
		t.Errorf("recovered x = %d, want 110 (second commit dropped)", got)
	}
}

// TestBaseRecoveryDetectsTamper: base recovery verifies every replayed
// commit against everything the journal logged for it — after-image, read
// value, before-image and delta annotation — both from a whole journal
// (RecoverBaseCluster) and from a durable tail segment (OpenBase).
func TestBaseRecoveryDetectsTamper(t *testing.T) {
	// Tb1 (x := x + 10 on x = 100) commits one record whose entry for x
	// logs read x=100 and write x 100 -> 110 with delta 10. Each tamper
	// edits that entry and re-encodes the stream with valid frames, so
	// only replay verification can catch it.
	tampers := []struct {
		name string
		edit func(e *wal.Entry) bool
	}{
		{"after-image", func(e *wal.Entry) bool { return e.Written && bump(&e.After, 110) }},
		{"read value", func(e *wal.Entry) bool { return e.Observed && bump(&e.Value, 100) }},
		{"before-image", func(e *wal.Entry) bool { return e.Written && bump(&e.Before, 100) }},
		{"stripped delta", func(e *wal.Entry) bool {
			if e.Delta == nil || *e.Delta != 10 {
				return false
			}
			e.Delta = nil
			return true
		}},
	}
	tamper := func(t *testing.T, log []byte, edit func(*wal.Entry) bool) []byte {
		t.Helper()
		res, err := wal.ScanBytes(log, wal.Strict)
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		done := false
		for _, r := range res.Records {
			for _, txn := range r.Txns {
				for i := range txn.Items {
					if !done {
						done = edit(&txn.Items[i])
					}
				}
			}
			if out, err = wal.AppendRecord(out, r); err != nil {
				t.Fatal(err)
			}
		}
		if !done {
			t.Fatalf("tamper target not found in %d records", len(res.Records))
		}
		return out
	}
	for _, tc := range tampers {
		t.Run(tc.name+"/journal", func(t *testing.T) {
			var journal bytes.Buffer
			b := NewBaseCluster(origin(), Config{})
			if err := b.AttachJournal(&journal); err != nil {
				t.Fatal(err)
			}
			if err := b.ExecBase(workload.Deposit("Tb1", tx.Base, "x", 10)); err != nil {
				t.Fatal(err)
			}
			tampered := tamper(t, journal.Bytes(), tc.edit)
			if _, _, err := RecoverBaseCluster(bytes.NewReader(tampered), Config{}); !errors.Is(err, wal.ErrCorrupt) {
				t.Errorf("tampered base journal recovered with %v, want wal.ErrCorrupt", err)
			}
		})
		t.Run(tc.name+"/tail-segment", func(t *testing.T) {
			dir := t.TempDir()
			b, _, err := OpenBase(dir, origin(), Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := b.ExecBase(workload.Deposit("Tb1", tx.Base, "x", 10)); err != nil {
				t.Fatal(err)
			}
			if err := b.CloseStore(); err != nil {
				t.Fatal(err)
			}
			gen, ckpt, tail, err := store.Segments(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.WriteSegments(dir, gen, ckpt, tamper(t, tail, tc.edit)); err != nil {
				t.Fatal(err)
			}
			if b, _, err := OpenBase(dir, nil, Config{}); !errors.Is(err, wal.ErrCorrupt) {
				if err == nil {
					b.CloseStore()
				}
				t.Errorf("tampered tail segment recovered with %v, want wal.ErrCorrupt", err)
			}
		})
	}
}

// bump adds one to *v when it holds want.
func bump(v *model.Value, want model.Value) bool {
	if *v != want {
		return false
	}
	*v++
	return true
}

// TestBaseRecoveryLateAttach: attaching after commits still journals them.
func TestBaseRecoveryLateAttach(t *testing.T) {
	b := NewBaseCluster(origin(), Config{})
	if err := b.ExecBase(workload.Deposit("Tb1", tx.Base, "x", 10)); err != nil {
		t.Fatal(err)
	}
	var journal bytes.Buffer
	if err := b.AttachJournal(&journal); err != nil {
		t.Fatal(err)
	}
	if err := b.ExecBase(workload.Deposit("Tb2", tx.Base, "y", 4)); err != nil {
		t.Fatal(err)
	}
	rec, _, err := RecoverBaseCluster(bytes.NewReader(journal.Bytes()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Master().Equal(b.Master()) {
		t.Errorf("recovered %s != %s", rec.Master(), b.Master())
	}
}
