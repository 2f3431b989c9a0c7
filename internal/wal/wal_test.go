package wal

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"tiermerge/internal/history"
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// journalHistory runs n generated transactions from origin, journaling each.
func journalHistory(t *testing.T, buf *bytes.Buffer, seed int64, n int) (model.State, *history.Augmented) {
	t.Helper()
	gen := workload.NewGenerator(workload.Config{Seed: seed, Items: 10})
	origin := gen.OriginState()
	w := NewWriter(buf)
	if err := w.Checkout(3, 7, origin); err != nil {
		t.Fatal(err)
	}
	h := &history.History{}
	cur := origin.Clone()
	for i := 0; i < n; i++ {
		txn := gen.Txn(tx.Tentative)
		next, eff, err := txn.Exec(cur, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.LogTxn(txn, eff); err != nil {
			t.Fatal(err)
		}
		h.Append(txn)
		cur = next
	}
	aug, err := history.Run(h, origin)
	if err != nil {
		t.Fatal(err)
	}
	return origin, aug
}

func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	origin, want := journalHistory(t, &buf, 11, 8)

	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(recs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowID != 3 || rep.Pos != 7 {
		t.Errorf("checkout metadata: window=%d pos=%d", rep.WindowID, rep.Pos)
	}
	if !rep.Origin.Equal(origin) {
		t.Errorf("origin = %s, want %s", rep.Origin, origin)
	}
	if rep.Augmented.H.Len() != want.H.Len() {
		t.Fatalf("replayed %d transactions, want %d", rep.Augmented.H.Len(), want.H.Len())
	}
	if !rep.Augmented.Final().Equal(want.Final()) {
		t.Errorf("replayed final %s, want %s", rep.Augmented.Final(), want.Final())
	}
	if rep.Dropped != 0 {
		t.Errorf("dropped = %d, want 0", rep.Dropped)
	}
	// Effects must match, entry by entry.
	for i := range want.Effects {
		w, g := want.Effects[i], rep.Augmented.Effects[i]
		if len(w.Writes) != len(g.Writes) {
			t.Errorf("txn %d: write counts differ", i)
		}
	}
}

func TestReplayDropsUncommittedTail(t *testing.T) {
	var buf bytes.Buffer
	gen := workload.NewGenerator(workload.Config{Seed: 21, Items: 8})
	origin := gen.OriginState()
	w := NewWriter(&buf)
	if err := w.Checkout(1, 0, origin); err != nil {
		t.Fatal(err)
	}
	t1 := workload.Deposit("T1", tx.Tentative, "d1", 5)
	_, eff, err := t1.Exec(origin, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.LogTxn(t1, eff); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-transaction: begin without commit.
	t2 := workload.Deposit("T2", tx.Tentative, "d2", 9)
	code, err := tx.MarshalTransaction(t2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(Record{Kind: KindBegin, TxID: "T2", Txn: code}); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(recs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Augmented.H.Len() != 1 || rep.Dropped != 1 {
		t.Errorf("replayed %d committed, dropped %d; want 1/1",
			rep.Augmented.H.Len(), rep.Dropped)
	}
}

func TestReplayToleratesTornFinalLine(t *testing.T) {
	var buf bytes.Buffer
	journalHistory(t, &buf, 31, 3)
	// Tear the journal mid-line, as a crash during a write would.
	data := buf.Bytes()
	data = data[:len(data)-7]
	recs, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(recs); err != nil {
		// Acceptable outcomes: the torn line was a commit (transaction
		// dropped) or mid-transaction records vanished — but a hard corrupt
		// error must not occur for a clean prefix tear unless the tear left
		// a stray read/write. Replay may legitimately report corruption
		// only when the tear bisected a transaction's record group in a
		// contradictory way; for a tail tear it must succeed.
		t.Fatalf("tail tear must replay the committed prefix: %v", err)
	}
}

func TestReplayDetectsTamperedValues(t *testing.T) {
	var buf bytes.Buffer
	journalHistory(t, &buf, 41, 4)
	// Change a logged write image; the frame is re-encoded with a valid
	// checksum, so only replay verification can catch it.
	tampered := tamper(t, buf.Bytes(), func(r *Record) bool {
		if r.Kind != KindWrite {
			return false
		}
		r.After++
		return true
	})
	recs, err := ReadAll(bytes.NewReader(tampered))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(recs); !errors.Is(err, ErrCorrupt) {
		t.Errorf("tampered journal replayed without ErrCorrupt: %v", err)
	}
}

// tamper decodes a journal, lets edit change its first record edit
// accepts, and re-encodes every record with valid frames.
func tamper(t *testing.T, data []byte, edit func(*Record) bool) []byte {
	t.Helper()
	recs, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	done := false
	var out []byte
	for _, r := range recs {
		if !done {
			done = edit(&r)
		}
		if out, err = AppendRecord(out, r); err != nil {
			t.Fatal(err)
		}
	}
	if !done {
		t.Fatal("tamper target not found")
	}
	return out
}

// frames splits a journal into its records' frames.
func frames(t *testing.T, data []byte) [][]byte {
	t.Helper()
	res, err := Scan(bytes.NewReader(data), Strict)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(res.Ends))
	start := int64(0)
	for i, end := range res.Ends {
		out[i] = data[start:end]
		start = end
	}
	return out
}

func TestReplayRejectsMalformedJournals(t *testing.T) {
	valid := func() []Record {
		var buf bytes.Buffer
		journalHistory(t, &buf, 51, 2)
		recs, err := ReadAll(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}

	t.Run("missing checkout", func(t *testing.T) {
		recs := valid()[1:]
		if _, err := Replay(recs); !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("duplicate checkout", func(t *testing.T) {
		recs := valid()
		recs = append(recs, recs[0])
		if _, err := Replay(recs); !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("stray commit", func(t *testing.T) {
		recs := valid()
		recs = append(recs, Record{Kind: KindCommit, TxID: "ghost"})
		if _, err := Replay(recs); !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("stray read", func(t *testing.T) {
		recs := valid()
		recs = append(recs, Record{Kind: KindRead, TxID: "ghost", Item: "d1"})
		if _, err := Replay(recs); !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("empty journal", func(t *testing.T) {
		if _, err := Replay(nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %v", err)
		}
	})
}

// TestReplayAtEveryCrashPoint cuts a journal at every byte offset and
// requires recovery to either replay a committed prefix or fail with a
// clean ErrCorrupt — never panic, never fabricate transactions, and never
// shrink a prefix that a longer cut could replay.
func TestReplayAtEveryCrashPoint(t *testing.T) {
	var buf bytes.Buffer
	journalHistory(t, &buf, 71, 5)
	data := buf.Bytes()
	prevCommitted := -1
	for cut := 0; cut <= len(data); cut++ {
		recs, err := ReadAll(bytes.NewReader(data[:cut]))
		if err != nil {
			continue // unreadable torn line prefix: acceptable
		}
		rep, err := Replay(recs)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut %d: non-ErrCorrupt failure: %v", cut, err)
			}
			continue
		}
		n := rep.Augmented.H.Len()
		if n > 5 {
			t.Fatalf("cut %d: fabricated transactions: %d", cut, n)
		}
		if n < prevCommitted {
			// Committed prefixes must be monotone in the cut point.
			t.Fatalf("cut %d: committed prefix shrank from %d to %d", cut, prevCommitted, n)
		}
		prevCommitted = n
	}
	if prevCommitted != 5 {
		t.Fatalf("full journal replayed %d of 5", prevCommitted)
	}
}

// TestReadAllRejectsMidJournalCorruption is the regression test for the
// torn-record guard: a record cut short in the *middle* of a journal,
// followed by validly committed transactions, must fail with ErrCorrupt —
// silently truncating there would drop acknowledged work.
func TestReadAllRejectsMidJournalCorruption(t *testing.T) {
	var buf bytes.Buffer
	journalHistory(t, &buf, 61, 4)
	recs := frames(t, buf.Bytes())
	if len(recs) < 4 {
		t.Fatalf("journal too short: %d records", len(recs))
	}
	// Mangle an interior record (not the last one).
	mid := len(recs) / 2
	recs[mid] = recs[mid][:len(recs[mid])/2]
	if _, err := ReadAll(bytes.NewReader(bytes.Join(recs, nil))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("mid-journal corruption: got %v, want ErrCorrupt", err)
	}
}

// TestReadAllDetectsDroppedAndDuplicatedLines: sequence numbers are
// contiguous, so a lost or repeated buffer flush is corruption even though
// every surviving record is intact.
func TestReadAllDetectsDroppedAndDuplicatedLines(t *testing.T) {
	var buf bytes.Buffer
	journalHistory(t, &buf, 62, 3)
	recs := frames(t, buf.Bytes())
	mid := len(recs) / 2

	dropped := bytes.Join(slices.Delete(slices.Clone(recs), mid, mid+1), nil)
	if _, err := ReadAll(bytes.NewReader(dropped)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("dropped record: got %v, want ErrCorrupt", err)
	}

	duplicated := bytes.Join(slices.Insert(slices.Clone(recs), mid, recs[mid]), nil)
	if _, err := ReadAll(bytes.NewReader(duplicated)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("duplicated record: got %v, want ErrCorrupt", err)
	}
}

// TestReadAllToleratesTornFinalLineOnly: the one acceptable damage shape,
// a final frame cut short by the end of the stream.
func TestReadAllToleratesTornFinalLineOnly(t *testing.T) {
	var buf bytes.Buffer
	journalHistory(t, &buf, 63, 3)
	data := buf.Bytes()
	torn := data[:len(data)-5] // cut mid final frame
	recs, err := ReadAll(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("torn final frame must be tolerated: %v", err)
	}
	full, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(full)-1 {
		t.Errorf("torn tail: %d records, want %d", len(recs), len(full)-1)
	}
}

// TestScanRejectsDamageAnywhere flips each byte of a journal in turn. A
// flip inside a complete frame — the final one included — fails a check
// and is ErrCorrupt: only a frame cut short by the end of the stream is a
// tear.
func TestScanRejectsDamageAnywhere(t *testing.T) {
	var buf bytes.Buffer
	journalHistory(t, &buf, 66, 2)
	data := buf.Bytes()
	for i := range data {
		flipped := slices.Clone(data)
		flipped[i] ^= 0x5a
		if _, err := Scan(bytes.NewReader(flipped), Strict); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("byte %d flipped: scan returned %v, want ErrCorrupt", i, err)
		}
	}
}

// TestLengthCheckCatchesByteErrors proves the header check catches every
// single-byte error in the length: the check is linear in the length
// bytes, so testing each error pattern against one length covers them all.
func TestLengthCheckCatchesByteErrors(t *testing.T) {
	zero := lengthCheck([]byte{0, 0, 0, 0})
	for pos := 0; pos < 4; pos++ {
		for e := 1; e < 256; e++ {
			length := []byte{0, 0, 0, 0}
			length[pos] = byte(e)
			if lengthCheck(length) == zero {
				t.Errorf("error %#02x at length byte %d goes unnoticed", e, pos)
			}
		}
	}
}

// TestScanRefusesJSONLines: a journal in the format of earlier versions
// fails by name, in both modes, rather than as unexplained damage.
func TestScanRefusesJSONLines(t *testing.T) {
	old := `{"seq":1,"kind":"checkout","window":1,"origin":{"x":5}}` + "\n"
	for _, mode := range []ScanMode{Strict, Salvage} {
		_, err := Scan(strings.NewReader(old), mode)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "JSON-lines") {
			t.Errorf("mode %d: JSON-lines journal scanned with %v", mode, err)
		}
	}
}

// TestScanSalvageReportsTear: salvage mode survives interior damage and
// reports where the journal tears and what it discarded.
func TestScanSalvageReportsTear(t *testing.T) {
	var buf bytes.Buffer
	journalHistory(t, &buf, 64, 4)
	recs := frames(t, buf.Bytes())
	mid := len(recs) / 2
	recs[mid] = []byte("garbage{{{")
	damaged := bytes.Join(recs, nil)

	res, err := Scan(bytes.NewReader(damaged), Salvage)
	if err != nil {
		t.Fatalf("salvage must not fail: %v", err)
	}
	if !res.Torn || res.TornRecord != mid+1 {
		t.Errorf("tear at record %d (torn=%v), want record %d", res.TornRecord, res.Torn, mid+1)
	}
	if len(res.Records) != mid {
		t.Errorf("salvaged %d records, want %d", len(res.Records), mid)
	}
	if want := int64(len(damaged)) - res.TornOffset; res.Discarded != want || want <= 0 {
		t.Errorf("discarded %d bytes, want %d", res.Discarded, want)
	}
	if res.TornReason == "" {
		t.Error("tear reason empty")
	}
	// The salvaged prefix must itself replay (it is a valid journal
	// prefix) unless the tear bisected a transaction's record group.
	if _, err := Replay(res.Records); err != nil && !errors.Is(err, ErrCorrupt) {
		t.Errorf("salvaged prefix replay: %v", err)
	}
}

// TestReplayDetectsTamperedBeforeImage: prune.ByUndo trusts before-images,
// so Replay must verify them alongside the after-images.
func TestReplayDetectsTamperedBeforeImage(t *testing.T) {
	var buf bytes.Buffer
	journalHistory(t, &buf, 65, 4)
	tampered := tamper(t, buf.Bytes(), func(r *Record) bool {
		if r.Kind != KindWrite {
			return false
		}
		r.Before++
		return true
	})
	recs, err := ReadAll(bytes.NewReader(tampered))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(recs); !errors.Is(err, ErrCorrupt) {
		t.Errorf("tampered before-image replayed without ErrCorrupt: %v", err)
	}
}

// TestJournalCarriesDeltas: a pure commutative increment is journaled with
// its delta annotation, a value write (assignment) without one, and replay
// reconstructs the same classification.
func TestJournalCarriesDeltas(t *testing.T) {
	var buf bytes.Buffer
	origin := model.StateOf(map[model.Item]model.Value{"x": 100, "p": 50})
	w := NewWriter(&buf)
	if err := w.Checkout(0, 0, origin); err != nil {
		t.Fatal(err)
	}
	cur := origin.Clone()
	for _, txn := range []*tx.Transaction{
		workload.Deposit("T1", tx.Tentative, "x", 5),
		workload.SetPrice("T2", tx.Tentative, "p", 77),
	} {
		next, eff, err := txn.Exec(cur, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.LogTxn(txn, eff); err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var gotDelta, gotValue bool
	for _, rec := range recs {
		if rec.Kind != KindWrite {
			continue
		}
		switch rec.Item {
		case "x":
			gotDelta = true
			if rec.Delta == nil || *rec.Delta != 5 {
				t.Errorf("deposit write record delta = %v, want 5", rec.Delta)
			}
		case "p":
			gotValue = true
			if rec.Delta != nil {
				t.Errorf("assignment write record carries delta %d", *rec.Delta)
			}
		}
	}
	if !gotDelta || !gotValue {
		t.Fatalf("journal missing write records: delta=%v value=%v", gotDelta, gotValue)
	}
	rep, err := Replay(recs)
	if err != nil {
		t.Fatal(err)
	}
	if x, _ := rep.Augmented.Effects[0].Lookup("x"); !x.DeltaPure() || x.Delta != 5 {
		t.Errorf("replayed effect lost the delta classification: %+v", x)
	}
	if p, _ := rep.Augmented.Effects[1].Lookup("p"); p.DeltaPure() {
		t.Error("replayed assignment classified as a pure delta")
	}
}

// TestReplayDetectsTamperedDelta: a delta annotation that disagrees with
// the replayed execution — a wrong increment, a delta on a value write, or
// a stripped delta — is ErrCorrupt. A spurious delta would let the merge
// layer elide edges around a non-commutative write.
func TestReplayDetectsTamperedDelta(t *testing.T) {
	build := func() []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Checkout(0, 0, model.StateOf(map[model.Item]model.Value{"x": 100})); err != nil {
			t.Fatal(err)
		}
		txn := workload.Deposit("T1", tx.Tentative, "x", 5)
		_, eff, err := txn.Exec(model.StateOf(map[model.Item]model.Value{"x": 100}), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.LogTxn(txn, eff); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := map[string]func(*Record) bool{
		"wrong increment": func(r *Record) bool {
			if r.Delta == nil {
				return false
			}
			d := *r.Delta + 1
			r.Delta = &d
			return true
		},
		"stripped delta": func(r *Record) bool {
			if r.Delta == nil {
				return false
			}
			r.Delta = nil
			return true
		},
	}
	for name, edit := range cases {
		recs, err := ReadAll(bytes.NewReader(tamper(t, build(), edit)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Replay(recs); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: replayed without ErrCorrupt: %v", name, err)
		}
	}
}
