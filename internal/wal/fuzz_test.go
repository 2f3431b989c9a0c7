package wal

import (
	"bytes"
	"errors"
	"testing"

	"tiermerge/internal/fault"
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// Fuzz targets for the recovery surface. Scan and Replay sit between a
// crash (or worse — bit rot, lost flushes) and the database: no byte
// stream, however mangled, may panic them, and anything they do accept
// must satisfy the crash model — a contiguous, verified prefix of what was
// journaled. Seed corpora are checked in under testdata/fuzz; the CI fuzz
// smoke runs each target briefly on every push.

// fuzzJournal builds a deterministic valid journal of n generated
// transactions and returns its records' frames plus the committed
// transaction IDs in order.
func fuzzJournal(seed int64, n int) ([][]byte, []string) {
	gen := workload.NewGenerator(workload.Config{Seed: seed, Items: 8})
	origin := gen.OriginState()
	buf := fault.NewCrashWriter(fault.Plan{})
	w := NewWriter(buf)
	if err := w.Checkout(1, 0, origin); err != nil {
		panic(err)
	}
	ids := make([]string, 0, n)
	cur := origin.Clone()
	for i := 0; i < n; i++ {
		txn := gen.Txn(tx.Tentative)
		next, eff, err := txn.Exec(cur, nil)
		if err != nil {
			panic(err)
		}
		if err := w.LogTxn(txn, eff); err != nil {
			panic(err)
		}
		ids = append(ids, txn.ID)
		cur = next
	}
	return buf.Records(), ids
}

// fuzzRecords encodes records as a journal, numbering them from 1.
func fuzzRecords(recs ...Record) []byte {
	var out []byte
	for i, r := range recs {
		r.Seq = int64(i) + 1
		var err error
		if out, err = AppendRecord(out, r); err != nil {
			panic(err)
		}
	}
	return out
}

// FuzzReadAll feeds arbitrary bytes to the strict and salvage scanners.
// Properties: neither panics; salvage never fails on in-memory data; every
// accepted record stream has contiguous sequence numbers from 1; and when
// strict succeeds the two modes agree on the decoded prefix.
func FuzzReadAll(f *testing.F) {
	recs, _ := fuzzJournal(1, 3)
	valid := bytes.Join(recs, nil)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-9]) // torn final frame
	f.Add([]byte("not a journal\n"))
	f.Add(fault.Mutate(recs, fault.Mutation{Op: fault.DropRecord, Arg: 2}))
	f.Fuzz(func(t *testing.T, data []byte) {
		strictRecs, strictErr := ReadAll(bytes.NewReader(data))
		salv, salvErr := Scan(bytes.NewReader(data), Salvage)
		if salvErr != nil {
			// Only a stream salvage refuses outright (the JSON-lines
			// format) surfaces here; it must be an error, not a panic.
			return
		}
		for i, r := range salv.Records {
			if r.Seq != int64(i)+1 {
				t.Fatalf("salvage accepted non-contiguous seq %d at index %d", r.Seq, i)
			}
		}
		if strictErr != nil {
			if !errors.Is(strictErr, ErrCorrupt) {
				t.Fatalf("strict scan failed without ErrCorrupt: %v", strictErr)
			}
			return
		}
		if len(strictRecs) != len(salv.Records) {
			t.Fatalf("strict decoded %d records, salvage %d", len(strictRecs), len(salv.Records))
		}
		for i := range strictRecs {
			if strictRecs[i].Seq != salv.Records[i].Seq || strictRecs[i].Kind != salv.Records[i].Kind {
				t.Fatalf("strict and salvage disagree at record %d", i)
			}
		}
	})
}

// FuzzReplay scans arbitrary bytes and replays whatever the scanner
// accepts. Properties: no panic; a successful replay reconstructs
// consistent history/state/effect slices; failures wrap ErrCorrupt.
func FuzzReplay(f *testing.F) {
	recs, _ := fuzzJournal(2, 3)
	valid := bytes.Join(recs, nil)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(fuzzRecords(Record{Kind: KindCheckout, WindowID: 1, Origin: map[model.Item]model.Value{"x": 5}}))
	f.Add(fuzzRecords(Record{Kind: KindCommit, Txns: []Txn{{Code: []byte("T1")}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := Scan(bytes.NewReader(data), Salvage)
		if err != nil {
			return
		}
		rep, err := Replay(res.Records)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("replay failed without ErrCorrupt: %v", err)
			}
			return
		}
		n := rep.Augmented.H.Len()
		if len(rep.Augmented.Effects) != n {
			t.Fatalf("inconsistent replayed run: %d txns, %d effects", n, len(rep.Augmented.Effects))
		}
		if !rep.Augmented.StateAt(n).Equal(rep.Augmented.Final()) {
			t.Fatalf("replayed final %s, derived %s", rep.Augmented.Final(), rep.Augmented.StateAt(n))
		}
	})
}

// FuzzMutatedRecovery corrupts a known-good journal with one deterministic
// fault (truncation, bit flip, dropped or duplicated record, torn tail) and
// requires the recovery pipeline to either refuse the image with
// ErrCorrupt or reconstruct a committed-ID prefix of the original history.
// Bit flips may forge a semantically different but self-consistent record,
// so the prefix property is only asserted for the structural faults — for
// flips the target still proves no-panic and error taxonomy.
func FuzzMutatedRecovery(f *testing.F) {
	f.Add(int64(1), int64(0), int64(40), int64(0))
	f.Add(int64(2), int64(1), int64(7), int64(0))   // flip a bit
	f.Add(int64(3), int64(2), int64(3), int64(0))   // duplicate a record
	f.Add(int64(4), int64(3), int64(2), int64(0))   // drop a record
	f.Add(int64(5), int64(0), int64(200), int64(4)) // truncate + torn frame
	f.Fuzz(func(t *testing.T, seed, opRaw, arg, torn int64) {
		recs, ids := fuzzJournal(seed%16, 3)
		op := fault.Op(((opRaw % 4) + 4) % 4)
		data := fault.Mutate(recs, fault.Mutation{Op: op, Arg: arg})
		if torn > 0 {
			// A torn append: a prefix of a frame, never the whole of it.
			frame := recs[len(recs)-1]
			data = append(data, frame[:min(torn, int64(len(frame))-1)]...)
		}
		res, err := Scan(bytes.NewReader(data), Strict)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("scan failed without ErrCorrupt: %v", err)
			}
			return
		}
		rep, err := Replay(res.Records)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("replay failed without ErrCorrupt: %v", err)
			}
			return
		}
		if op == fault.FlipBit {
			return
		}
		got := rep.Augmented.H.Len()
		if got > len(ids) {
			t.Fatalf("recovered %d committed txns from a journal of %d", got, len(ids))
		}
		for i := 0; i < got; i++ {
			if rep.Augmented.H.Txn(i).ID != ids[i] {
				t.Fatalf("recovered history is not a prefix: txn %d is %s, want %s",
					i, rep.Augmented.H.Txn(i).ID, ids[i])
			}
		}
	})
}
