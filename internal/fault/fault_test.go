package fault

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// journal builds an n-record synthetic journal image "record-0", ...
func journal(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("record-%d;", i))
	}
	return out
}

// write feeds recs to w one record per Write, as the journal writer does.
func write(t *testing.T, w *CrashWriter, recs [][]byte) {
	t.Helper()
	for _, r := range recs {
		if _, err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCrashWriterKillAfterRecords(t *testing.T) {
	for kill := 1; kill <= 5; kill++ {
		w := NewCrashWriter(Plan{KillAfterRecords: kill})
		write(t, w, journal(5))
		want := bytes.Join(journal(kill), nil)
		if got := w.Persisted(); !bytes.Equal(got, want) {
			t.Errorf("kill=%d persisted %q, want %q", kill, got, want)
		}
		if !w.Killed() {
			t.Errorf("kill=%d not marked killed", kill)
		}
	}
}

func TestCrashWriterNeverKills(t *testing.T) {
	w := NewCrashWriter(Plan{})
	recs := journal(4)
	write(t, w, recs)
	if got := w.Persisted(); !bytes.Equal(got, bytes.Join(recs, nil)) {
		t.Errorf("persisted %q, want everything", got)
	}
	if got := w.Records(); !slices.EqualFunc(got, recs, bytes.Equal) {
		t.Errorf("records %q, want %q", got, recs)
	}
	if w.Killed() {
		t.Error("zero plan must never kill")
	}
}

func TestCrashWriterTornTail(t *testing.T) {
	w := NewCrashWriter(Plan{KillAfterRecords: 2, TornTailBytes: 4})
	write(t, w, journal(4))
	want := append(bytes.Join(journal(2), nil), []byte("reco")...)
	if got := w.Persisted(); !bytes.Equal(got, want) {
		t.Errorf("persisted %q, want %q", got, want)
	}
	if got := w.Records(); len(got) != 3 || string(got[2]) != "reco" {
		t.Errorf("records %q, want two whole and a torn fragment", got)
	}
}

// The torn tail must never complete the record: a torn record stays torn
// even when the requested torn length spans past the record's end, and no
// byte of a later record persists.
func TestCrashWriterTornTailStopsAtNewline(t *testing.T) {
	w := NewCrashWriter(Plan{KillAfterRecords: 1, TornTailBytes: 1000})
	recs := journal(3)
	write(t, w, recs)
	want := append(slices.Clone(recs[0]), recs[1][:len(recs[1])-1]...)
	if got := w.Persisted(); !bytes.Equal(got, want) {
		t.Errorf("persisted %q, want %q", got, want)
	}
}

func TestCrashWriterKillAtByte(t *testing.T) {
	data := bytes.Join(journal(3), nil)
	for off := int64(1); off <= int64(len(data)); off++ {
		w := NewCrashWriter(Plan{KillAtByte: off})
		// Feed in small chunks so kill points land mid-Write.
		for i := 0; i < len(data); i += 3 {
			if _, err := w.Write(data[i:min(i+3, len(data))]); err != nil {
				t.Fatal(err)
			}
		}
		if got := w.Persisted(); !bytes.Equal(got, data[:off]) {
			t.Errorf("off=%d persisted %q, want %q", off, got, data[:off])
		}
	}
}

func TestMutations(t *testing.T) {
	recs := journal(3) // record-0;record-1;record-2;
	data := bytes.Join(recs, nil)
	cases := []struct {
		m    Mutation
		want []byte
	}{
		{Mutation{TruncateAt, 5}, []byte("recor")},
		{Mutation{TruncateAt, 12}, []byte("record-0;rec")},
		{Mutation{DropRecord, 1}, []byte("record-0;record-2;")},
		{Mutation{DuplicateRecord, 0}, []byte("record-0;record-0;record-1;record-2;")},
		{Mutation{DropRecord, 99}, data},   // out of range: no-op
		{Mutation{TruncateAt, 9999}, data}, // out of range: no-op
		{Mutation{FlipBit, -3}, data},      // negative: no-op
	}
	for _, c := range cases {
		if got := Mutate(recs, c.m); !bytes.Equal(got, c.want) {
			t.Errorf("%v %d: got %q, want %q", c.m.Op, c.m.Arg, got, c.want)
		}
	}
	// FlipBit flips exactly one bit, in whichever record holds the byte.
	flipped := Mutate(recs, Mutation{FlipBit, 8 * 12})
	want := slices.Clone(data)
	want[12] ^= 1
	if !bytes.Equal(flipped, want) {
		t.Errorf("FlipBit: got %q, want %q", flipped, want)
	}
	// Mutations compose left to right on records.
	if got := Mutate(recs, Mutation{DropRecord, 0}, Mutation{DuplicateRecord, 1}); string(got) != "record-1;record-2;record-2;" {
		t.Errorf("composed mutations: got %q", got)
	}
	// The input must never be modified in place.
	if !slices.EqualFunc(recs, journal(3), bytes.Equal) {
		t.Error("Mutate modified its input")
	}
}

func TestScheduleEveryNth(t *testing.T) {
	var s Schedule
	for i := 0; i < 10; i++ {
		if s.Hit() {
			t.Fatal("zero schedule faulted")
		}
	}
	s.SetEveryNth(3)
	hits := 0
	for i := 1; i <= 9; i++ {
		if s.Hit() {
			hits++
		}
	}
	if hits != 3 {
		t.Errorf("every-3rd over 9 events: %d hits, want 3", hits)
	}
}
