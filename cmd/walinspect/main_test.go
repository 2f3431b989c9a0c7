package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tiermerge"
)

// TestInspectGeneratedJournal smoke-tests the tool's full path on a journal
// produced by a real mobile node.
func TestInspectGeneratedJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m1.wal")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	origin := tiermerge.StateOf(map[tiermerge.Item]tiermerge.Value{"x": 5})
	base := tiermerge.NewBaseCluster(origin, tiermerge.ClusterConfig{})
	m := tiermerge.NewMobileNode("m1", base)
	if err := m.AttachJournal(f); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(tiermerge.Deposit("T1", tiermerge.Tentative, "x", 3)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Drive the tool's logic directly.
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	var out bytes.Buffer
	if err := inspect(&out, rf, true, true, false); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"verified: 1 committed transactions",
		"checkout window=1",
		"commit   T1",
		"read x=5  write x: 5 -> 8 (delta +3)",
		"x=8",
		"T1 { x := (x + $amt) }",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("inspect output missing %q:\n%s", want, text)
		}
	}
}

// TestInspectRejectsGarbage: a non-journal stream fails cleanly.
func TestInspectRejectsGarbage(t *testing.T) {
	var out bytes.Buffer
	if err := inspect(&out, strings.NewReader("not a journal"), false, false, false); err == nil {
		t.Error("garbage accepted")
	}
}

// TestInspectSalvageDamagedJournal: strict mode refuses a mid-journal
// corruption; -salvage decodes the prefix and reports the tear and the
// discarded tail.
func TestInspectSalvageDamagedJournal(t *testing.T) {
	origin := tiermerge.StateOf(map[tiermerge.Item]tiermerge.Value{"x": 5})
	base := tiermerge.NewBaseCluster(origin, tiermerge.ClusterConfig{})
	m := tiermerge.NewMobileNode("m1", base)
	var journal bytes.Buffer
	if err := m.AttachJournal(&journal); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"T1", "T2"} {
		if err := m.Run(tiermerge.Deposit(id, tiermerge.Tentative, "x", 3)); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt an interior record (the damage a crash cannot produce).
	res, err := tiermerge.SalvageWAL(bytes.NewReader(journal.Bytes()))
	if err != nil || res.Torn {
		t.Fatalf("pristine journal: %+v, %v", res, err)
	}
	raw := journal.Bytes()
	raw[res.Ends[1]+7] ^= 0xff
	damaged := string(raw)

	var out bytes.Buffer
	if err := inspect(&out, strings.NewReader(damaged), false, false, false); err == nil {
		t.Fatal("strict inspect accepted mid-journal corruption")
	}
	out.Reset()
	if err := inspect(&out, strings.NewReader(damaged), false, false, true); err != nil {
		t.Fatalf("salvage inspect: %v", err)
	}
	text := out.String()
	for _, want := range []string{"TORN at record 3", "DISCARDED", "2 records"} {
		if !strings.Contains(text, want) {
			t.Errorf("salvage output missing %q:\n%s", want, text)
		}
	}
}

// TestInspectRefusesJSONLines: a journal in the JSON-lines format of
// earlier versions fails with an error that names the format.
func TestInspectRefusesJSONLines(t *testing.T) {
	old := `{"seq":1,"kind":"checkout","window":1,"origin":{"x":5}}` + "\n"
	for _, salvage := range []bool{false, true} {
		var out bytes.Buffer
		err := inspect(&out, strings.NewReader(old), false, false, salvage)
		if err == nil || !strings.Contains(err.Error(), "JSON-lines") {
			t.Errorf("salvage=%v: inspect returned %v, want the JSON-lines format named", salvage, err)
		}
	}
}
