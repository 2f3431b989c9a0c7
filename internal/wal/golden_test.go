package wal

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tiermerge/internal/expr"
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/{canned,generated}.journal from the current LogTxn")

// checkGolden compares a journal with its committed golden file. The
// journal format is fixed: a change that rewrites what LogTxn emits for the
// same executions must show up here, not in recovery.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: LogTxn wrote %d bytes that differ from the golden %d bytes", name, len(got), len(want))
	}
}

// goldenRun is an execution a golden journal logs: the checkout, each
// transaction with its effect, and the state the run ends in.
type goldenRun struct {
	window, pos int
	origin      model.State
	txns        []*tx.Transaction
	effs        []*tx.Effect
	final       model.State
}

// exec runs txn (under fix, which may be nil) on the run's current state.
func (g *goldenRun) exec(t *testing.T, txn *tx.Transaction, fix tx.Fix) {
	t.Helper()
	next, eff, err := txn.Exec(g.final, fix)
	if err != nil {
		t.Fatal(err)
	}
	g.txns, g.effs, g.final = append(g.txns, txn), append(g.effs, eff), next
}

// journal logs the run: its checkout, then each transaction with LogTxn.
func (g *goldenRun) journal(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Checkout(g.window, g.pos, g.origin); err != nil {
		t.Fatal(err)
	}
	for i, txn := range g.txns {
		if err := w.LogTxn(txn, g.effs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// cannedRun executes one transaction of every canned type, both branches
// of the conditional ones, a blind write read back after the write, and a
// run under a fix.
func cannedRun(t *testing.T) *goldenRun {
	origin := model.StateOf(map[model.Item]model.Value{"a": 100, "b": 40, "g": 500, "p": 7, "q": 3})
	blind := tx.MustNew("T12", tx.Tentative,
		tx.Assign("q", expr.Add(expr.Var("p"), expr.Const(1))),
		tx.Read("q"),
		tx.Update("b", expr.Add(expr.Var("b"), expr.Var("q"))),
	)
	g := &goldenRun{window: 1, origin: origin, final: origin.Clone()}
	for _, r := range []struct {
		txn *tx.Transaction
		fix tx.Fix
	}{
		{txn: workload.Deposit("T1", tx.Tentative, "a", 5)},
		{txn: workload.Withdraw("T2", tx.Tentative, "b", 3)},
		{txn: workload.Transfer("T3", tx.Tentative, "a", "b", 9)},
		{txn: workload.GuardedTransfer("T4", tx.Tentative, "b", "a", 10)},
		{txn: workload.GuardedTransfer("T5", tx.Tentative, "p", "a", 1000)},
		{txn: workload.SetPrice("T6", tx.Tentative, "p", 77)},
		{txn: workload.Audit("T7", tx.Tentative, "a", "g", "b")},
		{txn: workload.Bonus("T8", tx.Tentative, "g", "b", 100, 8)},
		{txn: workload.Bonus("T9", tx.Tentative, "p", "b", 100, 8)},
		{txn: workload.AccrueInterest("T10", tx.Tentative, "a", 4)},
		{txn: workload.Restock("T11", tx.Tentative, "q", 20)},
		{txn: blind},
		{txn: workload.Bonus("T13", tx.Tentative, "g", "a", 100, 2), fix: tx.Fix{"g": 50, "a": 1}},
	} {
		g.exec(t, r.txn, r.fix)
	}
	return g
}

// generatedRun executes a generated history with hot items and a high
// share of pure increments.
func generatedRun(t *testing.T) *goldenRun {
	gen := workload.NewGenerator(workload.Config{Seed: 42, Items: 12, HotItems: 3, PHot: 0.5, PCommutative: 0.7})
	origin := gen.OriginState()
	g := &goldenRun{window: 2, pos: 5, origin: origin, final: origin.Clone()}
	for i := 0; i < 60; i++ {
		g.exec(t, gen.Txn(tx.Tentative), nil)
	}
	return g
}

// TestLogTxnGoldenCanned journals cannedRun.
func TestLogTxnGoldenCanned(t *testing.T) {
	checkGolden(t, "canned.journal", cannedRun(t).journal(t))
}

// TestLogTxnGoldenGenerated journals generatedRun.
func TestLogTxnGoldenGenerated(t *testing.T) {
	got := generatedRun(t).journal(t)
	checkGolden(t, "generated.journal", got)
	if _, err := Replay(mustReadAll(t, got)); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenJournalsDecode pins the committed golden bytes to their
// meaning: decoded, each golden holds the checkout, the history (code and
// all), every effect entry and the final state of the execution its golden
// test runs — one commit record per transaction. The generated journal,
// whose run has no fix, also replays to the same effects and final state.
func TestGoldenJournalsDecode(t *testing.T) {
	for name, run := range map[string]func(*testing.T) *goldenRun{
		"canned.journal":    cannedRun,
		"generated.journal": generatedRun,
	} {
		t.Run(name, func(t *testing.T) {
			want := run(t)
			data, err := os.ReadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			recs := mustReadAll(t, data)
			head, body, err := SplitCheckout(recs)
			if err != nil {
				t.Fatal(err)
			}
			if head.WindowID != want.window || head.Pos != want.pos || !model.StateOf(head.Origin).Equal(want.origin) {
				t.Fatalf("checkout window=%d pos=%d origin=%v", head.WindowID, head.Pos, head.Origin)
			}
			if len(body) != len(want.txns) {
				t.Fatalf("%d commit records, want one per transaction (%d)", len(body), len(want.txns))
			}
			groups, err := Groups(body)
			if err != nil {
				t.Fatal(err)
			}
			final := want.origin.Clone()
			for i, g := range groups {
				code, err := tx.MarshalTransaction(want.txns[i])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(body[i].Txns[0].Code, code) || g.Txn.ID != want.txns[i].ID {
					t.Errorf("record %d holds %s, want %s's code", i+2, g.Txn.ID, want.txns[i].ID)
				}
				if err := g.Verify(want.effs[i]); err != nil {
					t.Errorf("record %d: logged entries differ from the execution: %v", i+2, err)
				}
				for _, e := range g.logs {
					if e.Written {
						final.Set(e.Item, e.After)
					}
				}
			}
			if !final.Equal(want.final) {
				t.Errorf("logged after-images end in %s, execution in %s", final, want.final)
			}
			if name != "generated.journal" {
				return
			}
			rep, err := Replay(recs)
			if err != nil {
				t.Fatal(err)
			}
			for i, eff := range rep.Augmented.Effects {
				if !slices.Equal(eff.Items, want.effs[i].Items) {
					t.Errorf("replayed effect %d differs: %+v != %+v", i, eff.Items, want.effs[i].Items)
				}
			}
			if !rep.Augmented.Final().Equal(want.final) {
				t.Errorf("replayed final %s, want %s", rep.Augmented.Final(), want.final)
			}
		})
	}
}

// TestScanRefusesV1Journal: a journal in the v1 format — one record per
// begin, read, write and commit — fails by name, in both modes, rather than
// as unexplained damage.
func TestScanRefusesV1Journal(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "v1.journal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ScanMode{Strict, Salvage} {
		_, err := ScanBytes(old, mode)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "v1 journal") {
			t.Errorf("mode %d: v1 journal scanned with %v", mode, err)
		}
	}
}

func mustReadAll(t *testing.T, data []byte) []Record {
	t.Helper()
	recs, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}
