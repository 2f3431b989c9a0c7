// Ablation benchmarks for the design choices DESIGN.md calls out: detector
// modes (static vs cached vs dynamic), blind-write rewriting vs the closure
// baseline, journal replay, encoded-code shipping sizes and the base
// journal's commit path.
package tiermerge_test

import (
	"bytes"
	"fmt"
	"testing"

	"tiermerge/internal/history"
	"tiermerge/internal/merge"
	"tiermerge/internal/model"
	"tiermerge/internal/papertest"
	"tiermerge/internal/recovery"
	"tiermerge/internal/replica"
	"tiermerge/internal/rewrite"
	"tiermerge/internal/tx"
	"tiermerge/internal/wal"
	"tiermerge/internal/workload"
)

// BenchmarkAblationDetectors runs Algorithm 2 over the same history with
// each detector mode; the cached detector's advantage grows with history
// length because canned type pairs repeat.
func BenchmarkAblationDetectors(b *testing.B) {
	gen := workload.NewGenerator(workload.Config{Seed: 71, Items: 10, PCommutative: 0.8})
	origin := gen.OriginState()
	hm, err := gen.RunHistory(tx.Tentative, 24, origin)
	if err != nil {
		b.Fatal(err)
	}
	bad := gen.RandomBadSet(24, 0.2)
	detectors := []struct {
		name string
		det  rewrite.PrecedeDetector
	}{
		{"static", rewrite.StaticDetector{}},
		{"cached", rewrite.NewCachedDetector(rewrite.StaticDetector{})},
		{"dynamic", &rewrite.DynamicDetector{Rng: gen.Rand(), Samples: 32}},
	}
	// Warm verdicts once so every mode rewrites identically before timing.
	for _, d := range detectors {
		if _, err := rewrite.Algorithm2(hm, bad, d.det); err != nil {
			b.Fatal(err)
		}
	}
	for _, d := range detectors {
		b.Run(d.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rewrite.Algorithm2(hm, bad, d.det); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBlindWrites compares the closure back-out against
// blind-write can-follow rewriting on Example 1's history shape.
func BenchmarkAblationBlindWrites(b *testing.B) {
	e := papertest.NewExample1()
	am, err := history.Run(history.New(e.Mobile()...), e.Origin)
	if err != nil {
		b.Fatal(err)
	}
	ab, err := history.Run(history.New(e.BaseTxns()...), e.Origin)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		rw   merge.Rewriter
	}{
		{"closure", merge.RewriteClosure},
		{"canfollow-bw", merge.RewriteCanFollowBW},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := merge.Merge(am, ab, merge.Options{Rewriter: tc.rw}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALJournalAndReplay measures journaling overhead and crash
// recovery throughput.
func BenchmarkWALJournalAndReplay(b *testing.B) {
	gen := workload.NewGenerator(workload.Config{Seed: 81, Items: 12})
	origin := gen.OriginState()
	const n = 32
	txns := make([]*tx.Transaction, n)
	effs := make([]*tx.Effect, n)
	cur := origin.Clone()
	for i := range txns {
		txns[i] = gen.Txn(tx.Tentative)
		next, eff, err := txns[i].Exec(cur, nil)
		if err != nil {
			b.Fatal(err)
		}
		cur, effs[i] = next, eff
	}
	b.Run("journal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			w := wal.NewWriter(&buf)
			if err := w.Checkout(1, 0, origin); err != nil {
				b.Fatal(err)
			}
			for j := range txns {
				if err := w.LogTxn(txns[j], effs[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	var journal bytes.Buffer
	w := wal.NewWriter(&journal)
	if err := w.Checkout(1, 0, origin); err != nil {
		b.Fatal(err)
	}
	for j := range txns {
		if err := w.LogTxn(txns[j], effs[j]); err != nil {
			b.Fatal(err)
		}
	}
	raw := journal.Bytes()
	b.Run("replay", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			recs, err := wal.ReadAll(bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := wal.Replay(recs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Logf("journal size for %d txns: %d bytes", n, len(raw))
}

// BenchmarkCodecSizes reports real encoded-code sizes for the canned types,
// grounding the cost model's CodeBytesPerStmt weight.
func BenchmarkCodecSizes(b *testing.B) {
	txns := []*tx.Transaction{
		workload.Deposit("T", tx.Tentative, "d1", 5),
		workload.Transfer("T", tx.Tentative, "d1", "d2", 5),
		workload.GuardedTransfer("T", tx.Tentative, "d1", "d2", 5),
		workload.Bonus("T", tx.Tentative, "d1", "d2", 100, 5),
	}
	for _, txn := range txns {
		txn := txn
		b.Run(txn.Type, func(b *testing.B) {
			b.ReportAllocs()
			var size int
			for i := 0; i < b.N; i++ {
				n, err := tx.EncodedSize(txn)
				if err != nil {
					b.Fatal(err)
				}
				size = n
			}
			b.ReportMetric(float64(size), "wire-bytes")
		})
	}
}

// BenchmarkRecoveryExcise times standalone excision (the intrusion-recovery
// mode) against re-executing the survivors from scratch.
func BenchmarkRecoveryExcise(b *testing.B) {
	gen := workload.NewGenerator(workload.Config{Seed: 91, Items: 16, PCommutative: 0.8})
	origin := gen.OriginState()
	aug, err := gen.RunHistory(tx.Tentative, 24, origin)
	if err != nil {
		b.Fatal(err)
	}
	bad := []string{aug.H.Txn(3).ID, aug.H.Txn(11).ID}
	b.Run("excise", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := recovery.Excise(aug, bad, recovery.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reexecute-survivors", func(b *testing.B) {
		rep, err := recovery.Excise(aug, bad, recovery.Options{})
		if err != nil {
			b.Fatal(err)
		}
		saved := make(map[string]bool)
		for _, id := range rep.SavedIDs {
			saved[id] = true
		}
		kept := &history.History{}
		for i := 0; i < aug.H.Len(); i++ {
			if saved[aug.H.Txn(i).ID] {
				kept.Append(aug.H.Txn(i))
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := history.Run(kept, origin); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBaseJournal measures the commit-path overhead of base-tier
// durability logging.
func BenchmarkBaseJournal(b *testing.B) {
	for _, journaled := range []bool{false, true} {
		name := "off"
		if journaled {
			name = "on"
		}
		b.Run("journal="+name, func(b *testing.B) {
			origin := model.StateOf(map[model.Item]model.Value{"x": 0})
			cluster := replica.NewBaseCluster(origin, replica.Config{})
			if journaled {
				var sink bytes.Buffer
				if err := cluster.AttachJournal(&sink); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				txn := workload.Deposit(fmt.Sprintf("T%d", i), tx.Base, "x", 1)
				if err := cluster.ExecBase(txn); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
