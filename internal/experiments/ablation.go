package experiments

import (
	"fmt"
	"reflect"

	"tiermerge/internal/history"
	"tiermerge/internal/papertest"
	"tiermerge/internal/rewrite"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// E10Ablations validates the design-choice extensions DESIGN.md §6 calls
// out: the cached can-precede detector must agree with the uncached one
// while actually hitting its cache, and blind-write rewriting must agree
// with plain Algorithm 1 on blind-write-free histories while staying
// contained in the closure survivors on Example 1.
func E10Ablations() *Table {
	t := &Table{
		ID:     "E10",
		Title:  "Ablations: detector cache and blind-write rewriting",
		Header: []string{"ablation", "measure", "value"},
	}

	// Detector cache: agreement and hit rate over a canned workload.
	gen := workload.NewGenerator(workload.Config{Seed: 3001, Items: 6, PCommutative: 0.7})
	static := rewrite.StaticDetector{}
	cached := rewrite.NewCachedDetector(static)
	agree := true
	const pairs = 1500
	for i := 0; i < pairs; i++ {
		t1, t2 := gen.Txn(tx.Tentative), gen.Txn(tx.Tentative)
		fix := tx.Fix{}
		for _, it := range t1.StaticReadSet().Minus(t1.StaticWriteSet()).Items() {
			if gen.Rand().Intn(2) == 0 {
				fix[it] = 1
			}
		}
		if static.CanPrecede(t2, t1, fix) != cached.CanPrecede(t2, t1, fix) {
			agree = false
		}
	}
	hits, misses := cached.Stats()
	hitRate := float64(hits) / float64(hits+misses) * 100
	t.Rows = append(t.Rows,
		[]string{"detector-cache", "pairs tested", fmt.Sprint(pairs)},
		[]string{"detector-cache", "hit rate", fmt.Sprintf("%.1f%%", hitRate)},
		[]string{"detector-cache", "disagreements", boolCount(!agree)},
	)
	t.Checks = append(t.Checks,
		Check{Name: "cached detector agrees with static", OK: agree},
		Check{Name: "cache hit rate > 50%", OK: hitRate > 50,
			Note: fmt.Sprintf("%.1f%%", hitRate)},
	)

	// Blind-write rewriting: equality with Algorithm 1 off blind writes.
	bwAgree := true
	gen2 := workload.NewGenerator(workload.Config{Seed: 3002, Items: 8})
	origin := gen2.OriginState()
	for i := 0; i < 150; i++ {
		a, err := gen2.RunHistory(tx.Tentative, 8, origin)
		if err != nil {
			panic(err)
		}
		bad := gen2.RandomBadSet(8, 0.25)
		r1, err := rewrite.Algorithm1(a, bad)
		if err != nil {
			panic(err)
		}
		rbw, err := rewrite.Algorithm1BW(a, bad)
		if err != nil {
			panic(err)
		}
		if !reflect.DeepEqual(r1.Rewritten.IDs(), rbw.Rewritten.IDs()) {
			bwAgree = false
		}
	}
	t.Rows = append(t.Rows,
		[]string{"blind-write-rewrite", "agreement with Alg1 (no blind writes)", boolWord(bwAgree)},
	)

	// Containment in closure survivors on the paper's Example 1.
	e := papertest.NewExample1()
	am := mustRun(history.New(e.Mobile()...), e.Origin)
	bad := map[int]bool{2: true} // B = {Tm3}
	kept, _ := rewrite.ClosureBackout(am, bad)
	rbw, err := rewrite.Algorithm1BW(am, bad)
	if err != nil {
		panic(err)
	}
	keptSet := make(map[string]bool)
	for _, id := range kept.IDs() {
		keptSet[id] = true
	}
	contained := true
	for _, id := range rbw.SavedIDs() {
		if !keptSet[id] {
			contained = false
		}
	}
	t.Rows = append(t.Rows,
		[]string{"blind-write-rewrite", "Example 1 saved", fmt.Sprint(rbw.SavedIDs())},
		[]string{"blind-write-rewrite", "closure saved", fmt.Sprint(kept.IDs())},
	)
	t.Checks = append(t.Checks,
		Check{Name: "Alg1BW == Alg1 on blind-write-free histories", OK: bwAgree},
		Check{Name: "Alg1BW saved ⊆ closure saved (blind writes)", OK: contained},
	)
	return t
}

func boolCount(b bool) string {
	if b {
		return "1+"
	}
	return "0"
}

func boolWord(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
