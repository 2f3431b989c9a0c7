package history_test

import (
	"testing"

	"tiermerge/internal/history"
	"tiermerge/internal/model"
	"tiermerge/internal/rewrite"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// TestDerivedStatesMatchStepwiseRun checks the derived per-position values
// against a reference run that copies the state at every step (tx.Exec):
// over generator histories and their Algorithm 2 rewrites, whose saved
// entries carry non-empty fixes, StateAt(i) and ValueBefore(i, it) must equal
// the reference's state before position i, at every position and for every
// item.
func TestDerivedStatesMatchStepwiseRun(t *testing.T) {
	fixed := 0
	for seed := int64(1); seed <= 200; seed++ {
		gen := workload.NewGenerator(workload.Config{Seed: seed, Items: 3 + int(seed%4)*2, PCommutative: 0.5})
		origin := gen.OriginState()
		a, err := gen.RunHistory(tx.Tentative, 4+int(seed%9), origin)
		if err != nil {
			continue // a generated withdrawal overdrew
		}
		hs := []*history.History{a.H}
		res, err := rewrite.Algorithm2(a, gen.RandomBadSet(a.H.Len(), 0.3), rewrite.StaticDetector{})
		if err == nil {
			hs = append(hs, res.Rewritten)
		}
		for _, h := range hs {
			got, err := history.Run(h, origin)
			if err != nil {
				t.Fatalf("seed %d: run %s: %v", seed, h, err)
			}
			ref := []model.State{origin}
			for _, e := range h.Entries {
				if !e.Fix.IsEmpty() {
					fixed++
				}
				next, _, err := e.T.Exec(ref[len(ref)-1], e.Fix)
				if err != nil {
					t.Fatalf("seed %d: reference run of %s: %v", seed, h, err)
				}
				ref = append(ref, next)
			}
			for i, want := range ref {
				if s := got.StateAt(i); !s.Equal(want) {
					t.Fatalf("seed %d %s: StateAt(%d) = %s, want %s", seed, h, i, s, want)
				}
				for _, it := range origin.Items() {
					if v := got.ValueBefore(i, it); v != want.Get(it) {
						t.Fatalf("seed %d %s: ValueBefore(%d, %s) = %d, want %d", seed, h, i, it, v, want.Get(it))
					}
				}
			}
			if final := ref[len(ref)-1]; !got.Final().Equal(final) {
				t.Fatalf("seed %d %s: Final = %s, want %s", seed, h, got.Final(), final)
			}
		}
	}
	t.Logf("%d entries with non-empty fixes", fixed)
	if fixed < 20 {
		t.Fatalf("only %d rewritten entries carried a non-empty fix; want >= 20", fixed)
	}
}
