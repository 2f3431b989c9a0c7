package merge

import (
	"errors"
	"fmt"
	"testing"

	"tiermerge/internal/graph"
	"tiermerge/internal/history"
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// outcome renders every outcome-bearing field of a report (or the error).
func outcome(rep *Report, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	reexec := make([]string, len(rep.Reexecute))
	for i, t := range rep.Reexecute {
		reexec[i] = t.ID
	}
	return fmt.Sprintf("conflict=%v bad=%v affected=%v saved=%v reexecute=%v forward=%v deltas=%v folded=%d state=%s",
		rep.Conflict, rep.BadIDs, rep.AffectedIDs, rep.SavedIDs, reexec,
		rep.ForwardUpdates, rep.ForwardDeltas, rep.DeltaFolded, rep.RepairedState)
}

// TestMergeIndexedMatchesMerge is the differential property behind the
// indexed path: over seeded generator fleets with base histories up to 160
// entries, viewed whole and from an interior position, MergeIndexed decides
// exactly what the literal Merge decides — for every back-out strategy, with
// deltas on and off, under the default, closure and can-follow rewriters.
// Every indexed merge runs through one Scratch, as a cluster's do.
func TestMergeIndexedMatchesMerge(t *testing.T) {
	strategies := []graph.Strategy{graph.TwoCycle{}, graph.GreedyCost{}, graph.GreedyDegree{}, graph.AllCyclic{}, graph.Exhaustive{}}
	rewriters := []Rewriter{0, RewriteClosure, RewriteCanFollow}
	compared, conflicting := 0, 0
	var scratch graph.Scratch
	for seed := int64(1); seed <= 48; seed++ {
		gen := workload.NewGenerator(workload.Config{Seed: seed, Items: 8 + int(seed%5)*12, PCommutative: 0.5})
		origin := gen.OriginState()
		hb, err := gen.RunHistory(tx.Base, []int{6, 40, 160}[seed%3], origin)
		if err != nil {
			continue // a generated withdrawal overdrew; the seed has no fleet
		}
		from := 0
		if seed%4 == 0 {
			// A Strategy 1 view: both histories start at an interior position.
			from = hb.H.Len() / 3
			origin = hb.StateAt(from)
		}
		hm, err := gen.RunHistory(tx.Tentative, 3+int(seed%8), origin)
		if err != nil {
			continue
		}
		suffix := &history.Augmented{H: &history.History{Entries: hb.H.Entries[from:]}, Effects: hb.Effects[from:]}
		footprint := model.ItemSet{}
		for _, eff := range hm.Effects {
			for _, r := range eff.Items {
				footprint.Add(r.Item)
			}
		}
		for _, noDeltas := range []bool{false, true} {
			ix := graph.NewBaseIndex(!noDeltas, 0)
			for i, eff := range hb.Effects {
				ix.Append(graph.AccessOf(hb.H.Txn(i), eff, !noDeltas))
			}
			view := ix.View(from, footprint, nil)
			if _, _, err := MergeIndexed(hm, view, nil, Options{DisableDeltas: !noDeltas}); !errors.Is(err, ErrBadOptions) {
				t.Fatalf("seed %d: a view indexed in the other delta mode was accepted: %v", seed, err)
			}
			for _, s := range strategies {
				for _, rw := range rewriters {
					opts := Options{Strategy: s, Rewriter: rw, DisableDeltas: noDeltas}
					want, errWant := Merge(hm, suffix, opts)
					got, st, errGot := MergeIndexed(hm, view, &scratch, opts)
					if g, w := outcome(got, errGot), outcome(want, errWant); g != w {
						t.Fatalf("seed %d %s rewriter=%v noDeltas=%v:\nindexed %s\nliteral %s", seed, s.Name(), rw, noDeltas, g, w)
					}
					compared++
					if errWant == nil && want.Conflict {
						conflicting++
						if st.Kept == 0 {
							t.Fatalf("seed %d: a conflicting merge kept no base entry of %d", seed, st.Viewed)
						}
					}
				}
			}
		}
	}
	t.Logf("compared %d merges, %d conflicting", compared, conflicting)
	if conflicting < 1000 {
		t.Fatalf("compared %d merges, only %d conflicting; want >= 1000", compared, conflicting)
	}
}
