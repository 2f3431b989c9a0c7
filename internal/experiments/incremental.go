package experiments

import (
	"fmt"
	"reflect"

	"tiermerge/internal/history"
	"tiermerge/internal/merge"
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// E15IncrementalRetry measures the retry amortization of the merge path,
// incremental re-prepare: a merge prepared against a base prefix of N
// entries is invalidated by S newly committed entries. A naive retry
// rebuilds G(Hm, Hb) over all N+S entries; the incremental retry extends
// the carried graph with just the S-entry suffix (merge.Extend). The table
// sweeps N with S fixed and records both costs: the full rebuild grows
// with the prefix, the extension stays flat — and the extended report is
// checked field-for-field against the from-scratch merge. (Part 2, batched
// admission, is retired with the mechanism — see EXPERIMENTS.md.)
func E15IncrementalRetry() *Table {
	t := &Table{
		ID:     "E15",
		Title:  "Incremental re-prepare",
		Header: []string{"case", "N(prefix)", "S(suffix)", "rebuild ops", "extend ops"},
	}

	const suffix = 8
	prefixes := []int{64, 256, 1024}
	reportsEqual := true
	var extendOps, rebuildOps []int
	for _, prefix := range prefixes {
		hm, fullAug, preAug, sufAug := e15Histories(prefix, suffix)
		repFull := mustMerge(hm, fullAug)
		repPre := mustMerge(hm, preAug)
		repExt, info, err := merge.Extend(repPre, hm, sufAug, merge.Options{})
		if err != nil {
			panic(err)
		}
		full := graphOps(repFull)
		ext := info.NewVertices + info.NewEdges
		rebuildOps = append(rebuildOps, full)
		extendOps = append(extendOps, ext)
		equal := sameReportOutcome(repExt, repFull)
		if !equal {
			reportsEqual = false
		}
		t.Rows = append(t.Rows, []string{
			"extend", fmt.Sprint(prefix), fmt.Sprint(suffix),
			fmt.Sprint(full), fmt.Sprint(ext),
		})
	}
	flat := true
	for _, e := range extendOps {
		// The extension may touch only the suffix: a handful of vertices and
		// edges per new entry, independent of N.
		if e > 4*suffix {
			flat = false
		}
	}
	growing := true
	for i := 1; i < len(rebuildOps); i++ {
		if rebuildOps[i] <= rebuildOps[i-1] {
			growing = false
		}
	}

	t.Checks = append(t.Checks,
		Check{Name: "extended report equals from-scratch merge over the longer prefix", OK: reportsEqual},
		Check{Name: "extension cost tracks the suffix, not the prefix", OK: flat,
			Note: fmt.Sprintf("extend ops %v for prefixes %v", extendOps, prefixes)},
		Check{Name: "full rebuild cost grows with the prefix", OK: growing,
			Note: fmt.Sprintf("rebuild ops %v", rebuildOps)},
	)
	return t
}

// e15Histories builds the part-1 inputs: a 4-transaction mobile history on
// private items, and a base history of prefix+suffix disjoint deposits,
// returned whole and split at the prefix boundary (each slice a
// self-consistent augmented history).
func e15Histories(prefix, suffix int) (hm, full, pre, suf *history.Augmented) {
	st := model.StateOf(map[model.Item]model.Value{"m0": 100, "m1": 100})
	for i := 0; i < 32; i++ {
		st.Set(model.Item(fmt.Sprintf("x%d", i)), 100)
	}
	for i := 0; i < suffix; i++ {
		st.Set(model.Item(fmt.Sprintf("y%d", i)), 100)
	}
	// The prefix churns a fixed 32-item working set; the suffix touches
	// fresh items, so its extension cost is purely per-suffix-entry (a
	// suffix hitting hot prefix items would additionally pay the base-base
	// conflict edges those items accumulated — real work a rebuild pays
	// too).
	var baseTxns []*tx.Transaction
	for i := 0; i < prefix; i++ {
		it := model.Item(fmt.Sprintf("x%d", i%32))
		baseTxns = append(baseTxns, workload.Deposit(fmt.Sprintf("B%d", i), tx.Base, it, 1))
	}
	for i := 0; i < suffix; i++ {
		it := model.Item(fmt.Sprintf("y%d", i))
		baseTxns = append(baseTxns, workload.Deposit(fmt.Sprintf("S%d", i), tx.Base, it, 1))
	}
	fullAug := mustRun(history.New(baseTxns...), st)
	hm = mustRun(history.New(
		workload.Deposit("T0", tx.Tentative, "m0", 5),
		workload.Deposit("T1", tx.Tentative, "m1", 5),
		workload.Deposit("T2", tx.Tentative, "m0", 7),
		workload.Deposit("T3", tx.Tentative, "m1", 7),
	), st)
	pre = &history.Augmented{
		H:       fullAug.H.Prefix(prefix),
		States:  fullAug.States[:prefix+1],
		Effects: fullAug.Effects[:prefix],
	}
	suf = &history.Augmented{
		H:       &history.History{Entries: fullAug.H.Entries[prefix:]},
		States:  fullAug.States[prefix:],
		Effects: fullAug.Effects[prefix:],
	}
	return hm, fullAug, pre, suf
}

// mustMerge runs the merging protocol with default options or panics;
// experiment inputs are static.
func mustMerge(hm, hb *history.Augmented) *merge.Report {
	rep, err := merge.Merge(hm, hb, merge.Options{})
	if err != nil {
		panic(err)
	}
	return rep
}

// graphOps sizes a from-scratch graph build: every vertex plus every edge.
func graphOps(rep *merge.Report) int {
	ops := rep.Graph.Len()
	for v := 0; v < rep.Graph.Len(); v++ {
		ops += len(rep.Graph.Succ(v))
	}
	return ops
}

// sameReportOutcome compares the outcome-bearing fields of two merge
// reports: the back-out set, the saved set, and the forwarded updates.
func sameReportOutcome(a, b *merge.Report) bool {
	return reflect.DeepEqual(a.BadIDs, b.BadIDs) &&
		reflect.DeepEqual(a.SavedIDs, b.SavedIDs) &&
		reflect.DeepEqual(a.ForwardUpdates, b.ForwardUpdates)
}
