// Package experiments implements the reproduction suite indexed in
// DESIGN.md: one function per experiment E0..E18, each regenerating the
// table or series that EXPERIMENTS.md records. cmd/benchreport prints them;
// the top-level benchmarks time their kernels.
package experiments

import (
	"fmt"
	"strings"

	"tiermerge/internal/graph"
	"tiermerge/internal/history"
	"tiermerge/internal/merge"
	"tiermerge/internal/model"
	"tiermerge/internal/papertest"
	"tiermerge/internal/prune"
	"tiermerge/internal/rewrite"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// Table is one experiment's output: a title, column headers and rows, plus
// pass/fail checks against the paper's expectations.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Checks []Check
}

// Check is one expectation validated while regenerating the experiment.
type Check struct {
	Name string
	OK   bool
	Note string
}

// Passed reports whether every check passed.
func (t *Table) Passed() bool {
	for _, c := range t.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	b.WriteByte('\n')
	for _, c := range t.Checks {
		mark := "PASS"
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "[%s] %s", mark, c.Name)
		if c.Note != "" {
			fmt.Fprintf(&b, " — %s", c.Note)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// All runs every experiment in order.
func All() []*Table {
	return []*Table{
		E0Motivation(),
		E1PrecedenceGraph(),
		E2FixSemantics(),
		E3MotivatingExample(),
		E4FixBlocksCommutativity(),
		E5Theorem3(),
		E6SavedSeries(),
		E7Strategies(),
		E8ProtocolComparison(),
		E9BackoutStrategies(),
		E10Ablations(),
		E11QueuePosition(),
		E12WireFidelity(),
		E14CrashRecovery(),
		E16ShardedFleet(),
		E17WireTransport(),
		E18DeltaMerge(),
		E19DurableStore(),
	}
}

// mustRun executes a history or panics; experiment inputs are static.
func mustRun(h *history.History, s0 model.State) *history.Augmented {
	a, err := history.Run(h, s0)
	if err != nil {
		panic(err)
	}
	return a
}

// E1PrecedenceGraph reproduces Figure 1 / Example 1: the precedence-graph
// edges, the cycle, B = {Tm3}, AG = {Tm4}, and the merged history
// Tb1 Tb2 Tm1 Tm2.
func E1PrecedenceGraph() *Table {
	t := &Table{
		ID:     "E1",
		Title:  "Figure 1 / Example 1: precedence graph and merge",
		Header: []string{"artifact", "value"},
	}
	e := papertest.NewExample1()
	am := mustRun(history.New(e.Mobile()...), e.Origin)
	ab := mustRun(history.New(e.BaseTxns()...), e.Origin)
	g := graph.BuildFromHistories(am, ab)

	var edges []string
	for _, ed := range g.Edges() {
		edges = append(edges, ed[0]+"->"+ed[1])
	}
	t.Rows = append(t.Rows, []string{"edges", strings.Join(edges, " ")})
	t.Rows = append(t.Rows, []string{"cycle", strings.Join(g.FindCycle(nil), " -> ")})

	rep, err := merge.Merge(am, ab, merge.Options{Rewriter: merge.RewriteClosure, Verify: true})
	if err != nil {
		panic(err)
	}
	merged, err := merge.VerifyMerge(rep, am, ab, e.Origin)
	if err != nil {
		panic(err)
	}
	t.Rows = append(t.Rows,
		[]string{"B", strings.Join(rep.BadIDs, " ")},
		[]string{"AG", strings.Join(rep.AffectedIDs, " ")},
		[]string{"saved", strings.Join(rep.SavedIDs, " ")},
		[]string{"merged history", strings.Join(merged.IDs(), " ")},
	)
	t.Checks = append(t.Checks,
		Check{Name: "figure-1 cycle present", OK: g.HasEdge("Tb2", "Tm1") &&
			g.HasEdge("Tm1", "Tm2") && g.HasEdge("Tm2", "Tm3") &&
			g.HasEdge("Tm3", "Tb1") && g.HasEdge("Tb1", "Tb2")},
		Check{Name: "B = {Tm3}", OK: len(rep.BadIDs) == 1 && rep.BadIDs[0] == "Tm3"},
		Check{Name: "AG = {Tm4}", OK: len(rep.AffectedIDs) == 1 && rep.AffectedIDs[0] == "Tm4"},
		Check{Name: "merged = Tb1 Tb2 Tm1 Tm2",
			OK: strings.Join(merged.IDs(), " ") == "Tb1 Tb2 Tm1 Tm2"},
	)
	return t
}

// E2FixSemantics reproduces the Section 3 fix example: the plain swap of
// B1 and G2 changes the final state; the fixed swap preserves it.
func E2FixSemantics() *Table {
	t := &Table{
		ID:     "E2",
		Title:  "Section 3: fixes restore final-state equivalence",
		Header: []string{"history", "final state", "equivalent to H1"},
	}
	b1 := tx.MustNew("B1", tx.Tentative,
		tx.If(exprGT("x", 0),
			tx.Update("y", exprAddVars("y", "z", 3)),
		),
	)
	g2 := tx.MustNew("G2", tx.Tentative, tx.Update("x", exprAddConst("x", -1)))
	s0 := model.StateOf(map[model.Item]model.Value{"x": 1, "y": 7, "z": 2})

	orig := mustRun(history.New(b1, g2), s0)
	plain := mustRun(history.New(g2, b1), s0)
	fixed := mustRun(&history.History{Entries: []history.Entry{
		{T: g2},
		{T: b1, Fix: tx.Fix{"x": 1}},
	}}, s0)

	t.Rows = append(t.Rows,
		[]string{"H1 = B1 G2", orig.Final().String(), "-"},
		[]string{"G2 B1 (no fix)", plain.Final().String(),
			fmt.Sprint(plain.Final().Equal(orig.Final()))},
		[]string{"G2 B1^{x=1}", fixed.Final().String(),
			fmt.Sprint(fixed.Final().Equal(orig.Final()))},
	)
	t.Checks = append(t.Checks,
		Check{Name: "paper states s0/s1/s2 reproduced",
			OK: orig.Final().Equal(model.StateOf(map[model.Item]model.Value{"x": 0, "y": 12, "z": 2}))},
		Check{Name: "plain swap NOT equivalent", OK: !plain.Final().Equal(orig.Final())},
		Check{Name: "fixed swap equivalent", OK: fixed.Final().Equal(orig.Final())},
	)
	return t
}

// E3MotivatingExample reproduces Section 5.1's H4: Algorithm 1 saves {G2},
// Algorithm 2 saves {G2, G3}, and both pruning approaches land on the
// re-execution oracle.
func E3MotivatingExample() *Table {
	t := &Table{
		ID:     "E3",
		Title:  "Section 5.1 H4: can-precede saves the affected G3",
		Header: []string{"algorithm", "rewritten", "saved"},
	}
	h := papertest.NewH4()
	a := mustRun(history.New(h.Txns()...), h.Origin)
	bad := map[int]bool{0: true}

	r1, err := rewrite.Algorithm1(a, bad)
	if err != nil {
		panic(err)
	}
	r2, err := rewrite.Algorithm2(a, bad, rewrite.StaticDetector{})
	if err != nil {
		panic(err)
	}
	t.Rows = append(t.Rows,
		[]string{"Algorithm 1", r1.Rewritten.String(), strings.Join(r1.SavedIDs(), " ")},
		[]string{"Algorithm 2", r2.Rewritten.String(), strings.Join(r2.SavedIDs(), " ")},
	)

	oracle := mustRun(r2.Repaired(), h.Origin).Final()
	comp, _, errC := prune.ByCompensation(r2, a.Final())
	undo, uras, errU := prune.ByUndo(r2, a.Final())
	t.Rows = append(t.Rows,
		[]string{"compensation", comp.String(), ""},
		[]string{"undo", undo.String(), ""},
		[]string{"oracle (re-exec)", oracle.String(), ""},
	)
	uraStr := ""
	if len(uras) == 1 {
		uraStr = uras[0].Action.String()
	}
	t.Rows = append(t.Rows, []string{"undo-repair action", uraStr, ""})

	t.Checks = append(t.Checks,
		Check{Name: "Alg1 saves {G2}", OK: strings.Join(r1.SavedIDs(), " ") == "G2"},
		Check{Name: "Alg1 result is G2 B1^{u} G3",
			OK: r1.Rewritten.String() == "G2 B1^{u=30} G3"},
		Check{Name: "Alg2 saves {G2, G3}", OK: strings.Join(r2.SavedIDs(), " ") == "G2 G3"},
		Check{Name: "compensation = oracle", OK: errC == nil && comp.Equal(oracle)},
		Check{Name: "undo+URA = oracle", OK: errU == nil && undo.Equal(oracle)},
		Check{Name: "URA re-executes x := x+10 only",
			OK: len(uras) == 1 && len(uras[0].Action.Body) == 1 &&
				uras[0].Action.StaticWriteSet().Has("x")},
	)
	return t
}

// E4FixBlocksCommutativity reproduces Section 5.1's H5: T3 commutes
// backward through T1 but not through T1^{y}, with the 190-vs-180 witness.
func E4FixBlocksCommutativity() *Table {
	t := &Table{
		ID:     "E4",
		Title:  "Section 5.1 H5: a fix can disable commutativity",
		Header: []string{"order", "final x"},
	}
	h := papertest.NewH5()
	fix := tx.Fix{"y": 150}

	s1, _, err := h.T2.Exec(h.Origin, nil)
	if err != nil {
		panic(err)
	}
	a, _, _ := h.T1.Exec(s1, fix)
	a, _, _ = h.T3.Exec(a, nil)
	b, _, _ := h.T3.Exec(s1, nil)
	b, _, _ = h.T1.Exec(b, fix)

	t.Rows = append(t.Rows,
		[]string{"T2 T1^{y=150} T3", fmt.Sprint(a.Get("x"))},
		[]string{"T2 T3 T1^{y=150}", fmt.Sprint(b.Get("x"))},
	)
	staticNo := !(rewrite.StaticDetector{}).CanPrecede(h.T3, h.T1, fix)
	t.Rows = append(t.Rows,
		[]string{"static detector: T3 can precede T1^{y}?", fmt.Sprint(!staticNo)},
	)
	t.Checks = append(t.Checks,
		Check{Name: "witness 190 vs 180", OK: a.Get("x") == 190 && b.Get("x") == 180},
		Check{Name: "detector rejects the fixed pair", OK: staticNo},
	)
	return t
}

// E5Theorem3 validates Theorem 3 over random histories: the reads-from
// closure back-out equals Algorithm 1's repaired prefix.
func E5Theorem3() *Table {
	t := &Table{
		ID:     "E5",
		Title:  "Theorem 3: closure back-out == Algorithm 1 prefix (random histories)",
		Header: []string{"trials", "history len", "mismatches"},
	}
	const trials, n = 500, 10
	gen := workload.NewGenerator(workload.Config{Seed: 1005, Items: 8})
	origin := gen.OriginState()
	mismatches := 0
	for i := 0; i < trials; i++ {
		a, err := gen.RunHistory(tx.Tentative, n, origin)
		if err != nil {
			panic(err)
		}
		bad := gen.RandomBadSet(n, 0.2)
		kept, _ := rewrite.ClosureBackout(a, bad)
		res, err := rewrite.Algorithm1(a, bad)
		if err != nil {
			panic(err)
		}
		if strings.Join(kept.IDs(), " ") != strings.Join(res.SavedIDs(), " ") {
			mismatches++
		}
	}
	t.Rows = append(t.Rows, []string{fmt.Sprint(trials), fmt.Sprint(n), fmt.Sprint(mismatches)})
	t.Checks = append(t.Checks, Check{Name: "zero mismatches", OK: mismatches == 0})
	return t
}

// E6SavedSeries validates Theorem 4 and charts the saved-transaction series
// the paper argues qualitatively: closure == Alg1 <= Alg2, CBTR <= Alg2,
// with the gap widening as the workload gets more commutative.
func E6SavedSeries() *Table {
	t := &Table{
		ID:    "E6",
		Title: "Theorem 4 series: transactions saved per rewriter",
		Header: []string{
			"p(commut)", "items", "total", "closure", "CBTR", "Alg2", "violations",
		},
	}
	const trials, n = 120, 10
	allOK := true
	alg2AlwaysBest := true
	for _, pc := range []float64{0.3, 0.6, 0.9} {
		for _, items := range []int{6, 12} {
			gen := workload.NewGenerator(workload.Config{
				Seed: 2000 + int64(items), Items: items, PCommutative: pc,
			})
			origin := gen.OriginState()
			var total, sClo, sCBT, sAlg2, viol int
			for i := 0; i < trials; i++ {
				a, err := gen.RunHistory(tx.Tentative, n, origin)
				if err != nil {
					panic(err)
				}
				bad := gen.RandomBadSet(n, 0.2)
				kept, _ := rewrite.ClosureBackout(a, bad)
				cbt, err := rewrite.CBTR(a, bad, rewrite.StaticDetector{})
				if err != nil {
					panic(err)
				}
				alg2, err := rewrite.Algorithm2(a, bad, rewrite.StaticDetector{})
				if err != nil {
					panic(err)
				}
				total += n - len(bad)
				sClo += kept.Len()
				sCBT += cbt.PrefixLen
				sAlg2 += alg2.PrefixLen
				a2set := alg2.SavedSet()
				for id := range cbt.SavedSet() {
					if !a2set[id] {
						viol++
					}
				}
				if cbt.PrefixLen > alg2.PrefixLen || kept.Len() > alg2.PrefixLen {
					alg2AlwaysBest = false
				}
			}
			if viol > 0 {
				allOK = false
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.1f", pc), fmt.Sprint(items), fmt.Sprint(total),
				fmt.Sprint(sClo), fmt.Sprint(sCBT), fmt.Sprint(sAlg2), fmt.Sprint(viol),
			})
		}
	}
	t.Checks = append(t.Checks,
		Check{Name: "CBTR ⊆ Alg2 everywhere (Theorem 4)", OK: allOK},
		Check{Name: "Alg2 saves at least as many as every baseline", OK: alg2AlwaysBest},
	)
	return t
}

// Markdown renders the table as GitHub-flavored markdown, for pasting into
// EXPERIMENTS.md.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	b.WriteByte('\n')
	for _, c := range t.Checks {
		mark := "PASS"
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "- **%s** %s", mark, c.Name)
		if c.Note != "" {
			fmt.Fprintf(&b, " — %s", c.Note)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
