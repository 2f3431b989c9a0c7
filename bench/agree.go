package main

import (
	"fmt"
	"io"
)

// verdict of one (metric × workload) pair.
type verdict string

const (
	agreed     verdict = "ok"
	breach     verdict = "BREACH"
	unresolved verdict = "unresolved"
)

// pairRow is one compared (metric × workload) pair.
type pairRow struct {
	Workload, Metric string
	A, B             float64 // medians of the two sets
	Worse            float64 // how much worse B is than A, as a share of A (negative: better)
	Spread           float64 // the wider of the two sets' own run-to-run spreads
	Bound            float64
	Verdict          verdict
}

// judge compares one metric's values from two result sets against its
// bound. B worse than A by more than the bound is a breach. A pair is
// unresolved, not equal, when the noise is as large as the bound: when
// either set's own runs spread wider than the bound, or when the two sets
// differ by more than the bound in the harmless direction (two runs of one
// commit cannot be told apart to within the bound, so a breach of that
// size could hide as easily).
func judge(m specMetric, a, b []float64) pairRow {
	row := pairRow{Metric: m.Name, A: median(a), B: median(b), Bound: *m.Bound}
	if m.Better == "lower" {
		row.Worse = ratio(row.B-row.A, row.A)
	} else {
		row.Worse = ratio(row.A-row.B, row.A)
	}
	row.Spread = max(spread(a), spread(b))
	switch {
	case len(a) == 0 || len(b) == 0:
		row.Verdict = breach // a metric one side did not report
	case row.Worse > row.Bound:
		row.Verdict = breach
	case row.Spread > row.Bound || -row.Worse > row.Bound:
		row.Verdict = unresolved
	default:
		row.Verdict = agreed
	}
	return row
}

// agreeFiles compares result file b against result file a, pair by pair,
// prints every row, and returns an error when any pair breaches its bound
// or any run failed its checks.
func agreeFiles(bs *benchSpec, pathA, pathB string, w io.Writer) error {
	a, err := readResultSet(pathA)
	if err != nil {
		return err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s  commit %s seed %d (%s)\n", pathA, a.Stamp.Commit, a.Stamp.Seed, a.Stamp.Time)
	fmt.Fprintf(w, "B: %s  commit %s seed %d (%s)\n", pathB, b.Stamp.Commit, b.Stamp.Seed, b.Stamp.Time)
	fmt.Fprintf(w, "%-15s %-26s %13s %13s %8s %7s %7s  %s\n", "workload", "metric", "A", "B", "B worse", "spread", "bound", "verdict")
	breaches, open := 0, 0
	for _, sp := range specs {
		for _, m := range bs.EndToEnd {
			row := judge(m, a.values(sp.Name, m.Name), b.values(sp.Name, m.Name))
			fmt.Fprintf(w, "%-15s %-26s %13.4f %13.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				sp.Name, m.Name, row.A, row.B, 100*row.Worse, 100*row.Spread, 100*row.Bound, row.Verdict)
			switch row.Verdict {
			case breach:
				breaches++
			case unresolved:
				open++
			}
		}
	}
	failed := 0
	for _, set := range []*resultSet{a, b} {
		for _, r := range set.Runs {
			if !r.Correct || r.Failed > 0 {
				failed++
			}
		}
	}
	fmt.Fprintf(w, "%d breaches, %d unresolved, %d runs with failed checks or operations\n", breaches, open, failed)
	if breaches > 0 || failed > 0 {
		return fmt.Errorf("the two result sets do not agree")
	}
	return nil
}
