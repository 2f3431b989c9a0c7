package replica

import (
	"fmt"

	"tiermerge/internal/expr"
	"tiermerge/internal/merge"
)

// txDivByItem builds the update expression x := x + x/w, which fails when
// item w is zero — used to exercise failed re-executions.
func txDivByItem() expr.Expr {
	return expr.Add(expr.Var("x"), expr.Div(expr.Var("x"), expr.Var("w")))
}

// reportOutcome renders every outcome-bearing field of a merge report, for
// comparing two merges that must have decided identically.
func reportOutcome(rep *merge.Report) string {
	reexec := make([]string, len(rep.Reexecute))
	for i, t := range rep.Reexecute {
		reexec[i] = t.ID
	}
	return fmt.Sprintf("conflict=%v bad=%v affected=%v saved=%v reexecute=%v forward=%v deltas=%v folded=%d state=%s",
		rep.Conflict, rep.BadIDs, rep.AffectedIDs, rep.SavedIDs, reexec,
		rep.ForwardUpdates, rep.ForwardDeltas, rep.DeltaFolded, rep.RepairedState)
}
