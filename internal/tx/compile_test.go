package tx_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"tiermerge/internal/expr"
	"tiermerge/internal/model"
	"tiermerge/internal/parse"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// randItems is the alphabet of randBody: small, so that bodies read, write
// and rewrite the same items across and after branches.
var randItems = []model.Item{"a", "b", "c", "d", "e"}

func randItem(r *rand.Rand) model.Item { return randItems[r.Intn(len(randItems))] }

func randExpr(r *rand.Rand, depth int) expr.Expr {
	switch k := r.Intn(5); {
	case depth == 0 || k == 0:
		return expr.Var(randItem(r))
	case k == 1:
		return expr.Const(model.Value(r.Intn(9)))
	case k == 2:
		return expr.Param("p")
	default:
		return expr.Add(randExpr(r, depth-1), randExpr(r, depth-1))
	}
}

func randPred(r *rand.Rand, depth int) expr.Pred {
	switch k := r.Intn(4); {
	case depth == 0 || k == 0:
		return expr.GT(randExpr(r, 1), expr.Const(0))
	case k == 1:
		return expr.And(randPred(r, depth-1), randPred(r, depth-1))
	case k == 2:
		return expr.Or(randPred(r, depth-1), randPred(r, depth-1))
	default:
		return expr.Not(randPred(r, depth-1))
	}
}

// randBody is a random body of reads, updates, blind writes (Assign) and
// conditionals nested up to depth.
func randBody(r *rand.Rand, depth int) []tx.Stmt {
	body := make([]tx.Stmt, r.Intn(4))
	for i := range body {
		switch k := r.Intn(10); {
		case k < 2:
			body[i] = tx.Read(randItem(r))
		case k < 5 || (k >= 7 && depth == 0):
			body[i] = tx.Update(randItem(r), randExpr(r, 2))
		case k < 7:
			body[i] = tx.Assign(randItem(r), randExpr(r, 2))
		default:
			body[i] = tx.IfElse(randPred(r, 2), randBody(r, depth-1), randBody(r, depth-1))
		}
	}
	return body
}

// TestCompileMatchesReference: Validate and the sorted compiled sets agree
// with the map-based reference (tx.CompileDiff) — the same accept or
// reject with the same error, the same static read set, write set and
// footprint — on every canned type, on generated transactions, on the
// scenario files' transactions, on fixed bodies that write an item in a
// branch and again after it, and on random bodies with nested conditionals,
// blind writes and double updates.
func TestCompileMatchesReference(t *testing.T) {
	rejected, accepted, blind := 0, 0, 0
	check := func(name string, tr *tx.Transaction) {
		t.Helper()
		if diff := tx.CompileDiff(tr); diff != "" {
			t.Errorf("%s (%s): %s", name, tr, diff)
		}
		if err := (&tx.Transaction{Body: tr.Body}).Validate(); err != nil {
			rejected++
		} else {
			accepted++
		}
		if tr.HasBlindWrites() {
			blind++
		}
	}
	for _, tr := range []*tx.Transaction{
		workload.Deposit("D", tx.Tentative, "a", 5),
		workload.Withdraw("W", tx.Tentative, "a", 5),
		workload.Transfer("T", tx.Tentative, "a", "b", 5),
		workload.GuardedTransfer("G", tx.Tentative, "a", "b", 5),
		workload.SetPrice("S", tx.Base, "a", 7),
		workload.Audit("A", tx.Base, "c", "a", "b", "a"),
		workload.Audit("A0", tx.Base),
		workload.Bonus("B", tx.Tentative, "g", "a", 3, 2),
		workload.AccrueInterest("I", tx.Tentative, "a", 2),
		workload.Restock("R", tx.Base, "a", 10),
	} {
		check("canned "+tr.Type, tr)
	}
	for seed := int64(1); seed <= 6; seed++ {
		gen := workload.NewGenerator(workload.Config{Seed: seed, Items: 12, HotItems: 3, PHot: 0.4, PCommutative: 0.3})
		for i := range 200 {
			kind := tx.Tentative
			if i%2 == 1 {
				kind = tx.Base
			}
			tr := gen.Txn(kind)
			check(fmt.Sprintf("generator seed %d txn %d", seed, i), tr)
		}
	}
	files, err := filepath.Glob("../../scenarios/*.txn")
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario files (%v)", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := parse.ScenarioFile(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, tr := range append(sc.Mobile, sc.Base...) {
			check(filepath.Base(f)+" "+tr.ID, tr)
		}
	}
	c := expr.GT(expr.Var("c"), expr.Const(0))
	x := func(it model.Item) tx.Stmt { return tx.Update(it, expr.Add(expr.Var(it), expr.Const(1))) }
	for i, body := range [][]tx.Stmt{
		{tx.If(c, x("a")), x("a")},                                   // written in a branch, again after it
		{tx.IfElse(c, []tx.Stmt{x("a")}, []tx.Stmt{x("a")}), x("b")}, // once per path
		{tx.IfElse(c, []tx.Stmt{x("a")}, []tx.Stmt{x("b")}), x("b")}, // the else branch's write, again after
		{tx.IfElse(c, []tx.Stmt{tx.IfElse(c, []tx.Stmt{x("a")}, []tx.Stmt{x("b")})}, []tx.Stmt{x("a")}), x("c"), x("b")},
		{tx.If(c, x("a"), x("a"))},                                               // twice in one branch
		{tx.Assign("a", expr.Const(1)), x("a")},                                  // a blind write, then an update
		{tx.Read("a"), tx.Assign("a", expr.Var("b"))},                            // blind write of an item read
		{tx.Assign("z", expr.Var("a")), tx.If(c, tx.Assign("y", expr.Const(2)))}, // blind writes of items never read
	} {
		check(fmt.Sprintf("fixed body %d", i), &tx.Transaction{ID: fmt.Sprintf("F%d", i), Body: body})
	}
	r := rand.New(rand.NewSource(1))
	for i := range 2000 {
		check(fmt.Sprintf("random body %d", i), &tx.Transaction{ID: fmt.Sprintf("R%d", i), Body: randBody(r, 3)})
	}
	t.Logf("%d accepted, %d rejected, %d with blind writes", accepted, rejected, blind)
	if rejected < 200 || accepted < 1000 || blind < 500 {
		t.Fatalf("%d accepted, %d rejected, %d with blind writes: the comparison is vacuous", accepted, rejected, blind)
	}
}
