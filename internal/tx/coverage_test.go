package tx

import (
	"strings"
	"testing"

	"tiermerge/internal/expr"
	"tiermerge/internal/model"
)

func TestStmtAndTxnStrings(t *testing.T) {
	tr := MustNew("T1", Tentative,
		Read("a"),
		Update("x", expr.Add(expr.Var("x"), expr.Const(1))),
		Assign("w", expr.Const(9)),
		IfElse(expr.GT(expr.Var("c"), expr.Const(0)),
			[]Stmt{Update("y", expr.Const(1))},
			[]Stmt{Update("z", expr.Const(2))},
		),
	).WithType("demo")
	got := tr.String()
	for _, want := range []string{
		"T1[tentative]<demo>",
		"read a",
		"x := (x + 1)",
		"w :=! 9",
		"if c > 0 then { y := 1 } else { z := 2 }",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("String missing %q in %q", want, got)
		}
	}
	if base := MustNew("B", Base, Read("a")); !strings.Contains(base.String(), "[base]") {
		t.Errorf("base kind missing: %q", base.String())
	}
	if k := Kind(99); k.String() != "unknown" {
		t.Errorf("unknown kind = %q", k.String())
	}
}

func TestStmtCountAndParams(t *testing.T) {
	tr := MustNew("T1", Tentative,
		Read("a"),
		If(expr.GT(expr.Var("c"), expr.Const(0)),
			Update("x", expr.Const(1)),
			Update("y", expr.Const(2)),
		),
	).WithParams(map[string]model.Value{"p": 1, "q": 2})
	// 1 read + 1 if + 2 nested updates = 4.
	if got := tr.StmtCount(); got != 4 {
		t.Errorf("StmtCount = %d, want 4", got)
	}
	if got := tr.ParamCount(); got != 2 {
		t.Errorf("ParamCount = %d, want 2", got)
	}
}

func TestHasBlindWritesNested(t *testing.T) {
	inThen := MustNew("T", Tentative,
		If(expr.GT(expr.Var("c"), expr.Const(0)), Assign("x", expr.Const(1))),
	)
	if !inThen.HasBlindWrites() {
		t.Error("nested blind write missed")
	}
	inElse := MustNew("T", Tentative,
		IfElse(expr.GT(expr.Var("c"), expr.Const(0)),
			[]Stmt{Read("a")},
			[]Stmt{Assign("x", expr.Const(1))},
		),
	)
	if !inElse.HasBlindWrites() {
		t.Error("else-branch blind write missed")
	}
	clean := MustNew("T", Tentative,
		If(expr.GT(expr.Var("c"), expr.Const(0)), Update("x", expr.Const(1))),
	)
	if clean.HasBlindWrites() {
		t.Error("false positive blind write")
	}
}

func TestEffectClone(t *testing.T) {
	tr := MustNew("T", Tentative, Update("x", expr.Add(expr.Var("x"), expr.Var("a"))))
	_, eff, err := tr.Exec(model.StateOf(map[model.Item]model.Value{"a": 2, "x": 3}), nil)
	if err != nil {
		t.Fatal(err)
	}
	c := eff.Clone()
	c.ReadSet.Add("zzz")
	c.Writes["x"] = 999
	c.Items[0].ReadValue = 999
	c.Items[1].Before = 999
	c.Items[1].Written = false
	if eff.ReadSet.Has("zzz") || eff.Writes["x"] == 999 ||
		record(eff, "a").ReadValue == 999 || record(eff, "x").Before == 999 || !record(eff, "x").Written {
		t.Error("Clone shares storage with the original")
	}
}

func TestEmptyFixHelper(t *testing.T) {
	if f := EmptyFix(); !f.IsEmpty() {
		t.Error("EmptyFix not empty")
	}
}

func TestNotInvertibleErrorMessage(t *testing.T) {
	_, err := Invert(MustNew("T9", Tentative, Update("x", expr.Const(5))))
	if err == nil || !strings.Contains(err.Error(), "T9") {
		t.Errorf("error %v lacks the transaction id", err)
	}
}
