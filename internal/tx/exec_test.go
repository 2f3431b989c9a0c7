package tx

import (
	"testing"
	"testing/quick"

	"tiermerge/internal/expr"
	"tiermerge/internal/model"
)

func TestExecSimpleUpdate(t *testing.T) {
	tr := MustNew("T1", Tentative,
		Update("x", expr.Add(expr.Var("x"), expr.Const(5))),
	)
	s0 := model.StateOf(map[model.Item]model.Value{"x": 10})
	out, eff, err := tr.Exec(s0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Get("x"); got != 15 {
		t.Errorf("x = %d, want 15", got)
	}
	if s0.Get("x") != 10 {
		t.Error("Exec mutated the input state")
	}
	if !eff.ReadSet.Has("x") || !eff.WriteSet.Has("x") {
		t.Errorf("effect sets: R=%v W=%v, want both to contain x", eff.ReadSet, eff.WriteSet)
	}
	if eff.ReadValues["x"] != 10 || eff.Writes["x"] != 15 || eff.Before["x"] != 10 {
		t.Errorf("effect values: read=%d write=%d before=%d",
			eff.ReadValues["x"], eff.Writes["x"], eff.Before["x"])
	}
}

func TestExecImplicitTargetRead(t *testing.T) {
	// x := $p does not mention x, but the no-blind-write rule reads it.
	tr := MustNew("T1", Tentative, Update("x", expr.Param("p"))).
		WithParams(map[string]model.Value{"p": 42})
	_, eff, err := tr.Exec(model.StateOf(map[model.Item]model.Value{"x": 1}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !eff.ReadSet.Has("x") {
		t.Error("update target not implicitly read")
	}
	if eff.ReadValues["x"] != 1 {
		t.Errorf("implicit read value = %d, want 1", eff.ReadValues["x"])
	}
}

func TestExecBlindWriteSkipsRead(t *testing.T) {
	tr := MustNew("T1", Tentative, Assign("x", expr.Const(7)))
	_, eff, err := tr.Exec(model.NewState(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if eff.ReadSet.Has("x") {
		t.Error("blind write recorded a read of its target")
	}
	if !eff.WriteSet.Has("x") || eff.Writes["x"] != 7 {
		t.Errorf("blind write effect: W=%v writes=%v", eff.WriteSet, eff.Writes)
	}
	if !tr.HasBlindWrites() {
		t.Error("HasBlindWrites = false")
	}
}

func TestExecFixOverridesState(t *testing.T) {
	// Section 3's example: B1: if x > 0 then y := y + z + 3.
	b1 := MustNew("B1", Tentative,
		If(expr.GT(expr.Var("x"), expr.Const(0)),
			Update("y", expr.Add(expr.Var("y"), expr.Add(expr.Var("z"), expr.Const(3)))),
		),
	)
	// After G2 ran, x = 0; without a fix the branch is skipped.
	s := model.StateOf(map[model.Item]model.Value{"x": 0, "y": 7, "z": 2})
	out, _, err := b1.Exec(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Get("y") != 7 {
		t.Errorf("without fix: y = %d, want 7", out.Get("y"))
	}
	// With fix {x=1}, B1 reads x from the fix and takes the branch.
	out, eff, err := b1.Exec(s, Fix{"x": 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Get("y") != 12 {
		t.Errorf("with fix: y = %d, want 12", out.Get("y"))
	}
	if eff.ReadValues["x"] != 1 {
		t.Errorf("fixed read recorded %d, want the fix value 1", eff.ReadValues["x"])
	}
	// The fix does not change the state's own x.
	if out.Get("x") != 0 {
		t.Errorf("fix leaked into state: x = %d, want 0", out.Get("x"))
	}
}

func TestExecLocalReadAfterWrite(t *testing.T) {
	// Second update reads the first update's result, not the fix and not
	// the state.
	tr := MustNew("T1", Tentative,
		Update("x", expr.Add(expr.Var("x"), expr.Const(1))),
		Update("y", expr.Var("x")),
	)
	out, eff, err := tr.Exec(model.StateOf(map[model.Item]model.Value{"x": 10}), Fix{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Get("y") != 11 {
		t.Errorf("y = %d, want 11 (the locally written x)", out.Get("y"))
	}
	// ReadValues records only the external read of x.
	if eff.ReadValues["x"] != 10 {
		t.Errorf("external read of x = %d, want 10", eff.ReadValues["x"])
	}
}

func TestExecConditionalBranches(t *testing.T) {
	tr := MustNew("T1", Tentative,
		IfElse(expr.GT(expr.Var("x"), expr.Const(0)),
			[]Stmt{Update("y", expr.Const(1))},
			[]Stmt{Update("z", expr.Const(2))},
		),
	)
	out, eff, err := tr.Exec(model.StateOf(map[model.Item]model.Value{"x": 5}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Get("y") != 1 || out.Get("z") != 0 {
		t.Errorf("then-branch: y=%d z=%d", out.Get("y"), out.Get("z"))
	}
	if eff.WriteSet.Has("z") {
		t.Error("untaken branch leaked into the write set")
	}
	out, eff, err = tr.Exec(model.StateOf(map[model.Item]model.Value{"x": -5}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Get("z") != 2 || out.Get("y") != 0 {
		t.Errorf("else-branch: y=%d z=%d", out.Get("y"), out.Get("z"))
	}
	if eff.WriteSet.Has("y") {
		t.Error("untaken branch leaked into the write set")
	}
}

func TestExecErrors(t *testing.T) {
	divZero := MustNew("T1", Tentative,
		Update("x", expr.Div(expr.Var("x"), expr.Var("y"))),
	)
	s := model.StateOf(map[model.Item]model.Value{"x": 10, "y": 0})
	if _, _, err := divZero.Exec(s, nil); err == nil {
		t.Error("divide by zero not reported")
	}
	if divZero.DefinedOn(s, nil) {
		t.Error("DefinedOn = true for a failing state")
	}
	s.Set("y", 2)
	if !divZero.DefinedOn(s, nil) {
		t.Error("DefinedOn = false for a fine state")
	}

	missingParam := MustNew("T2", Tentative, Update("x", expr.Param("nope")))
	if _, _, err := missingParam.Exec(model.NewState(), nil); err == nil {
		t.Error("unknown parameter not reported")
	}
}

// TestExecAtomicOnError: a transaction that writes x and then fails leaves
// the state it was handed exactly as it was — under Exec, and under
// ExecInPlace, which buffers its writes until the whole body has run.
func TestExecAtomicOnError(t *testing.T) {
	for name, fail := range map[string]Stmt{
		"missing parameter": Update("y", expr.Param("nope")),
		"division by zero":  Update("y", expr.Div(expr.Const(1), expr.Const(0))),
	} {
		tr := MustNew("T1", Tentative, Update("x", expr.Const(99)), fail)
		s := model.StateOf(map[model.Item]model.Value{"x": 1})
		if _, _, err := tr.Exec(s, nil); err == nil {
			t.Fatalf("%s: Exec: expected error", name)
		}
		if _, err := tr.ExecInPlace(s, nil); err == nil {
			t.Fatalf("%s: ExecInPlace: expected error", name)
		}
		if want := model.StateOf(map[model.Item]model.Value{"x": 1}); !s.Equal(want) || len(s) != len(want) {
			t.Errorf("%s: a failed execution left %s, want %s", name, s, want)
		}
	}
}

func TestValidateDoubleUpdate(t *testing.T) {
	if _, err := New("T1", Tentative,
		Update("x", expr.Const(1)),
		Update("x", expr.Const(2)),
	); err == nil {
		t.Error("double update on one path not rejected")
	}
	// Updating the same item in two exclusive branches is legal.
	if _, err := New("T2", Tentative,
		IfElse(expr.GT(expr.Var("c"), expr.Const(0)),
			[]Stmt{Update("x", expr.Const(1))},
			[]Stmt{Update("x", expr.Const(2))},
		),
	); err != nil {
		t.Errorf("branch-exclusive updates rejected: %v", err)
	}
	// But updating after either branch wrote it is rejected (conservative).
	if _, err := New("T3", Tentative,
		If(expr.GT(expr.Var("c"), expr.Const(0)), Update("x", expr.Const(1))),
		Update("x", expr.Const(2)),
	); err == nil {
		t.Error("update after conditional write not rejected")
	}
}

func TestStaticSets(t *testing.T) {
	tr := MustNew("T1", Tentative,
		Read("a"),
		If(expr.GT(expr.Var("c"), expr.Const(0)),
			Update("x", expr.Add(expr.Var("x"), expr.Var("b"))),
		),
		Assign("w", expr.Var("v")),
	)
	rs, ws := tr.StaticReadSet(), tr.StaticWriteSet()
	for _, it := range []model.Item{"a", "c", "x", "b", "v"} {
		if !rs.Has(it) {
			t.Errorf("static read set missing %s (got %v)", it, rs)
		}
	}
	if rs.Has("w") {
		t.Error("blind-write target in static read set")
	}
	for _, it := range []model.Item{"x", "w"} {
		if !ws.Has(it) {
			t.Errorf("static write set missing %s (got %v)", it, ws)
		}
	}
	if tr.IsReadOnly() {
		t.Error("IsReadOnly = true for a writer")
	}
	if ro := MustNew("T2", Tentative, Read("a")); !ro.IsReadOnly() {
		t.Error("IsReadOnly = false for a reader")
	}
}

func TestFixOps(t *testing.T) {
	var nilFix Fix
	if !nilFix.IsEmpty() || nilFix.Clone() != nil {
		t.Error("nil fix misbehaves")
	}
	f := Fix{"x": 1, "y": 2}
	m := f.Merge(Fix{"y": 99, "z": 3})
	if m["x"] != 1 || m["y"] != 2 || m["z"] != 3 {
		t.Errorf("Merge = %v; receiver's entries must win", m)
	}
	if f["z"] != 0 {
		t.Error("Merge mutated the receiver")
	}
	if got, want := f.String(), "{x=1, y=2}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got, want := nilFix.String(), "∅"; got != want {
		t.Errorf("empty String = %q, want %q", got, want)
	}
	its := f.Items()
	if !its.Has("x") || !its.Has("y") || len(its) != 2 {
		t.Errorf("Items = %v", its)
	}
}

func TestEffectFixFor(t *testing.T) {
	tr := MustNew("T1", Tentative,
		Read("a"),
		Update("x", expr.Add(expr.Var("x"), expr.Var("a"))),
	)
	_, eff, err := tr.Exec(model.StateOf(map[model.Item]model.Value{"a": 3, "x": 10}), nil)
	if err != nil {
		t.Fatal(err)
	}
	f := eff.FixFor(model.NewItemSet("a", "zzz"))
	if len(f) != 1 || f["a"] != 3 {
		t.Errorf("FixFor = %v, want {a=3}", f)
	}
	if f := eff.FixFor(model.NewItemSet("zzz")); f != nil {
		t.Errorf("FixFor(no hits) = %v, want nil", f)
	}
}

// TestExecDeterminism quick-checks that execution is a pure function of
// (state, fix, params).
func TestExecDeterminism(t *testing.T) {
	tr := MustNew("T", Tentative,
		If(expr.GT(expr.Var("x"), expr.Param("t")),
			Update("y", expr.Add(expr.Var("y"), expr.Var("x"))),
			Update("z", expr.Mul(expr.Var("z"), expr.Const(2))),
		),
	)
	f := func(x, y, z, th int16, fixX bool, fx int16) bool {
		tr.Params = map[string]model.Value{"t": model.Value(th)}
		s := model.StateOf(map[model.Item]model.Value{
			"x": model.Value(x), "y": model.Value(y), "z": model.Value(z),
		})
		var fix Fix
		if fixX {
			fix = Fix{"x": model.Value(fx)}
		}
		s1, e1, err1 := tr.Exec(s, fix)
		s2, e2, err2 := tr.Exec(s, fix)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		if !s1.Equal(s2) {
			return false
		}
		return len(e1.WriteSet) == len(e2.WriteSet) && len(e1.ReadSet) == len(e2.ReadSet)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFixMatchingStateIsNoop quick-checks that a fix pinning items to the
// values the state already holds changes nothing (Definition 1: the fix
// replays what would have been read anyway).
func TestFixMatchingStateIsNoop(t *testing.T) {
	tr := MustNew("T", Tentative,
		If(expr.GT(expr.Var("u"), expr.Const(0)),
			Update("x", expr.Add(expr.Var("x"), expr.Var("v"))),
		),
	)
	f := func(u, v, x int16) bool {
		s := model.StateOf(map[model.Item]model.Value{
			"u": model.Value(u), "v": model.Value(v), "x": model.Value(x),
		})
		plain, _, err1 := tr.Exec(s, nil)
		fixed, _, err2 := tr.Exec(s, Fix{"u": model.Value(u), "v": model.Value(v)})
		if err1 != nil || err2 != nil {
			return false
		}
		return plain.Equal(fixed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
