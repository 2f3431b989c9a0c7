package history

import (
	"testing"

	"tiermerge/internal/expr"
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
)

// section3Example builds the paper's Section 3 history H1 = s0 B1 s1 G2 s2:
//
//	B1: if x > 0 then y := y + z + 3
//	G2: x := x - 1
//	s0 = {x=1; y=7; z=2}
func section3Example() (b1, g2 *tx.Transaction, s0 model.State) {
	b1 = tx.MustNew("B1", tx.Tentative,
		tx.If(expr.GT(expr.Var("x"), expr.Const(0)),
			tx.Update("y", expr.Add(expr.Var("y"), expr.Add(expr.Var("z"), expr.Const(3)))),
		),
	)
	g2 = tx.MustNew("G2", tx.Tentative,
		tx.Update("x", expr.Sub(expr.Var("x"), expr.Const(1))),
	)
	s0 = model.StateOf(map[model.Item]model.Value{"x": 1, "y": 7, "z": 2})
	return b1, g2, s0
}

// TestSection3AugmentedStates reproduces the paper's augmented history
// states s0, s1, s2 exactly.
func TestSection3AugmentedStates(t *testing.T) {
	b1, g2, s0 := section3Example()
	a, err := Run(New(b1, g2), s0)
	if err != nil {
		t.Fatal(err)
	}
	want := []model.State{
		model.StateOf(map[model.Item]model.Value{"x": 1, "y": 7, "z": 2}),
		model.StateOf(map[model.Item]model.Value{"x": 1, "y": 12, "z": 2}),
		model.StateOf(map[model.Item]model.Value{"x": 0, "y": 12, "z": 2}),
	}
	for i, w := range want {
		if got := a.StateAt(i); !got.Equal(w) {
			t.Errorf("s%d = %s, want %s", i, got, w)
		}
		for _, it := range w.Items() {
			if got := a.ValueBefore(i, it); got != w.Get(it) {
				t.Errorf("ValueBefore(%d, %s) = %d, want %d", i, it, got, w.Get(it))
			}
		}
	}
	if !a.Final().Equal(want[2]) || !a.Origin.Equal(s0) {
		t.Error("Origin/Final wrong")
	}
}

// TestSection3FixExample reproduces the paper's fix demonstration: the plain
// swap G2 B1 ends in a different state, but G2 B1^{x} ends in s2.
func TestSection3FixExample(t *testing.T) {
	b1, g2, s0 := section3Example()
	orig, err := Run(New(b1, g2), s0)
	if err != nil {
		t.Fatal(err)
	}
	// H2 = s0 G2 s3 B1 s3': plain swap loses the y update.
	plain, err := Run(New(g2, b1), s0)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Final().Equal(orig.Final()) {
		t.Error("plain swap should NOT be final state equivalent")
	}
	if plain.Final().Get("y") != 7 {
		t.Errorf("plain swap y = %d, want 7", plain.Final().Get("y"))
	}
	// H3 = s0 G2 s3 B1^{x=1} s2: the fix restores equivalence.
	fixed := &History{Entries: []Entry{
		{T: g2},
		{T: b1, Fix: tx.Fix{"x": 1}},
	}}
	faug, err := Run(fixed, s0)
	if err != nil {
		t.Fatal(err)
	}
	if !faug.Final().Equal(orig.Final()) {
		t.Errorf("H3 final = %s, want %s", faug.Final(), orig.Final())
	}
	// And via the equivalence predicate (same transaction set).
	eq, err := FinalStateEquivalent(New(b1, g2), New(g2, b1), s0)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Error("FinalStateEquivalent(H1, plain swap) = true, want false")
	}
}

func TestFinalStateEquivalentRequiresSameSet(t *testing.T) {
	b1, g2, s0 := section3Example()
	eq, err := FinalStateEquivalent(New(b1, g2), New(b1), s0)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Error("histories over different transaction sets reported equivalent")
	}
}

func TestHistoryHelpers(t *testing.T) {
	b1, g2, _ := section3Example()
	h := New(b1, g2)
	if h.Len() != 2 || h.Txn(0) != b1 {
		t.Error("Len/Txn wrong")
	}
	if got := h.IDs(); got[0] != "B1" || got[1] != "G2" {
		t.Errorf("IDs = %v", got)
	}
	if h.IndexOf("G2") != 1 || h.IndexOf("nope") != -1 {
		t.Error("IndexOf wrong")
	}
	if got := h.Prefix(1).IDs(); len(got) != 1 || got[0] != "B1" {
		t.Errorf("Prefix = %v", got)
	}
	if got := h.Suffix(1).IDs(); len(got) != 1 || got[0] != "G2" {
		t.Errorf("Suffix = %v", got)
	}
	c := h.Clone()
	c.Entries[0].Fix = tx.Fix{"x": 1}
	if !h.Entries[0].Fix.IsEmpty() {
		t.Error("Clone shares fixes")
	}
	if got, want := c.String(), "B1^{x=1} G2"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if !h.SameTransactionSet(New(g2, b1)) {
		t.Error("SameTransactionSet order-sensitive")
	}
	if h.SameTransactionSet(New(b1, b1)) {
		t.Error("SameTransactionSet ignores multiplicity")
	}
}

func TestReadsFrom(t *testing.T) {
	// T1 writes x; T2 reads x and writes y; T3 reads y; T4 reads x but T1's
	// write was overwritten by T2'... use a fresh writer chain:
	t1 := tx.MustNew("T1", tx.Tentative, tx.Update("x", expr.Add(expr.Var("x"), expr.Const(1))))
	t2 := tx.MustNew("T2", tx.Tentative,
		tx.Update("y", expr.Add(expr.Var("y"), expr.Var("x"))))
	t3 := tx.MustNew("T3", tx.Tentative,
		tx.Update("z", expr.Add(expr.Var("z"), expr.Var("y"))))
	t4 := tx.MustNew("T4", tx.Tentative, tx.Read("q"))
	a, err := Run(New(t1, t2, t3, t4), model.NewState())
	if err != nil {
		t.Fatal(err)
	}
	edges := ReadsFrom(a)
	type key struct{ w, r int }
	got := make(map[key]model.Item)
	for _, e := range edges {
		got[key{e.Writer, e.Reader}] = e.Item
	}
	if it := got[key{0, 1}]; it != "x" {
		t.Errorf("T2 reads x from T1: got %v / %q", got, it)
	}
	if it := got[key{1, 2}]; it != "y" {
		t.Errorf("T3 reads y from T2: got %q", it)
	}
	if _, ok := got[key{0, 2}]; ok {
		t.Error("T3 does not read from T1 directly")
	}
	if _, ok := got[key{0, 3}]; ok {
		t.Error("T4 reads nothing written")
	}
}

func TestReadsFromLastWriterWins(t *testing.T) {
	// T1 and T2 both write x; T3 reads x — only the T2 edge exists.
	t1 := tx.MustNew("T1", tx.Tentative, tx.Update("x", expr.Add(expr.Var("x"), expr.Const(1))))
	t2 := tx.MustNew("T2", tx.Tentative, tx.Update("x", expr.Add(expr.Var("x"), expr.Const(2))))
	t3 := tx.MustNew("T3", tx.Tentative, tx.Update("y", expr.Var("x")))
	a, err := Run(New(t1, t2, t3), model.NewState())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ReadsFrom(a) {
		if e.Reader == 2 && e.Writer == 0 {
			t.Error("T3 must read x from T2 (last writer), not T1")
		}
	}
}

func TestAffectedSetTransitive(t *testing.T) {
	// Chain: T0 -> T1 -> T2 (reads-from), T3 independent.
	t0 := tx.MustNew("T0", tx.Tentative, tx.Update("a", expr.Add(expr.Var("a"), expr.Const(1))))
	t1 := tx.MustNew("T1", tx.Tentative, tx.Update("b", expr.Add(expr.Var("b"), expr.Var("a"))))
	t2 := tx.MustNew("T2", tx.Tentative, tx.Update("c", expr.Add(expr.Var("c"), expr.Var("b"))))
	t3 := tx.MustNew("T3", tx.Tentative, tx.Update("d", expr.Add(expr.Var("d"), expr.Const(1))))
	a, err := Run(New(t0, t1, t2, t3), model.NewState())
	if err != nil {
		t.Fatal(err)
	}
	ag := AffectedSet(a, map[int]bool{0: true})
	if !ag[1] || !ag[2] {
		t.Errorf("AG = %v, want {1, 2}", ag)
	}
	if ag[3] {
		t.Error("independent T3 marked affected")
	}
	if ag[0] {
		t.Error("B member included in AG")
	}
}

func TestAffectedSetEmptyForCleanB(t *testing.T) {
	t0 := tx.MustNew("T0", tx.Tentative, tx.Update("a", expr.Add(expr.Var("a"), expr.Const(1))))
	t1 := tx.MustNew("T1", tx.Tentative, tx.Update("b", expr.Add(expr.Var("b"), expr.Const(1))))
	a, err := Run(New(t0, t1), model.NewState())
	if err != nil {
		t.Fatal(err)
	}
	if ag := AffectedSet(a, map[int]bool{0: true}); len(ag) != 0 {
		t.Errorf("AG = %v, want empty", ag)
	}
}

func TestRunErrorPropagates(t *testing.T) {
	bad := tx.MustNew("T1", tx.Tentative, tx.Update("x", expr.Div(expr.Const(1), expr.Const(0))))
	if _, err := Run(New(bad), model.NewState()); err == nil {
		t.Error("Run swallowed an execution error")
	}
}
