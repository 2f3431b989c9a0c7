package graph

import (
	"fmt"
	"testing"

	"tiermerge/internal/model"
	"tiermerge/internal/tx"
)

// pairedAccesses builds 8 tentative and 8 base accesses in 4 groups; the
// members of a group read and write the same copies items, so every
// conflicting vertex pair meets on copies items.
func pairedAccesses(copies int) (mobile, base []Access) {
	group := func(id string, kind tx.Kind, g int) Access {
		items := model.ItemSet{}
		for k := 0; k < copies; k++ {
			items.Add(model.Item(fmt.Sprintf("g%d.%d", g, k)))
		}
		return Declare(id, kind, items, items, nil)
	}
	for i := 0; i < 8; i++ {
		mobile = append(mobile, group(fmt.Sprintf("Tm%d", i), tx.Tentative, i%4))
		base = append(base, group(fmt.Sprintf("Tb%d", i), tx.Base, i%4))
	}
	return mobile, base
}

// TestBuildAllocsIndependentOfRepeats: vertex pairs that meet on twice as
// many items give the same graph, and building it must not allocate more.
// Deduplicating edges by stamp instead of by a set of vertex pairs keeps
// the count flat.
func TestBuildAllocsIndependentOfRepeats(t *testing.T) {
	m1, b1 := pairedAccesses(3)
	m2, b2 := pairedAccesses(6)
	if e1, e2 := Build(m1, b1).Edges(), Build(m2, b2).Edges(); fmt.Sprint(e1) != fmt.Sprint(e2) {
		t.Fatalf("graphs differ: %v vs %v", e1, e2)
	}
	a1 := testing.AllocsPerRun(50, func() { Build(m1, b1) })
	a2 := testing.AllocsPerRun(50, func() { Build(m2, b2) })
	t.Logf("allocs: %v on the 1x input, %v on the 2x input", a1, a2)
	if a2 > a1 {
		t.Errorf("Build allocates %v times when pairs repeat across 2x the items, %v at 1x", a2, a1)
	}
}
