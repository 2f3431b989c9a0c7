package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// TestAllExperimentsPass regenerates the full E0..E16 suite and requires
// every paper expectation to hold — the same gate cmd/benchreport enforces.
func TestAllExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow")
	}
	for _, tbl := range All() {
		tbl := tbl
		t.Run(tbl.ID, func(t *testing.T) {
			if len(tbl.Rows) == 0 {
				t.Error("experiment produced no rows")
			}
			if len(tbl.Checks) == 0 {
				t.Error("experiment validated nothing")
			}
			for _, c := range tbl.Checks {
				if !c.OK {
					t.Errorf("check failed: %s %s", c.Name, c.Note)
				}
			}
		})
	}
}

// TestAblationsDeterministic: E10 draws its random fixes in item order, so
// two builds give identical rows (the detector-cache hit rate included).
func TestAblationsDeterministic(t *testing.T) {
	first := E10Ablations()
	for i := 0; i < 2; i++ {
		if again := E10Ablations(); !reflect.DeepEqual(again.Rows, first.Rows) {
			t.Fatalf("E10 rows differ between builds:\n%v\n%v", first.Rows, again.Rows)
		}
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:     "EX",
		Title:  "demo",
		Header: []string{"col", "value"},
		Rows:   [][]string{{"a", "1"}, {"bbbb", "22"}},
		Checks: []Check{{Name: "always", OK: true}, {Name: "never", OK: false, Note: "why"}},
	}
	out := tbl.Render()
	for _, want := range []string{"## EX — demo", "col", "bbbb", "[PASS] always", "[FAIL] never — why"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	if tbl.Passed() {
		t.Error("Passed = true with a failing check")
	}
}

func TestExperimentIDsUnique(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow")
	}
	seen := make(map[string]bool)
	for _, tbl := range All() {
		if seen[tbl.ID] {
			t.Errorf("duplicate experiment ID %s", tbl.ID)
		}
		seen[tbl.ID] = true
	}
}

func TestTableMarkdown(t *testing.T) {
	tbl := &Table{
		ID:     "EX",
		Title:  "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
		Checks: []Check{{Name: "ok", OK: true, Note: "n"}},
	}
	out := tbl.Markdown()
	for _, want := range []string{"## EX — demo", "| a | b |", "|---|---|", "| 1 | 2 |", "- **PASS** ok — n"} {
		if !strings.Contains(out, want) {
			t.Errorf("Markdown missing %q:\n%s", want, out)
		}
	}
}
