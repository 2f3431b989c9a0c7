package analysis

import "testing"

func TestLockHeld(t *testing.T)     { runFixture(t, []*Analyzer{LockHeld}, "lockheld") }
func TestItemSetAlias(t *testing.T) { runFixture(t, []*Analyzer{ItemSetAlias}, "itemsetalias") }

// TestLockOrder and TestLockInfer run the one lock analyzer over its
// lock-order and inference fixtures.
func TestLockOrder(t *testing.T) { runFixture(t, []*Analyzer{LockHeld}, "lockorder") }
func TestLockInfer(t *testing.T) { runFixture(t, []*Analyzer{LockHeld}, "lockinfer") }

// TestCleanPackage runs the full suite over a package following every
// discipline at once; nothing may fire.
func TestCleanPackage(t *testing.T) { runFixture(t, All(), "clean") }

// TestSuiteComplete pins the analyzer roster: adding an analyzer without
// fixtures (or dropping one) should be a conscious act.
func TestSuiteComplete(t *testing.T) {
	names := make(map[string]bool)
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
	want := []string{"lockheld", "itemsetalias"}
	for _, w := range want {
		if !names[w] {
			t.Errorf("suite is missing %q", w)
		}
	}
	if len(names) != len(want) {
		t.Errorf("suite has %d analyzers, want %d: %v", len(names), len(want), names)
	}
}
