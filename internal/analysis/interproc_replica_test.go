package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repoRoot locates the module root (the directory holding go.mod).
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("no go.mod at %s: %v", root, err)
	}
	return root
}

// TestReplicaTwoPhaseAdmitClean is the acceptance gate for the real code:
// the cluster-set merge path (internal/replica/clusterset.go) and the rest
// of the replica package must pass the whole suite with zero findings —
// the ascending lockClusters discipline, the buffered events of the
// reconnect's one critical section, and the journal fsync that merges and
// base transactions alike run only after unlocking all check out by
// inference.
func TestReplicaTwoPhaseAdmitClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the full module from source")
	}
	loader, err := NewLoader(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	p, err := loader.Load("tiermerge/internal/replica")
	if err != nil {
		t.Fatal(err)
	}
	ann, annErrs := CollectAnnotations(loader.Packages())
	for _, e := range annErrs {
		t.Errorf("annotation error: %v", e)
	}
	diags, err := Run(All(), []*Package{p}, ann, loader.Packages())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("real replica package is not clean: %v", d)
	}
}

// TestInferenceCoversRemovedAnnotation pins the tentpole property: the
// locks(...)/blocking annotations are no longer the only source of truth.
// A shadow copy of internal/replica with the annotations of the routine that
// takes the member mutexes (clusterSet.round) stripped, plus a seeded caller
// that invokes it under a member's mutex, must still be reported — the
// summary engine infers both the blocking lock wait and the mutex
// re-acquisition with no annotation on the chain.
func TestInferenceCoversRemovedAnnotation(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the full module from source")
	}
	root := repoRoot(t)
	src := filepath.Join(root, "internal", "replica")
	shadow := t.TempDir()
	dst := filepath.Join(shadow, "tiermerge", "internal", "replica")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	stripped := false
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == "clusterset.go" {
			const annotated = "//tiermerge:locks(none)\n//tiermerge:blocking\nfunc (cs *clusterSet) round("
			const bare = "func (cs *clusterSet) round("
			if !strings.Contains(string(data), annotated) {
				t.Fatalf("clusterset.go no longer carries the expected annotations on round")
			}
			data = []byte(strings.Replace(string(data), annotated, bare, 1))
			stripped = true
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !stripped {
		t.Fatal("did not strip the round annotations")
	}
	probe := `package replica

import "tiermerge/internal/history"

// lintProbeBadCall runs a reconnect's critical section while holding a
// member's mutex — the violation the stripped annotations used to be the
// only defense against.
func lintProbeBadCall(cs *clusterSet, b *BaseCluster, hm *history.Augmented) {
	b.mu.Lock()
	cs.round("m", 1, nil, hm)
	b.mu.Unlock()
}
`
	if err := os.WriteFile(filepath.Join(dst, "lint_probe.go"), []byte(probe), 0o644); err != nil {
		t.Fatal(err)
	}

	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	loader.FixtureRoot = shadow // the doctored replica shadows the real one
	p, err := loader.Load("tiermerge/internal/replica")
	if err != nil {
		t.Fatal(err)
	}
	ann, annErrs := CollectAnnotations(loader.Packages())
	for _, e := range annErrs {
		t.Errorf("annotation error: %v", e)
	}
	diags, err := Run([]*Analyzer{LockHeld}, []*Package{p}, ann, loader.Packages())
	if err != nil {
		t.Fatal(err)
	}
	var blocked, deadlocked bool
	for _, d := range diags {
		if !strings.HasSuffix(d.Pos.Filename, "lint_probe.go") {
			t.Errorf("unexpected diagnostic outside the probe: %v", d)
			continue
		}
		if strings.Contains(d.Message, "may block") {
			blocked = true
		}
		if strings.Contains(d.Message, "self-deadlock") {
			deadlocked = true
		}
	}
	if !blocked {
		t.Error("inference did not report the blocking round under the cluster mutex")
	}
	if !deadlocked {
		t.Error("inference did not report the mutex re-acquisition self-deadlock")
	}
}
