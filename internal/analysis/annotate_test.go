package analysis

import (
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// TestAnnotationParsing checks every directive round-trips into the Ann
// table keyed by the type-checker object.
func TestAnnotationParsing(t *testing.T) {
	_, p, ann := loadFixture(t, "annot")
	scope := p.Types.Scope()
	obj := func(name string) interface {
		Name() string
	} {
		o := scope.Lookup(name)
		if o == nil {
			t.Fatalf("fixture object %q not found", name)
		}
		return o
	}
	lookup := func(name string) *Ann { return ann.Func(scope.Lookup(name)) }

	if got := lookup("Merge").Locks; got != "none" {
		t.Errorf("Merge: Locks = %q, want none", got)
	}
	if got := lookup("InstallLocked").Locks; got != "cluster" {
		t.Errorf("InstallLocked: Locks = %q, want cluster", got)
	}
	if !lookup("Acquire").Blocking {
		t.Errorf("Acquire: want Blocking")
	}
	if !lookup("ReadSet").Shared {
		t.Errorf("ReadSet: want Shared")
	}
	if !lookup("Fill").Sink {
		t.Errorf("Fill: want Sink")
	}
	if got := lookup("Plain"); *got != (Ann{}) {
		t.Errorf("Plain: got %+v, want zero annotations", got)
	}
	if j, ok := scope.Lookup("Journal").Type().Underlying().(*types.Struct); !ok {
		t.Errorf("Journal fixture type missing")
	} else {
		for i := 0; i < j.NumFields(); i++ {
			f := j.Field(i)
			switch f.Name() {
			case "FMu":
				if !ann.Field(f).IOMutex {
					t.Errorf("Journal.FMu: want IOMutex")
				}
			case "BMu":
				if !ann.Field(f).LeafMutex {
					t.Errorf("Journal.BMu: want LeafMutex")
				}
			}
		}
	}
	_ = obj
}

// TestAnnotationErrors checks malformed directives surface as errors
// instead of being silently ignored.
func TestAnnotationErrors(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	loader.FixtureRoot = root
	p, err := loader.Load("annotbad")
	if err != nil {
		t.Fatalf("load annotbad: %v", err)
	}
	_, errs := CollectAnnotations([]*Package{p})
	if len(errs) != 7 {
		t.Fatalf("got %d annotation errors, want 7: %v", len(errs), errs)
	}
	for _, want := range []string{
		`lock contract must be "none", "cluster" or "shard"`,
		"unknown directive",
		"missing closing parenthesis",
		"directives do not apply to type declarations",
		"apply to struct fields only",
		"apply to sync.Mutex/RWMutex fields",
		"only //tiermerge:iomutex and //tiermerge:leafmutex apply to struct fields",
	} {
		found := false
		for _, e := range errs {
			if strings.Contains(e.Error(), want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no error mentions %q in %v", want, errs)
		}
	}
	for _, e := range errs {
		if !strings.Contains(e.Error(), "annotbad.go:") {
			t.Errorf("error %v does not carry a file:line position", e)
		}
	}
}

// TestSuppression checks //tiermerge:ignore drops only the named
// analyzer's diagnostics (exercised end-to-end by the itemsetalias
// fixture's suppressed case; this pins the name-matching rule).
func TestSuppression(t *testing.T) {
	loader, p, ann := loadFixture(t, "itemsetalias")
	diags, err := Run([]*Analyzer{ItemSetAlias}, []*Package{p}, ann, loader.Packages())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "debug path") || d.Pos.Line == suppressedLine(t, p) {
			t.Errorf("suppressed diagnostic leaked: %v", d)
		}
	}
}

// suppressedLine finds the line of the set.Add(it) call guarded by the
// ignore comment in the itemsetalias fixture.
func suppressedLine(t *testing.T, p *Package) int {
	t.Helper()
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "//tiermerge:ignore itemsetalias") {
					return p.Fset.Position(c.Pos()).Line + 1
				}
			}
		}
	}
	t.Fatal("suppression comment not found in fixture")
	return 0
}
