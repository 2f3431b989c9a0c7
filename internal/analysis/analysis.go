// Package analysis is tiermergelint's static-analysis toolkit: a small,
// dependency-free reimplementation of the golang.org/x/tools go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) plus a source-level package
// loader, an annotation parser for the //tiermerge: directives, an
// interprocedural summary engine (call graph + fixpoint lock-set
// summaries, see summary.go), and the analyzers that enforce the merge
// protocol's invariants that neither the compiler nor a test catches
// (lock holding and ordering, item-set aliasing).
//
// The framework is intentionally API-compatible in spirit with go/analysis
// so the analyzers could be ported to a vettool later; it is built on the
// standard library only because the build environment vendors no external
// modules.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in reports and suppressions.
	Name string
	// Doc is the one-paragraph description shown by tiermergelint -list.
	Doc string
	// Run inspects one package and reports diagnostics through the pass.
	Run func(*Pass) error
}

// Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one analyzer run over one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	// Ann is the module-wide annotation table (collected over every
	// source-loaded package, so cross-package annotations resolve).
	Ann *Annotations
	// Engine is the interprocedural summary engine, built once per Run
	// over every source-loaded package (not just the packages being
	// linted), so summaries see through cross-package calls.
	Engine *Engine
	diags  *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypesInfo returns the package's type information.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.Info }

// Run applies every analyzer to every package, drops suppressed
// diagnostics (//tiermerge:ignore), and returns the remainder sorted by
// (file, line, column, analyzer, message) with exact duplicates removed.
// all is the full source-loaded package set the interprocedural engine
// analyzes (so summaries see through calls into packages that are not
// themselves being linted); nil means pkgs is the whole world.
func Run(analyzers []*Analyzer, pkgs []*Package, ann *Annotations, all []*Package) ([]Diagnostic, error) {
	if all == nil {
		all = pkgs
	}
	eng := BuildEngine(all, ann)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, Ann: ann, Engine: eng, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	diags = filterSuppressed(diags, pkgs)
	// Total order: position, then analyzer, then message — so two
	// analyzers (or one analyzer reached through two packages) reporting
	// the same position always print in the same order regardless of map
	// or package iteration order.
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	// Dedupe exact duplicates: the engine anchors module-wide findings
	// (lock-order cycles) at every involved site, and a site can be
	// reached from several linted packages.
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out, nil
}

// filterSuppressed removes diagnostics whose line (or the line above)
// carries a matching //tiermerge:ignore comment.
func filterSuppressed(diags []Diagnostic, pkgs []*Package) []Diagnostic {
	// ignores maps filename -> line -> analyzer names (or "all").
	ignores := make(map[string]map[int][]string)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//tiermerge:ignore")
					if !ok {
						continue
					}
					fields := strings.Fields(rest)
					name := "all"
					if len(fields) > 0 {
						name = fields[0]
					}
					pos := pkg.Fset.Position(c.Pos())
					if ignores[pos.Filename] == nil {
						ignores[pos.Filename] = make(map[int][]string)
					}
					ignores[pos.Filename][pos.Line] = append(ignores[pos.Filename][pos.Line], name)
				}
			}
		}
	}
	keep := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
			for _, name := range ignores[d.Pos.Filename][line] {
				if name == "all" || name == d.Analyzer {
					suppressed = true
				}
			}
		}
		if !suppressed {
			keep = append(keep, d)
		}
	}
	return keep
}

// All returns the full tiermergelint analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{LockHeld, ItemSetAlias}
}

// ---- shared type helpers ----

// modelPath is the package whose container types itemsetalias keys on. A
// fixture package under testdata/src shadows it with a stub.
const modelPath = "tiermerge/internal/model"

// deref removes one level of pointer indirection.
func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedOf returns the named type of t after unaliasing and dereferencing,
// or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = deref(types.Unalias(t))
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// typeIs reports whether t (possibly behind a pointer) is the named type
// path.name.
func typeIs(t types.Type, path, name string) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == path && n.Obj().Name() == name
}

// calleeOf resolves the called function object of a call expression, or
// nil for builtins, conversions and indirect calls.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fn]
	case *ast.SelectorExpr:
		obj = info.Uses[fn.Sel]
	}
	f, _ := obj.(*types.Func)
	return f
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// exprString renders a simple ident/selector chain ("b.mu"); it returns
// "" for expressions that are not such chains.
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprString(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.IndexExpr:
		base := exprString(e.X)
		idx := exprString(e.Index)
		if base == "" || idx == "" {
			return ""
		}
		return base + "[" + idx + "]"
	case *ast.BasicLit:
		return e.Value
	}
	return ""
}
