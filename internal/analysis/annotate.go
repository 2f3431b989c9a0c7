package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// Ann is the set of //tiermerge: directives attached to one function or
// struct field declaration. The directives are machine-checked
// documentation: they state the contract prose comments like "Caller holds
// b.mu" already claim, in a form the lockheld and itemsetalias analyzers
// enforce. See docs/LINT.md for the annotation reference.
type Ann struct {
	// Locks is the lock contract: "none" means the function acquires the
	// cluster mutex itself and must not run while any mutex is held;
	// "cluster" means the function requires the cluster mutex held;
	// "shard" means the function requires the mutexes of every shard its
	// arguments involve held (acquired in ascending shard order through
	// lockClusters — the sharded tier's deadlock-free discipline).
	Locks string
	// Blocking marks a function that may block (lock waits, channel I/O);
	// lockheld forbids calling it under a held mutex.
	Blocking bool
	// Shared marks a function whose returned item sets / states alias
	// shared structures; itemsetalias requires a Clone before mutation.
	Shared bool
	// Sink marks a function whose container parameters are out-params the
	// function intentionally fills; itemsetalias does not treat them as
	// shared aliases. Callers must pass containers they own.
	Sink bool
	// BufferedEvents marks a function whose observer emissions land in an
	// in-memory buffer (eventBuffer) that the caller flushes after
	// unlocking, not in user observers directly. lockheld's
	// emission-under-mutex checks treat such a function as non-emitting.
	BufferedEvents bool
	// NonBlocking asserts a function never parks the goroutine even
	// though its body contains channel operations — e.g. a wake helper
	// sending on buffered channels with guaranteed free capacity. The
	// summary engine trusts it and infers no MayBlock fact; the deadlock
	// and race suites back the assertion at runtime.
	NonBlocking bool
	// IOMutex (struct fields only) marks a sync.Mutex/RWMutex whose charter
	// is serializing blocking file or socket I/O — the durable store's fmu.
	// Known-blocking and //tiermerge:blocking calls made while only
	// io-mutexes are held are the mutex's purpose and are not flagged;
	// channel operations, locks(none) calls and nesting rules still apply.
	IOMutex bool
	// LeafMutex (struct fields only) marks a sync.Mutex/RWMutex that guards
	// memory only and is never held across another acquisition or a
	// blocking call — the durable store's buffer mutex. Acquiring a leaf
	// mutex while another mutex is held is exempt from the nested-mutex
	// rule (a leaf never waits on anything, so it cannot close a cycle);
	// everything done UNDER a held leaf mutex stays fully checked.
	LeafMutex bool
}

// Annotations is the module-wide directive table, keyed by type-checker
// object identity (valid because every module package is loaded from
// source through one loader, so importers and definers share objects).
type Annotations struct {
	funcs  map[types.Object]*Ann
	fields map[types.Object]*Ann
}

// Func returns the annotations of a function object (never nil).
func (a *Annotations) Func(obj types.Object) *Ann {
	if a == nil || obj == nil {
		return &Ann{}
	}
	if an, ok := a.funcs[obj]; ok {
		return an
	}
	return &Ann{}
}

// Field returns the annotations of a struct-field object (never nil).
func (a *Annotations) Field(obj types.Object) *Ann {
	if a == nil || obj == nil {
		return &Ann{}
	}
	if an, ok := a.fields[obj]; ok {
		return an
	}
	return &Ann{}
}

// CollectAnnotations parses the //tiermerge: directives of every package.
// Malformed directives are returned as errors (file:line prefixed) so the
// lint gate fails loudly instead of silently not enforcing a contract.
func CollectAnnotations(pkgs []*Package) (*Annotations, []error) {
	a := &Annotations{
		funcs:  make(map[types.Object]*Ann),
		fields: make(map[types.Object]*Ann),
	}
	var errs []error
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					an, derr := parseDirectives(pkg, d.Doc, annFunc)
					errs = append(errs, derr...)
					if an != nil {
						if obj := pkg.Info.Defs[d.Name]; obj != nil {
							a.funcs[obj] = an
						}
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						doc := ts.Doc
						if doc == nil && len(d.Specs) == 1 {
							doc = d.Doc
						}
						_, derr := parseDirectives(pkg, doc, annType)
						errs = append(errs, derr...)
						if st, ok := ts.Type.(*ast.StructType); ok {
							errs = append(errs, a.collectFields(pkg, st)...)
						}
					}
				}
			}
		}
	}
	return a, errs
}

// collectFields parses the //tiermerge: directives of one struct type's
// field declarations (iomutex / leafmutex mutex contracts).
func (a *Annotations) collectFields(pkg *Package, st *ast.StructType) []error {
	var errs []error
	for _, fld := range st.Fields.List {
		doc := fld.Doc
		if doc == nil {
			doc = fld.Comment
		}
		an, derr := parseDirectives(pkg, doc, annField)
		errs = append(errs, derr...)
		if an == nil {
			continue
		}
		for _, name := range fld.Names {
			obj := pkg.Info.Defs[name]
			if obj == nil {
				continue
			}
			if (an.IOMutex || an.LeafMutex) &&
				!typeIs(obj.Type(), "sync", "Mutex") && !typeIs(obj.Type(), "sync", "RWMutex") {
				errs = append(errs, fmt.Errorf("%s: //tiermerge:iomutex/leafmutex apply to sync.Mutex/RWMutex fields; %s is %s",
					pkg.Fset.Position(name.Pos()), name.Name, obj.Type()))
				continue
			}
			a.fields[obj] = an
		}
	}
	return errs
}

// annCtx is the declaration kind a directive comment is attached to:
// the mutex contracts apply to struct fields, every other directive to
// functions, and none to types.
type annCtx int

const (
	annFunc annCtx = iota
	annType
	annField
)

// parseDirectives extracts //tiermerge: lines from a doc comment. It
// returns nil when the comment carries no directives.
func parseDirectives(pkg *Package, doc *ast.CommentGroup, ctx annCtx) (*Ann, []error) {
	if doc == nil {
		return nil, nil
	}
	var (
		an   *Ann
		errs []error
	)
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//tiermerge:")
		if !ok {
			continue
		}
		directive := strings.TrimSpace(rest)
		if strings.HasPrefix(directive, "ignore") {
			continue // suppression comments are handled by the runner
		}
		if an == nil {
			an = &Ann{}
		}
		bad := func(msg string) {
			errs = append(errs, fmt.Errorf("%s: bad //tiermerge: directive %q: %s",
				pkg.Fset.Position(c.Pos()), directive, msg))
		}
		if ctx == annType {
			bad("directives do not apply to type declarations")
			continue
		}
		switch {
		case directive == "blocking":
			an.Blocking = true
		case directive == "shared":
			an.Shared = true
		case directive == "sink":
			an.Sink = true
		case directive == "buffered-events":
			an.BufferedEvents = true
		case directive == "nonblocking":
			an.NonBlocking = true
		case directive == "iomutex":
			an.IOMutex = true
		case directive == "leafmutex":
			an.LeafMutex = true
		case strings.HasPrefix(directive, "locks("):
			arg, ok := strings.CutSuffix(strings.TrimPrefix(directive, "locks("), ")")
			if !ok {
				bad("missing closing parenthesis")
				continue
			}
			switch arg {
			case "none", "cluster", "shard":
				an.Locks = arg
			default:
				bad(`lock contract must be "none", "cluster" or "shard"`)
			}
		default:
			bad("unknown directive")
		}
		switch ctx {
		case annField:
			switch {
			case an.Locks != "", an.Blocking, an.Shared, an.Sink,
				an.BufferedEvents, an.NonBlocking:
				bad("only //tiermerge:iomutex and //tiermerge:leafmutex apply to struct fields")
			}
		case annFunc:
			if an.IOMutex || an.LeafMutex {
				bad("//tiermerge:iomutex and //tiermerge:leafmutex apply to struct fields only")
			}
		}
	}
	return an, errs
}
