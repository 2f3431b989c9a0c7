package tx

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"tiermerge/internal/model"
)

// Kind distinguishes tentative transactions (run on mobile nodes against
// tentative data) from base transactions (run on base nodes against master
// data). Only tentative transactions may ever be backed out (Section 2.1
// step 2: base transactions are durable).
type Kind int

// Transaction kinds.
const (
	Tentative Kind = iota + 1
	Base
)

func (k Kind) String() string {
	switch k {
	case Tentative:
		return "tentative"
	case Base:
		return "base"
	default:
		return "unknown"
	}
}

// Transaction is an executable transaction profile. Instances are immutable
// once built; every subsystem shares pointers to them.
type Transaction struct {
	// ID uniquely names the transaction instance (e.g. "Tm3").
	ID string
	// Type names the canned transaction type the instance was minted from
	// (e.g. "deposit"); empty for ad-hoc transactions. Canned systems
	// pre-detect can-precede relations per type pair (Section 5.1).
	Type string
	// Kind says whether this is a tentative or a base transaction.
	Kind Kind
	// Params are the input arguments bound at submission time.
	Params map[string]model.Value
	// Body is the profile code.
	Body []Stmt
	// InverseBody optionally carries an explicitly specified compensating
	// transaction body (Section 6.1 assumes compensators exist in canned
	// systems). When empty, Invert synthesizes one where possible.
	InverseBody []Stmt

	// compiled: the static read and write sets (all branches), their union
	staticRS, staticWS, footprint model.ItemSet
}

// New builds a transaction and validates it against the paper's program
// assumptions (Section 6): each statement updates at most one item (by
// construction of UpdateStmt) and each item is updated at most once along
// any execution path prefix.
func New(id string, kind Kind, body ...Stmt) (*Transaction, error) {
	t := &Transaction{ID: id, Kind: kind, Body: body}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// MustNew is New for statically known-good profiles; it panics on a
// validation error and is intended for package-level canned-type tables and
// tests.
func MustNew(id string, kind Kind, body ...Stmt) *Transaction {
	t, err := New(id, kind, body...)
	if err != nil {
		panic(err)
	}
	return t
}

// WithType returns t with its canned type name set (builder-style; t is
// modified and returned for chaining during construction).
func (t *Transaction) WithType(typ string) *Transaction {
	t.Type = typ
	return t
}

// WithParams returns t with its input parameters set.
func (t *Transaction) WithParams(params map[string]model.Value) *Transaction {
	t.Params = params
	return t
}

// WithInverse returns t with an explicit compensating body attached.
func (t *Transaction) WithInverse(body ...Stmt) *Transaction {
	t.InverseBody = body
	return t
}

// Validate checks the Section 6 program assumptions. It returns an error if
// any item can be updated more than once along a single execution path,
// and compiles a valid transaction.
func (t *Transaction) Validate() error {
	written := make(model.ItemSet)
	if err := validateOnceWritten(t.Body, written); err != nil {
		return err
	}
	t.compile(written) // every item written on some path: the static write set
	return nil
}

// validateOnceWritten walks the body tracking which items are already
// written along the current path. Branches fork the tracking set; after a
// conditional the union of both branches' writes is considered written
// (conservative: an item written in the then-branch and again after the
// conditional is rejected even though the else path would be fine).
//
//tiermerge:sink
func validateOnceWritten(body []Stmt, written model.ItemSet) error {
	for _, s := range body {
		switch st := s.(type) {
		case *ReadStmt:
			// reads are always fine
		case *UpdateStmt:
			if written.Has(st.Item) {
				return fmt.Errorf("tx: item %s updated more than once", st.Item)
			}
			written.Add(st.Item)
		case *AssignStmt:
			if written.Has(st.Item) {
				return fmt.Errorf("tx: item %s updated more than once", st.Item)
			}
			written.Add(st.Item)
		case *IfStmt:
			thenW := written.Clone()
			if err := validateOnceWritten(st.Then, thenW); err != nil {
				return err
			}
			elseW := written.Clone()
			if err := validateOnceWritten(st.Else, elseW); err != nil {
				return err
			}
			maps.Copy(written, thenW)
			maps.Copy(written, elseW)
		default:
			return fmt.Errorf("tx: unknown statement type %T", s)
		}
	}
	return nil
}

// StaticReadSet returns the conservative read set of the profile: every item
// read on any execution path, including the implicit pre-read of every
// update target. This is the read-set information a canned system extracts
// offline from transaction profiles ([AJL98], Section 7.1).
func (t *Transaction) StaticReadSet() model.ItemSet {
	t.ensureCompiled()
	return t.staticRS.Clone()
}

// StaticWriteSet returns the conservative write set of the profile: every
// item updated on any execution path.
func (t *Transaction) StaticWriteSet() model.ItemSet {
	t.ensureCompiled()
	return t.staticWS.Clone()
}

// Footprint returns every item the profile can read or write on any path,
// the compiled set itself: callers share it and must never mutate it.
//
//tiermerge:shared
func (t *Transaction) Footprint() model.ItemSet {
	t.ensureCompiled()
	return t.footprint
}

// compile records the static sets and each update's pure-delta flag into
// ws, the static write set so far. Validate runs it; a literal transaction
// is compiled on first use. Without blind writes the write set is within
// the read set, which is then the footprint as well.
func (t *Transaction) compile(ws model.ItemSet) {
	rs := make(model.ItemSet)
	for _, s := range t.Body {
		s.compile(rs, ws)
	}
	fp := rs
	for it := range ws {
		if !rs.Has(it) {
			fp = rs.Union(ws)
			break
		}
	}
	t.staticRS, t.staticWS, t.footprint = rs, ws, fp
}

func (t *Transaction) ensureCompiled() {
	if t.footprint == nil {
		t.compile(make(model.ItemSet))
	}
}

// IsReadOnly reports whether the profile writes nothing on any path.
// Read-only transactions can follow any transaction (can-follow property 3).
func (t *Transaction) IsReadOnly() bool {
	t.ensureCompiled()
	return len(t.staticWS) == 0
}

// String renders the transaction as "ID[kind]: stmt; stmt; ...".
func (t *Transaction) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[%s]", t.ID, t.Kind)
	if t.Type != "" {
		fmt.Fprintf(&b, "<%s>", t.Type)
	}
	b.WriteString(": ")
	b.WriteString(stmtsString(t.Body))
	return b.String()
}

// Fix is the paper's Definition 1: a set of variables read by a transaction
// given the values they had at the transaction's original position in the
// history. Executing T with fix F makes reads of items in F come from F
// rather than from the before state.
type Fix map[model.Item]model.Value

// EmptyFix is the fix of every transaction in an ordinary serializable
// history (Section 3).
func EmptyFix() Fix { return nil }

// IsEmpty reports whether the fix pins no items.
func (f Fix) IsEmpty() bool { return len(f) == 0 }

// Clone copies the fix. Cloning nil yields nil.
func (f Fix) Clone() Fix { return maps.Clone(f) }

// Items returns the set of items the fix pins.
func (f Fix) Items() model.ItemSet {
	s := make(model.ItemSet, len(f))
	for k := range f {
		s.Add(k)
	}
	return s
}

// Merge returns a fix containing the entries of both fixes. On overlap f's
// value wins; overlapping entries always agree in practice because both
// record what the transaction read at its original position.
func (f Fix) Merge(o Fix) Fix {
	if len(o) == 0 {
		return f.Clone()
	}
	m := make(Fix, len(f)+len(o))
	maps.Copy(m, o)
	maps.Copy(m, f)
	return m
}

// String renders the fix deterministically, e.g. {x=1, y=7}; the empty fix
// renders as ∅.
func (f Fix) String() string {
	if len(f) == 0 {
		return "∅"
	}
	items := make([]model.Item, 0, len(f))
	for k := range f {
		items = append(items, k)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = fmt.Sprintf("%s=%d", it, f[it])
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
