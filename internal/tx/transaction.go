package tx

import (
	"fmt"
	"maps"
	"slices"
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

	// compiled: the static read and write sets (all branches) and their
	// union, each sorted and distinct and never written after compile.
	// Without blind writes the write set lies within the read set, and the
	// footprint is the read set itself.
	staticRS, staticWS, footprint []model.Item
	compiled                      bool
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
	var path, held [8]model.Item
	if _, _, err := onceWritten(t.Body, path[:0], held[:0]); err != nil {
		return err
	}
	t.compile()
	return nil
}

// onceWritten walks a body tracking which items are already written along
// the current path, and returns path and held extended. path holds them,
// one slot per write statement met; held parks a conditional's then-branch
// writes while its else branch is walked from the same prefix. After a
// conditional the union of both branches' writes is considered written
// (conservative: an item written in the then-branch and again after the
// conditional is rejected even though the else path would be fine).
func onceWritten(body []Stmt, path, held []model.Item) ([]model.Item, []model.Item, error) {
	var err error
	for _, s := range body {
		switch st := s.(type) {
		case *ReadStmt:
			// reads are always fine
		case *UpdateStmt:
			path, err = writeOnce(path, st.Item)
		case *AssignStmt:
			path, err = writeOnce(path, st.Item)
		case *IfStmt:
			prefix, parked := len(path), len(held)
			if path, held, err = onceWritten(st.Then, path, held); err != nil {
				break
			}
			held = append(held, path[prefix:]...)
			if path, held, err = onceWritten(st.Else, path[:prefix], held); err != nil {
				break
			}
			path, held = append(path, held[parked:]...), held[:parked]
		default:
			err = fmt.Errorf("tx: unknown statement type %T", s)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return path, held, nil
}

// writeOnce appends it to the path's writes, refusing a second write.
func writeOnce(path []model.Item, it model.Item) ([]model.Item, error) {
	if slices.Contains(path, it) {
		return nil, fmt.Errorf("tx: item %s updated more than once", it)
	}
	return append(path, it), nil
}

// StaticReadSet returns the conservative read set of the profile: every item
// read on any execution path, including the implicit pre-read of every
// update target. This is the read-set information a canned system extracts
// offline from transaction profiles ([AJL98], Section 7.1). The set is the
// caller's; the program reads the compiled sets without building one.
func (t *Transaction) StaticReadSet() model.ItemSet {
	t.ensureCompiled()
	return model.NewItemSet(t.staticRS...)
}

// StaticWriteSet returns the conservative write set of the profile: every
// item updated on any execution path, as a set the caller owns.
func (t *Transaction) StaticWriteSet() model.ItemSet {
	t.ensureCompiled()
	return model.NewItemSet(t.staticWS...)
}

// MayWrite reports whether it is in the static write set: whether some
// execution path updates it.
func (t *Transaction) MayWrite(it model.Item) bool {
	t.ensureCompiled()
	_, ok := slices.BinarySearch(t.staticWS, it)
	return ok
}

// Footprint returns every item the profile can read or write on any path,
// sorted and distinct: the compiled slice itself, which every caller (and
// every copy made by As) shares and none may ever mutate.
func (t *Transaction) Footprint() []model.Item {
	t.ensureCompiled()
	return t.footprint
}

// compile records the static sets and each update's pure-delta flag.
// Validate runs it; a literal transaction is compiled on first use. Both
// sets are collected into one array sized for a statement naming two items
// and writing one, then sorted and deduplicated in place.
func (t *Transaction) compile() {
	n := countStmts(t.Body)
	buf := make([]model.Item, 0, 3*n)
	rs, ws := buf[:0:2*n], buf[2*n:2*n:3*n]
	for _, s := range t.Body {
		rs, ws = s.compile(rs, ws)
	}
	rs, ws = sortedDistinct(rs), sortedDistinct(ws)
	fp := rs
	for _, it := range ws {
		if _, ok := slices.BinarySearch(rs, it); !ok {
			fp = sortedDistinct(slices.Concat(rs, ws))
			break
		}
	}
	t.staticRS, t.staticWS, t.footprint, t.compiled = rs, ws, fp, true
}

// sortedDistinct sorts items in place and drops repeats, capping the result
// so that no append through it reaches the array beyond.
func sortedDistinct(items []model.Item) []model.Item {
	slices.Sort(items)
	items = slices.Compact(items)
	return items[:len(items):len(items)]
}

func (t *Transaction) ensureCompiled() {
	if !t.compiled {
		t.compile()
	}
}

// As returns t under another identity and kind — a tentative transaction
// re-executed as a base one, say. The copy shares t's parameters, bodies
// and compiled sets: a Transaction is immutable once built, so nothing is
// compiled again.
func (t *Transaction) As(id string, kind Kind) *Transaction {
	t.ensureCompiled()
	c := *t
	c.ID, c.Kind = id, kind
	return &c
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
