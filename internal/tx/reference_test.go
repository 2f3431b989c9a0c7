package tx

import (
	"fmt"
	"maps"
	"slices"
	"unsafe"

	"tiermerge/internal/expr"
	"tiermerge/internal/model"
)

// The map-based path validation and compile the slice-based ones replaced:
// the written-so-far set cloned for each branch of a conditional, and the
// static sets as model.ItemSets every statement adds its items to. They
// are kept as the reference Validate and the compiled sets must match
// exactly (TestCompileMatchesReference, and FuzzUnmarshalTransaction for
// every profile the decoder accepts).

// referenceOnceWritten walks the body tracking which items are already
// written along the current path. Branches fork the tracking set; after a
// conditional the union of both branches' writes is considered written.
func referenceOnceWritten(body []Stmt, written model.ItemSet) error {
	for _, s := range body {
		switch st := s.(type) {
		case *ReadStmt:
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
			if err := referenceOnceWritten(st.Then, thenW); err != nil {
				return err
			}
			elseW := written.Clone()
			if err := referenceOnceWritten(st.Else, elseW); err != nil {
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

// referenceSets adds the conservative (all-branches) read and write sets of
// body to rs and ws.
func referenceSets(body []Stmt, rs, ws model.ItemSet) {
	for _, s := range body {
		switch st := s.(type) {
		case *ReadStmt:
			rs.Add(st.Item)
		case *UpdateStmt:
			rs.Add(st.Item)
			maps.Copy(rs, expr.ItemsOf(st.Expr))
			ws.Add(st.Item)
		case *AssignStmt:
			maps.Copy(rs, expr.ItemsOf(st.Expr))
			ws.Add(st.Item)
		case *IfStmt:
			maps.Copy(rs, expr.PredItemsOf(st.Cond))
			referenceSets(st.Then, rs, ws)
			referenceSets(st.Else, rs, ws)
		}
	}
}

// compileDiff reports the first difference from the reference, or "":
// Validate over t's body gives the same accept or reject with the same
// error, and t and a fresh transaction over its body — compiled by
// Validate or, for a rejected body, on first use — hold the reference's
// static read set, write set and footprint, each sorted and distinct, the
// footprint sharing the read set's array when no item is only blindly
// written.
func compileDiff(t *Transaction) string {
	c := &Transaction{ID: t.ID, Kind: t.Kind, Body: t.Body}
	err := c.Validate()
	if refErr := referenceOnceWritten(t.Body, make(model.ItemSet)); fmt.Sprint(err) != fmt.Sprint(refErr) {
		return fmt.Sprintf("Validate = %v, reference %v", err, refErr)
	}
	rs, ws := make(model.ItemSet), make(model.ItemSet)
	referenceSets(t.Body, rs, ws)
	fp := rs.Union(ws)
	for _, c := range []*Transaction{t, c} {
		c.ensureCompiled()
		switch {
		case !slices.Equal(c.staticRS, rs.Items()):
			return fmt.Sprintf("read set %v, reference %v", c.staticRS, rs)
		case !slices.Equal(c.staticWS, ws.Items()):
			return fmt.Sprintf("write set %v, reference %v", c.staticWS, ws)
		case !slices.Equal(c.Footprint(), fp.Items()):
			return fmt.Sprintf("footprint %v, reference %v", c.Footprint(), fp)
		case len(fp) == len(rs) && unsafe.SliceData(c.footprint) != unsafe.SliceData(c.staticRS):
			return "the footprint does not share the read set's array"
		case c.IsReadOnly() != (len(ws) == 0):
			return fmt.Sprintf("IsReadOnly = %v with write set %v", c.IsReadOnly(), ws)
		}
		for it := range fp {
			if c.MayWrite(it) != ws.Has(it) {
				return fmt.Sprintf("MayWrite(%s) = %v, reference %v", it, c.MayWrite(it), ws.Has(it))
			}
		}
	}
	return ""
}

// CompileDiff is compileDiff for the package's external tests.
var CompileDiff = compileDiff
