package tx

import (
	"bytes"
	"slices"
	"testing"

	"tiermerge/internal/expr"
	"tiermerge/internal/model"
)

// roundTrip encodes then decodes a transaction, failing the test on any
// error.
func roundTrip(t *testing.T, orig *Transaction) *Transaction {
	t.Helper()
	data, err := MarshalTransaction(orig)
	if err != nil {
		t.Fatalf("marshal %s: %v", orig.ID, err)
	}
	got, err := UnmarshalTransaction(data)
	if err != nil {
		t.Fatalf("unmarshal %s: %v (wire: %x)", orig.ID, err, data)
	}
	return got
}

func TestCodecRoundTripSimple(t *testing.T) {
	orig := MustNew("T1", Tentative,
		Read("a"),
		Update("x", expr.Add(expr.Var("x"), expr.Param("amt"))),
		Assign("w", expr.Const(7)),
	).WithType("mixed").WithParams(map[string]model.Value{"amt": 42})
	got := roundTrip(t, orig)
	if got.ID != "T1" || got.Type != "mixed" || got.Kind != Tentative {
		t.Errorf("metadata lost: %+v", got)
	}
	if got.Params["amt"] != 42 {
		t.Errorf("params lost: %v", got.Params)
	}
	if len(got.Body) != 3 {
		t.Fatalf("body length %d", len(got.Body))
	}
	// Behavioural equality: same execution on the same states.
	s := model.StateOf(map[model.Item]model.Value{"a": 1, "x": 10})
	s1, e1, err := orig.Exec(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, e2, err := got.Exec(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Equal(s2) {
		t.Errorf("decoded transaction diverges: %s vs %s", s1, s2)
	}
	if !slices.Equal(e1.Items, e2.Items) {
		t.Errorf("effects diverge: %+v vs %+v", e1.Items, e2.Items)
	}
}

func TestCodecRoundTripConditional(t *testing.T) {
	orig := MustNew("T2", Base,
		IfElse(
			expr.And(
				expr.GT(expr.Var("u"), expr.Const(10)),
				expr.Not(expr.EQ(expr.Var("v"), expr.Param("p"))),
			),
			[]Stmt{Update("x", expr.Mul(expr.Var("x"), expr.Const(2)))},
			[]Stmt{
				Update("y", expr.Div(expr.Var("y"), expr.Const(3))),
				Read("z"),
			},
		),
	).WithParams(map[string]model.Value{"p": 5})
	got := roundTrip(t, orig)
	for _, u := range []model.Value{0, 11, 20} {
		s := model.StateOf(map[model.Item]model.Value{"u": u, "v": 5, "x": 8, "y": 9})
		s1, _, err1 := orig.Exec(s, nil)
		s2, _, err2 := got.Exec(s, nil)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("u=%d: error divergence: %v vs %v", u, err1, err2)
		}
		if err1 == nil && !s1.Equal(s2) {
			t.Errorf("u=%d: %s vs %s", u, s1, s2)
		}
	}
}

func TestCodecRoundTripInverseBody(t *testing.T) {
	orig := MustNew("T3", Tentative, Update("x", expr.Param("p"))).
		WithInverse(Update("x", expr.Param("old"))).
		WithParams(map[string]model.Value{"p": 9, "old": 3})
	got := roundTrip(t, orig)
	if len(got.InverseBody) != 1 {
		t.Fatalf("inverse body lost: %v", got.InverseBody)
	}
	inv, err := Invert(got)
	if err != nil {
		t.Fatal(err)
	}
	s := model.StateOf(map[model.Item]model.Value{"x": 3})
	s1, _, _ := got.Exec(s, nil)
	s2, _, err := inv.Exec(s1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Equal(s) {
		t.Errorf("decoded compensator broken: %s", s2)
	}
}

func TestCodecRoundTripAllOperators(t *testing.T) {
	e := expr.Bin(expr.OpMin,
		expr.Bin(expr.OpMax, expr.Var("a"), expr.Const(0)),
		expr.Bin(expr.OpMod, expr.Var("b"), expr.Const(7)),
	)
	orig := MustNew("T4", Tentative, Update("a", expr.Add(e, expr.Var("a"))))
	got := roundTrip(t, orig)
	s := model.StateOf(map[model.Item]model.Value{"a": 5, "b": 23})
	s1, _, err := orig.Exec(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := got.Exec(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Equal(s2) {
		t.Errorf("operator round-trip diverges: %s vs %s", s1, s2)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	valid, err := MarshalTransaction(MustNew("T", Base,
		If(expr.GT(expr.Var("a"), expr.Const(0)), Update("x", expr.Add(expr.Var("x"), expr.Const(1))))))
	if err != nil {
		t.Fatal(err)
	}
	// valid is: id "T", type "", kind, no params, one body statement (the
	// if, tag 4 at offset 6), no inverse.
	const kindAt, stmtAt = 3, 6
	if valid[kindAt] != byte(Base) || valid[stmtAt] != tagIf {
		t.Fatalf("unexpected layout %x", valid)
	}
	patch := func(at int, b byte) []byte {
		out := append([]byte(nil), valid...)
		out[at] = b
		return out
	}
	for name, bad := range map[string][]byte{
		"empty":                 {},
		"truncated":             valid[:len(valid)-1],
		"trailing bytes":        append(append([]byte(nil), valid...), 0),
		"unknown kind":          patch(kindAt, 9),
		"unknown statement tag": patch(stmtAt, 9),
		"unknown predicate tag": patch(stmtAt+1, 9),
		"count past end":        patch(stmtAt-1, 200),
	} {
		if _, err := UnmarshalTransaction(bad); err == nil {
			t.Errorf("%s: accepted garbage %x", name, bad)
		}
	}
}

func TestCodecRejectsInvalidDecodedProfile(t *testing.T) {
	// Well-formed encoding, invalid profile: same item updated twice on one
	// path. The encoder does not validate; the decoder must.
	twice := &Transaction{ID: "T", Kind: Tentative, Body: []Stmt{
		Update("x", expr.Const(1)),
		Update("x", expr.Const(2)),
	}}
	wire, err := MarshalTransaction(twice)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalTransaction(wire); err == nil {
		t.Error("accepted a double-update profile")
	}
}

// FuzzUnmarshalTransaction feeds arbitrary bytes to the transaction
// decoder. Properties: it never panics; what it accepts is a valid profile
// whose compiled sets are the map-based reference's (compileDiff) and
// whose encoding is a fixed point (encode, decode, encode gives the same
// bytes).
func FuzzUnmarshalTransaction(f *testing.F) {
	for _, seed := range []*Transaction{
		MustNew("T1", Tentative,
			Read("a"),
			Update("x", expr.Add(expr.Var("x"), expr.Param("amt"))),
			Assign("w", expr.Const(-7)),
		).WithType("mixed").WithParams(map[string]model.Value{"amt": 42}),
		MustNew("T2", Base, IfElse(
			expr.Or(expr.Not(expr.LT(expr.Var("u"), expr.Const(3))), expr.EQ(expr.Var("v"), expr.Param("p"))),
			[]Stmt{Update("x", expr.Bin(expr.OpMin, expr.Var("x"), expr.Const(9)))},
			[]Stmt{Update("y", expr.Bin(expr.OpMod, expr.Var("y"), expr.Const(4)))},
		)).WithInverse(Update("x", expr.Param("old"))),
	} {
		data, err := MarshalTransaction(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalTransaction(data)
		if err != nil {
			return
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("decoded an invalid profile: %v", err)
		}
		if diff := compileDiff(got); diff != "" {
			t.Fatalf("decoded %s: compiled sets differ from the reference: %s", got, diff)
		}
		once, err := MarshalTransaction(got)
		if err != nil {
			t.Fatalf("re-encode %s: %v", got, err)
		}
		again, err := UnmarshalTransaction(once)
		if err != nil {
			t.Fatalf("decode of a re-encoding failed: %v", err)
		}
		twice, err := MarshalTransaction(again)
		if err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("encoding is not a fixed point: %x then %x (%v)", once, twice, err)
		}
	})
}

func TestEncodedSize(t *testing.T) {
	small := MustNew("S", Tentative, Update("x", expr.Const(1)))
	big := MustNew("B", Tentative,
		If(expr.GT(expr.Var("a"), expr.Const(0)),
			Update("x", expr.Add(expr.Var("x"), expr.Var("a"))),
			Update("y", expr.Sub(expr.Var("y"), expr.Var("a"))),
		),
		Update("z", expr.Mul(expr.Var("z"), expr.Const(2))),
	)
	ss, err := EncodedSize(small)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := EncodedSize(big)
	if err != nil {
		t.Fatal(err)
	}
	if ss <= 0 || bs <= ss {
		t.Errorf("sizes: small=%d big=%d", ss, bs)
	}
}
