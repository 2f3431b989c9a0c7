package expr

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"tiermerge/internal/codec"
	"tiermerge/internal/model"
)

// encode and decode run the binary codec over one expression or
// predicate; decoding requires the whole input to be consumed.
func encode[T any](put func(*codec.Encoder, T), v T) ([]byte, error) {
	enc := codec.NewEncoder(nil)
	put(enc, v)
	return enc.Result()
}

func decode[T any](get func(*codec.Decoder) T, data []byte) (T, error) {
	dec := codec.NewDecoder(data)
	v := get(dec)
	return v, dec.Finish()
}

// randExpr builds a random expression tree of bounded depth over items
// a..d and parameters p/q.
func randExpr(rng *rand.Rand, depth int) Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		switch rng.Intn(3) {
		case 0:
			return Const(model.Value(rng.Int63n(200) - 100))
		case 1:
			return Var(model.Item(string(rune('a' + rng.Intn(4)))))
		default:
			return Param([]string{"p", "q"}[rng.Intn(2)])
		}
	}
	ops := []Op{OpAdd, OpSub, OpMul, OpDiv, OpMod, OpMin, OpMax}
	return Bin(ops[rng.Intn(len(ops))], randExpr(rng, depth-1), randExpr(rng, depth-1))
}

// randPred builds a random predicate of bounded depth.
func randPred(rng *rand.Rand, depth int) Pred {
	if depth == 0 || rng.Intn(3) == 0 {
		ops := []CmpOp{CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE}
		return Cmp(ops[rng.Intn(len(ops))], randExpr(rng, 1), randExpr(rng, 1))
	}
	switch rng.Intn(3) {
	case 0:
		return And(randPred(rng, depth-1), randPred(rng, depth-1))
	case 1:
		return Or(randPred(rng, depth-1), randPred(rng, depth-1))
	default:
		return Not(randPred(rng, depth-1))
	}
}

type codecEnv struct{ rng *rand.Rand }

func (e codecEnv) ItemValue(model.Item) (model.Value, error) {
	return model.Value(e.rng.Int63n(100)), nil
}
func (e codecEnv) ParamValue(string) (model.Value, error) {
	return model.Value(e.rng.Int63n(100)), nil
}

// TestExprCodecRoundTrip property-checks Marshal/Unmarshal over random
// trees: the decoded expression renders and evaluates identically.
func TestExprCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(801))
	for trial := 0; trial < 500; trial++ {
		orig := randExpr(rng, 4)
		data, err := encode(EncodeExpr, orig)
		if err != nil {
			t.Fatalf("trial %d: marshal %s: %v", trial, orig, err)
		}
		got, err := decode(DecodeExpr, data)
		if err != nil {
			t.Fatalf("trial %d: unmarshal %x: %v", trial, data, err)
		}
		// Structural identity via the deterministic String form.
		if got.String() != orig.String() {
			t.Fatalf("trial %d: %s != %s", trial, got, orig)
		}
		// Behavioural identity on a deterministic env (same seed for both).
		seed := rng.Int63()
		v1, err1 := orig.Eval(codecEnv{rng: rand.New(rand.NewSource(seed))})
		v2, err2 := got.Eval(codecEnv{rng: rand.New(rand.NewSource(seed))})
		if (err1 == nil) != (err2 == nil) || (err1 == nil && v1 != v2) {
			t.Fatalf("trial %d: eval divergence: %v/%v vs %v/%v", trial, v1, err1, v2, err2)
		}
	}
}

// TestPredCodecRoundTrip does the same for predicates.
func TestPredCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(802))
	for trial := 0; trial < 500; trial++ {
		orig := randPred(rng, 3)
		data, err := encode(EncodePred, orig)
		if err != nil {
			t.Fatalf("trial %d: marshal %s: %v", trial, orig, err)
		}
		got, err := decode(DecodePred, data)
		if err != nil {
			t.Fatalf("trial %d: unmarshal %x: %v", trial, data, err)
		}
		if got.String() != orig.String() {
			t.Fatalf("trial %d: %s != %s", trial, got, orig)
		}
	}
}

func TestExprCodecRejectsGarbage(t *testing.T) {
	leaf := []byte{tagConst, 2}
	for name, bad := range map[string][]byte{
		"empty":            {},
		"unknown tag":      {0},
		"unknown operator": append([]byte{tagOp + 9}, append(leaf, leaf...)...),
		"missing operand":  append([]byte{tagOp + byte(OpAdd)}, leaf...),
		"trailing bytes":   append(leaf, 0),
		"name past end":    {tagVar, 9, 'x'},
		"too deep":         append(bytes.Repeat([]byte{tagOp + byte(OpAdd)}, codec.MaxDepth), bytes.Repeat(leaf, codec.MaxDepth+1)...),
	} {
		if _, err := decode(DecodeExpr, bad); !errors.Is(err, codec.ErrMalformed) {
			t.Errorf("%s: accepted %x (%v)", name, bad, err)
		}
	}
	cmp := append([]byte{tagOp + byte(CmpGT)}, append(leaf, leaf...)...)
	for name, bad := range map[string][]byte{
		"empty":              {},
		"unknown comparison": append([]byte{tagOp + 9}, append(leaf, leaf...)...),
		"and of one":         append([]byte{tagAnd}, cmp...),
		"expression as pred": leaf,
	} {
		if _, err := decode(DecodePred, bad); !errors.Is(err, codec.ErrMalformed) {
			t.Errorf("predicate %s: accepted %x (%v)", name, bad, err)
		}
	}
	// The encoder refuses what the decoder would: nesting past MaxDepth.
	deep := Const(1)
	for i := 0; i < codec.MaxDepth; i++ {
		deep = Add(deep, Const(1))
	}
	if _, err := encode(EncodeExpr, deep); !errors.Is(err, codec.ErrMalformed) {
		t.Errorf("encoded an expression %d levels deep: %v", codec.MaxDepth+1, err)
	}
}
