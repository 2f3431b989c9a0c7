package expr

import (
	"tiermerge/internal/codec"
	"tiermerge/internal/model"
)

// Binary form of expressions and predicates (internal/codec), the code
// format the write-ahead log records (non-canned systems "record the codes
// of transactions when they are executed", Section 5.1) and the
// reprocessing protocol ships (Section 7.1). Each node is one tag byte and
// its operands in prefix order; a binary node's tag carries its operator:
//
//	expression: 1 const varint | 2 var item | 3 param name | 16+op l r
//	predicate:  1 and p q | 2 or p q | 3 not p | 16+cmp l r
const (
	tagConst = 1
	tagVar   = 2
	tagParam = 3
	tagAnd   = 1
	tagOr    = 2
	tagNot   = 3
	tagOp    = 16
)

// EncodeExpr appends e's binary form.
func EncodeExpr(enc *codec.Encoder, e Expr) {
	defer enc.Leave()
	if !enc.Enter() {
		return
	}
	switch n := e.(type) {
	case constExpr:
		enc.Byte(tagConst)
		enc.Value(n.v)
	case varExpr:
		enc.Byte(tagVar)
		enc.Str(string(n.it))
	case paramExpr:
		enc.Byte(tagParam)
		enc.Str(n.name)
	case binExpr:
		if n.op < OpAdd || n.op > OpMax {
			enc.Fail("expr: cannot encode operator %v", n.op)
			return
		}
		enc.Byte(tagOp + byte(n.op))
		EncodeExpr(enc, n.l)
		EncodeExpr(enc, n.r)
	default:
		enc.Fail("expr: cannot encode %T", e)
	}
}

// DecodeExpr reads an expression EncodeExpr wrote. On failure it returns
// nil or a partial tree and dec.Err reports why.
func DecodeExpr(dec *codec.Decoder) Expr {
	defer dec.Leave()
	if !dec.Enter() {
		return nil
	}
	switch tag := dec.Byte(); {
	case tag == tagConst:
		return Const(dec.Value())
	case tag == tagVar:
		return Var(model.Item(dec.Str()))
	case tag == tagParam:
		return Param(dec.Str())
	case tag > tagOp && tag <= tagOp+byte(OpMax):
		l := DecodeExpr(dec)
		return Bin(Op(tag-tagOp), l, DecodeExpr(dec))
	default:
		dec.Fail("expr: unknown expression tag %d", tag)
		return nil
	}
}

// EncodePred appends p's binary form.
func EncodePred(enc *codec.Encoder, p Pred) {
	defer enc.Leave()
	if !enc.Enter() {
		return
	}
	switch n := p.(type) {
	case cmpPred:
		if n.op < CmpEQ || n.op > CmpGE {
			enc.Fail("expr: cannot encode comparison %v", n.op)
			return
		}
		enc.Byte(tagOp + byte(n.op))
		EncodeExpr(enc, n.l)
		EncodeExpr(enc, n.r)
	case andPred:
		enc.Byte(tagAnd)
		EncodePred(enc, n.l)
		EncodePred(enc, n.r)
	case orPred:
		enc.Byte(tagOr)
		EncodePred(enc, n.l)
		EncodePred(enc, n.r)
	case notPred:
		enc.Byte(tagNot)
		EncodePred(enc, n.p)
	default:
		enc.Fail("expr: cannot encode predicate %T", p)
	}
}

// DecodePred reads a predicate EncodePred wrote, failing as DecodeExpr
// does.
func DecodePred(dec *codec.Decoder) Pred {
	defer dec.Leave()
	if !dec.Enter() {
		return nil
	}
	switch tag := dec.Byte(); {
	case tag == tagAnd:
		l := DecodePred(dec)
		return And(l, DecodePred(dec))
	case tag == tagOr:
		l := DecodePred(dec)
		return Or(l, DecodePred(dec))
	case tag == tagNot:
		return Not(DecodePred(dec))
	case tag > tagOp && tag <= tagOp+byte(CmpGE):
		l := DecodeExpr(dec)
		return Cmp(CmpOp(tag-tagOp), l, DecodeExpr(dec))
	default:
		dec.Fail("expr: unknown predicate tag %d", tag)
		return nil
	}
}
