package tx

import (
	"fmt"
	"slices"

	"tiermerge/internal/codec"
	"tiermerge/internal/expr"
	"tiermerge/internal/model"
)

// Binary form of transactions (internal/codec), layered on the expr
// codec:
//
//	transaction: id | type | kind byte | params | body | inverse
//	params:      count, then (name, varint) in name order
//	statements:  count, then each statement:
//	             1 read item | 2 update item expr | 3 assign item expr |
//	             4 if pred then-statements else-statements
//
// The write-ahead log records code in this form (Section 5.1) and code
// shipping carries it (Section 7.1).
const (
	tagRead   = 1
	tagUpdate = 2
	tagAssign = 3
	tagIf     = 4
)

// MarshalTransaction encodes a full transaction (profile, parameters and
// any explicit compensator) in its binary form.
func MarshalTransaction(t *Transaction) ([]byte, error) {
	enc := codec.NewEncoder(nil)
	if t.Kind != Tentative && t.Kind != Base {
		enc.Fail("tx: cannot encode kind %v", t.Kind)
	}
	enc.Str(t.ID)
	enc.Str(t.Type)
	enc.Byte(byte(t.Kind))
	names := make([]string, 0, len(t.Params))
	for name := range t.Params {
		names = append(names, name)
	}
	slices.Sort(names)
	enc.Uvarint(uint64(len(names)))
	for _, name := range names {
		enc.Str(name)
		enc.Value(t.Params[name])
	}
	encodeStmts(enc, t.Body)
	encodeStmts(enc, t.InverseBody)
	return enc.Result()
}

func encodeStmts(enc *codec.Encoder, body []Stmt) {
	enc.Uvarint(uint64(len(body)))
	for _, s := range body {
		encodeStmt(enc, s)
	}
}

func encodeStmt(enc *codec.Encoder, s Stmt) {
	defer enc.Leave()
	if !enc.Enter() {
		return
	}
	switch st := s.(type) {
	case *ReadStmt:
		enc.Byte(tagRead)
		enc.Str(string(st.Item))
	case *UpdateStmt:
		enc.Byte(tagUpdate)
		enc.Str(string(st.Item))
		expr.EncodeExpr(enc, st.Expr)
	case *AssignStmt:
		enc.Byte(tagAssign)
		enc.Str(string(st.Item))
		expr.EncodeExpr(enc, st.Expr)
	case *IfStmt:
		enc.Byte(tagIf)
		expr.EncodePred(enc, st.Cond)
		encodeStmts(enc, st.Then)
		encodeStmts(enc, st.Else)
	default:
		enc.Fail("tx: cannot encode statement %T", s)
	}
}

// UnmarshalTransaction decodes a transaction MarshalTransaction encoded —
// refusing trailing bytes — and re-validates it against the profile
// assumptions.
func UnmarshalTransaction(data []byte) (*Transaction, error) {
	dec := codec.NewDecoder(data)
	t := &Transaction{ID: dec.Str(), Type: dec.Str(), Kind: Kind(dec.Byte())}
	if dec.Err() == nil && t.Kind != Tentative && t.Kind != Base {
		dec.Fail("tx: unknown kind %d", t.Kind)
	}
	if n := dec.Count(); n > 0 {
		t.Params = make(map[string]model.Value, n)
		for i := 0; i < n && dec.Err() == nil; i++ {
			name := dec.Str()
			t.Params[name] = dec.Value()
		}
	}
	t.Body = decodeStmts(dec)
	t.InverseBody = decodeStmts(dec)
	if err := dec.Finish(); err != nil {
		return nil, fmt.Errorf("tx: decode transaction: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("tx: decoded transaction invalid: %w", err)
	}
	return t, nil
}

func decodeStmts(dec *codec.Decoder) []Stmt {
	n := dec.Count()
	if n == 0 {
		return nil
	}
	body := make([]Stmt, 0, n)
	for i := 0; i < n && dec.Err() == nil; i++ {
		body = append(body, decodeStmt(dec))
	}
	return body
}

func decodeStmt(dec *codec.Decoder) Stmt {
	defer dec.Leave()
	if !dec.Enter() {
		return nil
	}
	switch tag := dec.Byte(); tag {
	case tagRead:
		return Read(model.Item(dec.Str()))
	case tagUpdate:
		it := model.Item(dec.Str())
		return Update(it, expr.DecodeExpr(dec))
	case tagAssign:
		it := model.Item(dec.Str())
		return Assign(it, expr.DecodeExpr(dec))
	case tagIf:
		cond := expr.DecodePred(dec)
		then := decodeStmts(dec)
		return IfElse(cond, then, decodeStmts(dec))
	default:
		dec.Fail("tx: unknown statement tag %d", tag)
		return nil
	}
}

// EncodedSize returns the number of bytes of the transaction's binary
// form — the real "code + arguments" payload the reprocessing protocol
// ships (Section 7.1).
func EncodedSize(t *Transaction) (int, error) {
	b, err := MarshalTransaction(t)
	return len(b), err
}
