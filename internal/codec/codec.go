// Package codec is the one binary encoding of everything tiermerge logs
// and ships in bulk: journal records (internal/wal), transaction code
// (internal/tx, internal/expr) and database states. A Decoder refuses what
// no Encoder writes — a count or length larger than the bytes that
// remain, nesting deeper than MaxDepth, trailing bytes — so a damaged or
// hostile blob fails instead of allocating or recursing without bound.
// Both sides keep the first error, so callers check once at the end.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tiermerge/internal/model"
)

// MaxDepth bounds how deeply encoded values nest: statements inside
// conditionals, operands inside expressions. The Encoder refuses deeper
// values too, so whatever is written can be read back.
const MaxDepth = 1000

// ErrMalformed is wrapped by every encoding and decoding failure.
var ErrMalformed = errors.New("codec: malformed encoding")

// nesting is what the Encoder and the Decoder share: the first error and
// the current depth.
type nesting struct {
	depth int
	err   error
}

// Err returns the first error.
func (n *nesting) Err() error { return n.err }

// Fail records an error; the first one wins, and on the Decoder it makes
// every later read a no-op.
func (n *nesting) Fail(format string, args ...any) {
	if n.err == nil {
		n.err = fmt.Errorf("%w: "+format, append([]any{ErrMalformed}, args...)...)
	}
}

// Enter opens one level of nesting and reports whether encoding or
// decoding may go on; past MaxDepth it fails. Every Enter is paired with
// a Leave.
func (n *nesting) Enter() bool {
	n.depth++
	if n.depth > MaxDepth {
		n.Fail("nesting deeper than %d", MaxDepth)
	}
	return n.err == nil
}

// Leave closes the level Enter opened.
func (n *nesting) Leave() { n.depth-- }

// Encoder appends values to a byte slice.
type Encoder struct {
	nesting
	buf []byte
}

// NewEncoder returns an encoder appending to buf.
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf} }

// Result returns the appended bytes, or the first error.
func (e *Encoder) Result() ([]byte, error) { return e.buf, e.err }

// Byte appends one byte (a tag or a flag).
func (e *Encoder) Byte(c byte) { e.buf = append(e.buf, c) }

// Uvarint appends an unsigned varint (a count or a length).
func (e *Encoder) Uvarint(u uint64) { e.buf = binary.AppendUvarint(e.buf, u) }

// Varint appends a zigzag varint.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Value appends an item value.
func (e *Encoder) Value(v model.Value) { e.Varint(int64(v)) }

// Blob appends a length-prefixed byte string.
func (e *Encoder) Blob(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// State appends a state: its size, then every item and value in item
// order, so equal states encode to equal bytes.
func (e *Encoder) State(s model.State) {
	e.Uvarint(uint64(len(s)))
	for _, it := range s.Items() {
		e.Str(string(it))
		e.Value(s[it])
	}
}

// Decoder reads values back from a byte slice.
type Decoder struct {
	nesting
	b []byte
}

// NewDecoder returns a decoder over b. Blob results alias b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Finish reports the first error, or trailing bytes past the last value.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.b) > 0 {
		d.Fail("%d trailing bytes", len(d.b))
	}
	return d.err
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.err != nil || len(d.b) == 0 {
		d.Fail("unexpected end of data")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	u, n := binary.Uvarint(d.b)
	if d.err != nil || n <= 0 {
		d.Fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return u
}

// Varint reads a zigzag varint.
func (d *Decoder) Varint() int64 {
	v, n := binary.Varint(d.b)
	if d.err != nil || n <= 0 {
		d.Fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Value reads an item value.
func (d *Decoder) Value() model.Value { return model.Value(d.Varint()) }

// Count reads a count or a length, refusing one larger than the bytes
// that remain: every counted element takes at least one byte.
func (d *Decoder) Count() int {
	u := d.Uvarint()
	if u > uint64(len(d.b)) {
		d.Fail("count %d exceeds the %d bytes left", u, len(d.b))
		return 0
	}
	return int(u)
}

// Blob reads a length-prefixed byte string; the result aliases the input.
func (d *Decoder) Blob() []byte {
	n := d.Count() // 0 after an error
	b := d.b[:n:n]
	d.b = d.b[n:]
	return b
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.Blob()) }

// State reads a state, refusing items out of order or repeated: a state
// has exactly one encoding.
func (d *Decoder) State() model.State {
	n := d.Count()
	s := make(model.State, n)
	var prev model.Item
	for i := 0; i < n && d.err == nil; i++ {
		it := model.Item(d.Str())
		if i > 0 && it <= prev {
			d.Fail("state item %q after %q", it, prev)
		}
		s[it] = d.Value()
		prev = it
	}
	return s
}

// MarshalState encodes a state on its own, as a response ships it.
func MarshalState(s model.State) []byte {
	enc := NewEncoder(nil)
	enc.State(s)
	return enc.buf
}

// UnmarshalState decodes a state MarshalState encoded.
func UnmarshalState(b []byte) (model.State, error) {
	dec := NewDecoder(b)
	s := dec.State()
	return s, dec.Finish()
}
