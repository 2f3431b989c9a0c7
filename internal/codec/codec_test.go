package codec

import (
	"encoding/binary"
	"errors"
	"testing"

	"tiermerge/internal/model"
)

func TestStateRoundTrip(t *testing.T) {
	for _, s := range []model.State{
		{},
		{"x": 5},
		{"d10": -3, "d2": 1 << 40, "a": 0},
	} {
		got, err := UnmarshalState(MarshalState(s))
		if err != nil || !got.Equal(s) || len(got) != len(s) {
			t.Errorf("%s: decoded %s, %v", s, got, err)
		}
	}
	// Equal states encode to equal bytes, whatever the map order.
	a, b := MarshalState(model.State{"x": 1, "y": 2}), MarshalState(model.State{"y": 2, "x": 1})
	if string(a) != string(b) {
		t.Errorf("encodings differ: %x vs %x", a, b)
	}
}

// TestDecoderRefusesMalformed: every refusal is an error wrapping
// ErrMalformed, never a panic or an allocation sized by the input's claim.
func TestDecoderRefusesMalformed(t *testing.T) {
	pair := func(it string, v int64) []byte {
		b := binary.AppendUvarint(nil, uint64(len(it)))
		return binary.AppendVarint(append(b, it...), v)
	}
	state := func(n uint64, pairs ...[]byte) []byte {
		b := binary.AppendUvarint(nil, n)
		for _, p := range pairs {
			b = append(b, p...)
		}
		return b
	}
	for name, bad := range map[string][]byte{
		"empty":           {},
		"count past end":  state(3, pair("x", 1)),
		"huge count":      state(1<<40, pair("x", 1)),
		"name past end":   state(1, []byte{9, 'x'}),
		"items reversed":  state(2, pair("y", 1), pair("x", 2)),
		"item repeated":   state(2, pair("x", 1), pair("x", 2)),
		"trailing bytes":  append(state(1, pair("x", 1)), 0),
		"truncated value": state(1, []byte{1, 'x', 0x80}),
	} {
		if _, err := UnmarshalState(bad); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: decoded %x with %v", name, bad, err)
		}
	}
}

func TestNestingBound(t *testing.T) {
	for _, side := range []interface {
		Enter() bool
		Leave()
		Err() error
	}{NewEncoder(nil), NewDecoder(nil)} {
		for i := 0; i < MaxDepth; i++ {
			if !side.Enter() {
				t.Fatalf("%T refused depth %d", side, i+1)
			}
		}
		if side.Enter() || !errors.Is(side.Err(), ErrMalformed) {
			t.Errorf("%T accepted depth %d", side, MaxDepth+1)
		}
	}
}
