package serde

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// objectSeeds are rows of every class the object serde encodes, plus the
// shapes operators persist with it: a sliding-window state row
// [accSnapshot, count, offsetVector, next], an aggregate row and a join
// relation row.
func objectSeeds() [][]any {
	accSnap := []any{"SUM", int64(3), int64(42), 0.0, false, int64(1), int64(40), int64(0), int64(0)}
	return [][]any{
		{},
		{nil},
		{int64(0), int64(-1), int64(math.MaxInt64), int64(math.MinInt64)},
		{1.5, math.Inf(-1), math.NaN()},
		{"", "product-7", true, false},
		{[]byte{}, []byte{0, 1, 0xff}},
		{[]any{[]any{int64(1)}, "x"}, nil},
		{accSnap, int64(3), []any{"orders:0", int64(17)}, int64(19)},
		{[]any{accSnap, accSnap}, []any{"orders:0", int64(5), "orders:1", int64(9)}},
		{int64(7), "product-7", int64(7)},
	}
}

// FuzzObjectSerde feeds arbitrary bytes to ObjectSerde.Decode. Window,
// aggregate and join state rows are decoded from changelog bytes on
// restore, so a corrupt payload may return an error but must never panic.
// Whatever decodes must re-encode to bytes that decode to the same bytes.
func FuzzObjectSerde(f *testing.F) {
	var o ObjectSerde
	for _, row := range objectSeeds() {
		b, err := o.Encode(row)
		if err != nil {
			f.Fatal(err)
		}
		for cut := 0; cut <= len(b); cut++ {
			f.Add(b[:cut])
		}
	}
	// A row count of 1<<62, which once sized the row slice unchecked.
	f.Add(binary.AppendUvarint(nil, 1<<62))
	// A class-name length near MaxUint64, which once overflowed the bounds
	// check; and the same for a string and a bytes payload.
	huge := binary.AppendUvarint(nil, math.MaxUint64-1)
	f.Add(append([]byte{1}, huge...))
	for _, cls := range []string{clsString, clsBytes} {
		f.Add(append(appendName([]byte{1}, cls), huge...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := o.Decode(data)
		if err != nil {
			return
		}
		b, err := o.Encode(v)
		if err != nil {
			t.Fatalf("decoded %v does not re-encode: %v", v, err)
		}
		v2, err := o.Decode(b)
		if err != nil {
			t.Fatalf("re-encoded %x does not decode: %v", b, err)
		}
		b2, err := o.Encode(v2)
		if err != nil || !bytes.Equal(b, b2) {
			t.Fatalf("round trip changed %x to %x (%v)", b, b2, err)
		}
	})
}
