package operators

import (
	"testing"

	"samzasql/internal/avro"
	"samzasql/internal/workload"
)

// FuzzDecodeBlock feeds arbitrary message bytes to the scans of the Orders
// stream and the Products relation. Every input byte a compiled plan
// consumes, relation bootstrap included, enters through DecodeBlock: it may
// reject a message but must never panic.
func FuzzDecodeBlock(f *testing.F) {
	orders := avro.MustCodec(workload.OrdersSchema())
	products := avro.MustCodec(workload.ProductsSchema())
	gen := workload.NewOrdersGen(workload.DefaultOrdersConfig())
	_, _, order, err := gen.Next()
	if err != nil {
		f.Fatal(err)
	}
	product, err := products.EncodeRow([]any{int64(7), "product-7", int64(7)})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{order, product} {
		for cut := 0; cut <= len(seed); cut++ {
			f.Add(seed[:cut])
		}
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	// Four longs, then a string length of MaxInt64 (zig-zag varint).
	f.Add([]byte{2, 2, 2, 2, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	scans := []*ScanOp{
		{Codec: orders, TsIdx: 0, Stream: "orders"},
		{Codec: products, TsIdx: -1, Stream: "products"},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, s := range scans {
			// The fuzzed message alone and behind a valid one: a bad row
			// must fail the block wherever it sits.
			for _, raws := range [][][]byte{{data}, {order, data}} {
				var b TupleBlock
				b.Reset(s.Stream, 0, len(raws))
				for i, raw := range raws {
					b.Raw = append(b.Raw, raw)
					b.Keys = append(b.Keys, nil)
					b.Ts = append(b.Ts, 0)
					b.Offsets = append(b.Offsets, int64(i))
				}
				if err := s.DecodeBlock(&b); err != nil {
					continue
				}
				if len(b.Sel) != len(raws) {
					t.Fatalf("%s: decoded block selects %d of %d rows", s.Stream, len(b.Sel), len(raws))
				}
			}
		}
	})
}
