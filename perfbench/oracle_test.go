package main

import (
	"encoding/binary"
	"testing"

	"samzasql/internal/avro"
	"samzasql/internal/kafka"
)

// ts returns the rowtime of generated order i.
func ts(i int) int64 { return startTs + int64(i+1)*tsStep }

// A tiny hand-computed window input. Product 7's orders sit at rowtime
// offsets 0, 100,000, 300,000 (exactly five minutes after the first, so the
// first is still in its window) and 300,010 (just past it); product 8's one
// order never mixes in.
func TestWindowSumsHandComputed(t *testing.T) {
	rows := make([]order, 30002)
	for i := range rows {
		rows[i] = order{ts: ts(i), productID: int64(100 + i), units: 1}
	}
	set := func(i int, product, units int64) { rows[i].productID, rows[i].units = product, units }
	set(0, 7, 5)
	set(10_000, 7, 3)
	set(30_000, 7, 2)
	set(30_001, 7, 11)
	set(20_000, 8, 40)
	sums := windowSums(rows)
	for _, c := range []struct {
		i    int
		want int64
	}{
		{0, 5},
		{10_000, 5 + 3},
		{30_000, 5 + 3 + 2},
		{30_001, 3 + 2 + 11},
		{20_000, 40},
	} {
		if rows[c.i].ts-rows[0].ts != int64(c.i)*tsStep {
			t.Fatalf("row %d is not %d ms after row 0", c.i, c.i*tsStep)
		}
		if sums[c.i] != c.want {
			t.Errorf("window sum of row %d = %d, want %d", c.i, sums[c.i], c.want)
		}
	}
	if rows[30_000].ts-rows[0].ts != windowMillis {
		t.Fatal("the boundary row must be exactly 300,000 ms after the first")
	}
}

// encodeOutput writes a row in the output wire format: every field a
// nullable union holding its value.
func encodeOutput(layout string, longs []int64, str string) []byte {
	var b []byte
	li := 0
	for i := 0; i < len(layout); i++ {
		b = binary.AppendVarint(b, 1)
		if layout[i] == 'l' {
			b = binary.AppendVarint(b, longs[li])
			li++
			continue
		}
		b = binary.AppendVarint(b, int64(len(str)))
		b = append(b, str...)
	}
	return b
}

// The oracle's decoder must read what the engine's Avro codec writes for a
// record of nullable fields.
func TestDecodeOutputReadsAvroNullableRecords(t *testing.T) {
	codec, err := avro.NewCodec(avro.Record("Output",
		avro.F("a", avro.Long().AsNullable()),
		avro.F("b", avro.Long().AsNullable()),
		avro.F("s", avro.String().AsNullable()),
	))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := codec.EncodeRow([]any{int64(-3), int64(1) << 40, "pad"})
	if err != nil {
		t.Fatal(err)
	}
	var r outRow
	if !decodeOutput(enc, "lls", &r) {
		t.Fatal("decodeOutput rejected an Avro-encoded row")
	}
	if !equal(r.longs, -3, 1<<40) || string(r.str) != "pad" {
		t.Fatalf("decoded %v %q", r.longs, r.str)
	}
	withNull, err := codec.EncodeRow([]any{int64(1), nil, "x"})
	if err != nil {
		t.Fatal(err)
	}
	if decodeOutput(withNull, "lls", &r) {
		t.Error("a null field must not decode as an expected row")
	}
	if decodeOutput(enc[:len(enc)-1], "lls", &r) || decodeOutput(append(enc, 0), "lls", &r) {
		t.Error("truncated or overlong rows must be rejected")
	}
}

// Every output row is checked: wrong, duplicated and missing rows each
// count as one failed operation.
func TestTallyCountsWrongDuplicatedAndMissing(t *testing.T) {
	rows := []order{
		{ts: ts(0), productID: 1, orderID: 0, units: 60},
		{ts: ts(1), productID: 2, orderID: 1, units: 10}, // filtered out
		{ts: ts(2), productID: 3, orderID: 2, units: 90},
		{ts: ts(3), productID: 4, orderID: 3, units: 51},
	}
	pad := func(int) []byte { return []byte("pp") }
	o := newOracle("filter", rows, pad)
	out := func(i int, units int64, p string) kafka.Message {
		r := rows[i]
		return kafka.Message{Value: encodeOutput("lllls", []int64{r.ts, r.productID, r.orderID, units}, p)}
	}
	tl := o.tally(len(rows))
	tl.check([]kafka.Message{
		out(0, 60, "pp"),   // correct
		out(0, 60, "pp"),   // duplicate
		out(1, 10, "pp"),   // the filter should have dropped it
		out(2, 91, "pp"),   // wrong units
		{Value: []byte{0}}, // null rowtime
	}, nil)
	// Row 3 is missing, and row 2's only output was wrong, so it is
	// missing too.
	if tl.ok != 1 || tl.dup != 1 || tl.wrong != 3 || tl.missing() != 2 || tl.failed() != 6 {
		t.Fatalf("tally = %v, failed %d", tl, tl.failed())
	}

	tl = o.tally(len(rows))
	var seen []int
	tl.check([]kafka.Message{out(3, 51, "pp"), out(0, 60, "pp"), out(2, 90, "pq")}, func(i int) { seen = append(seen, i) })
	if tl.failed() != 2 || len(seen) != 2 || seen[0] != 3 || seen[1] != 0 {
		t.Fatalf("tally = %v, matched %v", tl, seen)
	}
}

func TestJoinAndWindowRowsMatchByColumn(t *testing.T) {
	rows := []order{{ts: ts(0), productID: 123, orderID: 9, units: 4}}
	j := newOracle("join", rows, nil)
	if !j.matches(0, &outRow{longs: []int64{ts(0), 9, 123, 4, 3}}) {
		t.Error("join row with supplierId = productId % 10 rejected")
	}
	if j.matches(0, &outRow{longs: []int64{ts(0), 9, 123, 4, 4}}) {
		t.Error("join row with a wrong supplierId accepted")
	}
	w := newOracle("window", rows, nil)
	if !w.matches(0, &outRow{longs: []int64{ts(0), 123, 4, 4}}) || w.matches(0, &outRow{longs: []int64{ts(0), 123, 4, 5}}) {
		t.Error("window rows are not compared by their sum")
	}
	if j.index(ts(0)+1) != -1 || j.index(ts(1)) != -1 || j.index(ts(0)) != 0 {
		t.Error("index must map only generated rowtimes")
	}
}

// The set-up prefix is the shortest one in which every partition holds an
// order that produces output.
func TestSetupPrefix(t *testing.T) {
	for _, name := range []string{"filter", "join", "window"} {
		_, bl, o := tiny(t, name, 20_000)
		n, err := setupPrefix(bl, o)
		if err != nil {
			t.Fatal(err)
		}
		covered := func(n int) int {
			seen := map[int32]bool{}
			for i := range n {
				if o.emits(i) {
					seen[kafka.PartitionForKey(bl.message(i).Key, partitions)] = true
				}
			}
			return len(seen)
		}
		if covered(n) != partitions || covered(n-1) == partitions {
			t.Errorf("%s: prefix %d covers %d partitions, prefix %d covers %d", name, n, covered(n), n-1, covered(n-1))
		}
	}
}
