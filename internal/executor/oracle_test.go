package executor

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"

	"samzasql/internal/kafka"
)

// This file is the reference the batch-equivalence tests check the engine
// against. It computes each query's expected output stream from the input
// generators' rows with plain loops, and it reads the engine's output
// messages by decoding the Avro wire format itself. It shares no code with
// the operators, the SQL compiler, the Avro codec or the serdes, so a bug
// there cannot cancel out.
//
// The expected streams follow the stream/table law of streaming SQL: a
// streaming query's output is the changelog of the same query over the
// input table as it grows one row at a time. A filter or projection emits
// each row it keeps; a sliding window emits each row with its window's
// aggregate; an unwindowed GROUP BY emits the updated group row per input;
// a tumbling window emits once, when event time passes its end.

// oracleRow is one expected output message: its column values (int64,
// float64, string, bool or nil) and its message timestamp.
type oracleRow struct {
	vals []any
	ts   int64
}

func (r oracleRow) String() string { return fmt.Sprintf("ts=%d %v", r.ts, r.vals) }

// Orders rows, as the generator returns them: rowtime, productId, orderId,
// units, pad.
const (
	colRowtime = iota
	colProductID
	colOrderID
	colUnits
)

func orderCol(r []any, c int) int64 { return r[c].(int64) }

// supplierOf is the Products relation the test engines load: product id
// has supplier id % 10 (workload.ProduceProducts).
func supplierOf(productID int64) int64 { return productID % 10 }

func filterOracle(orders [][]any) []oracleRow {
	var out []oracleRow
	for _, r := range orders {
		if orderCol(r, colUnits) > 50 {
			out = append(out, oracleRow{vals: append([]any(nil), r...), ts: orderCol(r, colRowtime)})
		}
	}
	return out
}

func projectOracle(orders [][]any) []oracleRow {
	var out []oracleRow
	for _, r := range orders {
		out = append(out, oracleRow{
			vals: []any{r[colRowtime], r[colProductID], r[colUnits]},
			ts:   orderCol(r, colRowtime),
		})
	}
	return out
}

func computedOracle(orders [][]any) []oracleRow {
	var out []oracleRow
	for _, r := range orders {
		u := orderCol(r, colUnits)
		if u > 10 {
			out = append(out, oracleRow{vals: []any{r[colProductID], u*2 + 1}, ts: orderCol(r, colRowtime)})
		}
	}
	return out
}

// slidingSumOracle sums, for every order, the units of the same product's
// orders whose rowtime lies in [rowtime-10s, rowtime], both ends inclusive,
// scanning every earlier order.
func slidingSumOracle(orders [][]any) []oracleRow {
	var out []oracleRow
	for i, r := range orders {
		ts, pid := orderCol(r, colRowtime), orderCol(r, colProductID)
		var sum int64
		for _, p := range orders[:i+1] {
			if orderCol(p, colProductID) == pid && orderCol(p, colRowtime) >= ts-10_000 && orderCol(p, colRowtime) <= ts {
				sum += orderCol(p, colUnits)
			}
		}
		out = append(out, oracleRow{
			vals: []any{r[colRowtime], r[colOrderID], r[colProductID], r[colUnits], sum},
			ts:   ts,
		})
	}
	return out
}

func joinOracle(orders [][]any) []oracleRow {
	var out []oracleRow
	for _, r := range orders {
		out = append(out, oracleRow{
			vals: []any{r[colRowtime], r[colOrderID], r[colProductID], r[colUnits], supplierOf(orderCol(r, colProductID))},
			ts:   orderCol(r, colRowtime),
		})
	}
	return out
}

// groupedOracle is the early-results GROUP BY: every order emits its
// product's running COUNT(*) and SUM(units).
func groupedOracle(orders [][]any) []oracleRow {
	count := map[int64]int64{}
	sum := map[int64]int64{}
	var out []oracleRow
	for _, r := range orders {
		pid := orderCol(r, colProductID)
		count[pid]++
		sum[pid] += orderCol(r, colUnits)
		out = append(out, oracleRow{vals: []any{pid, count[pid], sum[pid]}, ts: orderCol(r, colRowtime)})
	}
	return out
}

// tumbleOracle is the 1-second TUMBLE: an order at rowtime ts belongs to
// the window [e-1s, e) with e the first whole second after ts. A window
// emits START, END, COUNT(*) and SUM(units) once an order at or past its
// end arrives; generated rowtimes strictly increase, so that is the first
// order of the next window. The last window never closes in streaming mode.
// Like every projection whose output has a timestamp column, the row is
// stamped with the first one: START.
func tumbleOracle(orders [][]any) []oracleRow {
	const width = 1000
	var out []oracleRow
	var end, count, sum, last int64
	for _, r := range orders {
		ts := orderCol(r, colRowtime)
		if ts <= last {
			panic("tumbleOracle: rowtimes must strictly increase")
		}
		last = ts
		e := (ts/width + 1) * width
		if count > 0 && e != end {
			out = append(out, oracleRow{vals: []any{end - width, end, count, sum}, ts: end - width})
			count, sum = 0, 0
		}
		end = e
		count++
		sum += orderCol(r, colUnits)
	}
	return out
}

// clicksJoinOracle is clicksJoin over the rows clickRow generates.
func clicksJoinOracle(n int) []oracleRow {
	var out []oracleRow
	for i := 0; i < n; i++ {
		r := clickRow(i)
		out = append(out, oracleRow{vals: []any{r[0], r[1], r[2], supplierOf(r[2].(int64))}, ts: r[0].(int64)})
	}
	return out
}

// decodeOutput reads one output message whose columns follow layout, one
// letter per column: l long, d double, s string, b boolean. Output records
// make every field nullable: a union whose branch 0 is null and branch 1
// the value. Longs and union branches are zig-zag varints, strings a length
// varint and their bytes, doubles 8 little-endian bytes, booleans one byte.
func decodeOutput(data []byte, layout string) ([]any, error) {
	vals := make([]any, 0, len(layout))
	pos := 0
	varint := func() (int64, error) {
		v, n := binary.Varint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("bad varint at byte %d", pos)
		}
		pos += n
		return v, nil
	}
	for i := 0; i < len(layout); i++ {
		branch, err := varint()
		if err != nil {
			return nil, err
		}
		if branch == 0 {
			vals = append(vals, nil)
			continue
		}
		if branch != 1 {
			return nil, fmt.Errorf("column %d: union branch %d", i, branch)
		}
		switch layout[i] {
		case 'l':
			v, err := varint()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		case 's':
			n, err := varint()
			if err != nil {
				return nil, err
			}
			if n < 0 || n > int64(len(data)-pos) {
				return nil, fmt.Errorf("column %d: string length %d", i, n)
			}
			vals = append(vals, string(data[pos:pos+int(n)]))
			pos += int(n)
		case 'd':
			if len(data)-pos < 8 {
				return nil, fmt.Errorf("column %d: short double", i)
			}
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data[pos:])))
			pos += 8
		case 'b':
			if pos >= len(data) {
				return nil, fmt.Errorf("column %d: short boolean", i)
			}
			vals = append(vals, data[pos] != 0)
			pos++
		default:
			return nil, fmt.Errorf("layout letter %q", layout[i])
		}
	}
	if pos != len(data) {
		return nil, fmt.Errorf("%d trailing bytes", len(data)-pos)
	}
	return vals, nil
}

// decodeOutputs decodes every message into an oracleRow.
func decodeOutputs(t *testing.T, label, layout string, msgs []kafka.Message) []oracleRow {
	t.Helper()
	out := make([]oracleRow, 0, len(msgs))
	for i, m := range msgs {
		vals, err := decodeOutput(m.Value, layout)
		if err != nil {
			t.Fatalf("%s: output %d does not decode as %q: %v", label, i, layout, err)
		}
		out = append(out, oracleRow{vals: vals, ts: m.Timestamp})
	}
	return out
}

// checkOracleInOrder asserts that the engine's output is exactly the
// oracle's stream, values and timestamps, in order.
func checkOracleInOrder(t *testing.T, label, layout string, msgs []kafka.Message, want []oracleRow) {
	t.Helper()
	got := decodeOutputs(t, label, layout, msgs)
	if len(got) != len(want) {
		t.Fatalf("%s: %d output rows, oracle expects %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].String() != want[i].String() {
			t.Fatalf("%s: row %d disagrees with the oracle:\n  oracle: %s\n  engine: %s", label, i, want[i], got[i])
		}
	}
}

// checkOracleMultiset asserts that the engine's output holds the oracle's
// rows, values and timestamps, in any order (several partitions interleave
// nondeterministically).
func checkOracleMultiset(t *testing.T, label, layout string, msgs []kafka.Message, want []oracleRow) {
	t.Helper()
	render := func(rows []oracleRow) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = r.String()
		}
		sort.Strings(out)
		return out
	}
	got, exp := render(decodeOutputs(t, label, layout, msgs)), render(want)
	if len(got) != len(exp) {
		t.Fatalf("%s: %d output rows, oracle expects %d", label, len(got), len(exp))
	}
	for i := range exp {
		if got[i] != exp[i] {
			t.Fatalf("%s: output multiset disagrees with the oracle at sorted row %d:\n  oracle: %s\n  engine: %s", label, i, exp[i], got[i])
		}
	}
}

// TestOracleDecodeOutputRejectsMalformed pins the oracle's own decoder: it
// reads nulls and every layout letter, and rejects truncated or padded
// messages instead of reading past them.
func TestOracleDecodeOutputRejectsMalformed(t *testing.T) {
	var msg []byte
	msg = binary.AppendVarint(msg, 1)
	msg = binary.AppendVarint(msg, -3)
	msg = binary.AppendVarint(msg, 0) // null
	msg = binary.AppendVarint(msg, 1)
	msg = binary.AppendVarint(msg, 2)
	msg = append(msg, "hi"...)
	msg = binary.AppendVarint(msg, 1)
	msg = binary.LittleEndian.AppendUint64(msg, math.Float64bits(1.5))
	msg = binary.AppendVarint(msg, 1)
	msg = append(msg, 1)
	vals, err := decodeOutput(msg, "llsdb")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(vals); got != "[-3 <nil> hi 1.5 true]" {
		t.Fatalf("decoded %s", got)
	}
	for cut := 0; cut < len(msg); cut++ {
		if _, err := decodeOutput(msg[:cut], "llsdb"); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	if _, err := decodeOutput(append(msg, 0), "llsdb"); err == nil {
		t.Fatal("trailing byte decoded")
	}
}
