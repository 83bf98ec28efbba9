package main

import (
	"encoding/binary"
	"fmt"

	"samzasql/internal/kafka"
)

// oracle computes each workload's expected output rows straight from the
// generated orders, sharing no code with the engine:
//   - filter: the predicate units > 50, every column passed through;
//   - join: the Products row of productId, whose supplierId is productId % 10;
//   - window: a brute-force per-key sum over the rows of the last 5 minutes,
//     both ends inclusive.
//
// Output rows are matched to inputs by rowtime, which is unique per
// generated order.
type oracle struct {
	w    string
	rows []order
	pads func(i int) []byte
	// sums[i] is the window sum expected for order i (window only).
	sums []int64
}

func newOracle(workload string, rows []order, pads func(i int) []byte) *oracle {
	o := &oracle{w: workload, rows: rows, pads: pads}
	if workload == "window" {
		o.sums = windowSums(rows)
	}
	return o
}

// windowSums sums, for every order, the units of all orders of the same
// product whose rowtime lies in [rowtime-5min, rowtime], by scanning back
// over the product's earlier orders.
func windowSums(rows []order) []int64 {
	sums := make([]int64, len(rows))
	byProduct := map[int64][]int{}
	for i, r := range rows {
		earlier := byProduct[r.productID]
		sum := r.units
		for k := len(earlier) - 1; k >= 0; k-- {
			prev := rows[earlier[k]]
			if prev.ts < r.ts-windowMillis {
				break
			}
			sum += prev.units
		}
		sums[i] = sum
		byProduct[r.productID] = append(earlier, i)
	}
	return sums
}

// emits reports whether order i produces an output row.
func (o *oracle) emits(i int) bool {
	return o.w != "filter" || o.rows[i].units > 50
}

// expectedRows counts the output rows of orders [0, n).
func (o *oracle) expectedRows(n int) int {
	c := 0
	for i := range n {
		if o.emits(i) {
			c++
		}
	}
	return c
}

// index maps an output rowtime back to its order, or -1.
func (o *oracle) index(rowtime int64) int {
	d := rowtime - startTs
	if d <= 0 || d%tsStep != 0 {
		return -1
	}
	i := int(d/tsStep) - 1
	if i >= len(o.rows) || o.rows[i].ts != rowtime {
		return -1
	}
	return i
}

// outputLayout is each query's output row: one letter per column of its
// SELECT list, l for a long and s for a string.
var outputLayout = map[string]string{
	"filter": "lllls", // SELECT *: rowtime, productId, orderId, units, pad
	"join":   "lllll", // rowtime, orderId, productId, units, supplierId
	"window": "llll",  // rowtime, productId, units, unitsLastFiveMinutes
}

// outRow is one decoded output row.
type outRow struct {
	longs []int64
	str   []byte
}

// decodeOutput reads one output message: an Avro record whose fields are
// all nullable unions (branch 0 null, branch 1 the value), each long a
// zig-zag varint and each string a varint length and its bytes. The oracle
// reads the wire format itself rather than through the engine's codec. It
// reports false for malformed input and for any null, which no expected
// row holds.
func decodeOutput(data []byte, layout string, r *outRow) bool {
	r.longs, r.str = r.longs[:0], nil
	pos := 0
	for i := 0; i < len(layout); i++ {
		branch, n := binary.Varint(data[pos:])
		if n <= 0 || branch != 1 {
			return false
		}
		pos += n
		v, n := binary.Varint(data[pos:])
		if n <= 0 {
			return false
		}
		pos += n
		if layout[i] == 'l' {
			r.longs = append(r.longs, v)
			continue
		}
		if v < 0 || v > int64(len(data)-pos) {
			return false
		}
		r.str = data[pos : pos+int(v)]
		pos += int(v)
	}
	return pos == len(data)
}

// matches reports whether r is exactly the output expected for order i.
func (o *oracle) matches(i int, r *outRow) bool {
	x := o.rows[i]
	switch o.w {
	case "filter":
		return x.units > 50 && equal(r.longs, x.ts, x.productID, x.orderID, x.units) && string(r.str) == string(o.pads(i))
	case "join":
		return equal(r.longs, x.ts, x.orderID, x.productID, x.units, x.productID%10)
	case "window":
		return equal(r.longs, x.ts, x.productID, x.units, o.sums[i])
	}
	return false
}

func equal(got []int64, want ...int64) bool {
	if len(got) != len(want) {
		return false
	}
	for c := range want {
		if got[c] != want[c] {
			return false
		}
	}
	return true
}

// tally checks one trial's output rows against the oracle, over the first n
// orders. Every output row that matches no expected row is wrong, every
// repeat of an expected row is a duplicate, and every expected row never
// seen is missing; each of them counts as one failed operation.
type tally struct {
	o          *oracle
	n          int
	layout     string
	row        outRow
	seen       []uint64
	ok         int
	wrong, dup int
}

func (o *oracle) tally(n int) *tally {
	return &tally{o: o, n: n, layout: outputLayout[o.w], seen: make([]uint64, (n+63)/64)}
}

// check checks a batch of output messages, calling matched (when not nil)
// with the order index of every correct, first-seen row.
func (t *tally) check(msgs []kafka.Message, matched func(i int)) {
	for k := range msgs {
		if i := t.observe(msgs[k].Value); i >= 0 && matched != nil {
			matched(i)
		}
	}
}

// observe checks one output message and returns its order index, or -1
// when the row is wrong or a duplicate.
func (t *tally) observe(value []byte) int {
	if !decodeOutput(value, t.layout, &t.row) {
		t.wrong++
		return -1
	}
	i := t.o.index(t.row.longs[0])
	if i < 0 || i >= t.n || !t.o.emits(i) || !t.o.matches(i, &t.row) {
		t.wrong++
		return -1
	}
	if t.seen[i/64]&(1<<(i%64)) != 0 {
		t.dup++
		return -1
	}
	t.seen[i/64] |= 1 << (i % 64)
	t.ok++
	return i
}

// missing counts expected rows not yet observed.
func (t *tally) missing() int { return t.o.expectedRows(t.n) - t.ok }

func (t *tally) failed() int { return t.wrong + t.dup + t.missing() }

func (t *tally) String() string {
	return fmt.Sprintf("%d ok, %d wrong, %d duplicated, %d missing", t.ok, t.wrong, t.dup, t.missing())
}
