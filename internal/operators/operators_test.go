package operators

import (
	"testing"

	"samzasql/internal/kv"
	"samzasql/internal/metrics"
	"samzasql/internal/sql/expr"
	"samzasql/internal/sql/types"
	"samzasql/internal/sql/validate"
)

func testCtx() *OpContext {
	stores := map[string]kv.Store{}
	return &OpContext{
		Store: func(name string) kv.Store {
			s, ok := stores[name]
			if !ok {
				s = kv.NewStore()
				stores[name] = s
			}
			return s
		},
		Metrics: metrics.NewRegistry(),
	}
}

// outRow is one selected row of an emitted block, copied out.
type outRow struct {
	Row []any
	Ts  int64
}

// collect returns a block emit that copies every selected row into out.
func collect(out *[]outRow) BlockEmit {
	return func(b *TupleBlock) error {
		for _, r := range b.Sel {
			row := make([]any, len(b.Cols))
			for c := range b.Cols {
				row[c] = b.Cols[c][r]
			}
			*out = append(*out, outRow{Row: row, Ts: b.Ts[r]})
		}
		return nil
	}
}

// inRow is one input row with its source offset and event time.
type inRow struct {
	offset, ts int64
	row        []any
}

func tup(offset int64, ts int64, row ...any) inRow {
	return inRow{offset: offset, ts: ts, row: row}
}

// process wraps the rows into one block from stream "in", partition 0, and
// runs it through op.
func process(op Operator, emit BlockEmit, rows ...inRow) error {
	b := &TupleBlock{}
	b.Reset("in", 0, len(rows))
	b.sizeCols(len(rows[0].row), len(rows))
	for r, in := range rows {
		for c, v := range in.row {
			b.Cols[c][r] = v
		}
		b.Ts = append(b.Ts, in.ts)
		b.Keys = append(b.Keys, nil)
		b.Offsets = append(b.Offsets, in.offset)
	}
	b.SelAll()
	return op.ProcessBlock(0, b, emit)
}

func TestFilterOp(t *testing.T) {
	cond := &expr.Binary{Op: expr.Gt,
		L: &expr.ColRef{Idx: 0, Name: "units", T: types.Bigint},
		R: &expr.Const{V: int64(10), T: types.Bigint},
		T: types.Boolean}
	op, err := NewFilterOp(cond)
	if err != nil {
		t.Fatal(err)
	}
	var out []outRow
	emit := collect(&out)
	for i, u := range []int64{5, 15, 10, 25} {
		if err := process(op, emit, tup(int64(i), 0, u)); err != nil {
			t.Fatal(err)
		}
	}
	if len(out) != 2 || out[0].Row[0].(int64) != 15 || out[1].Row[0].(int64) != 25 {
		t.Fatalf("filtered %v", out)
	}
}

func TestProjectOpRefreshesTimestamp(t *testing.T) {
	op, err := NewProjectOp([]expr.Expr{
		&expr.Binary{Op: expr.Add,
			L: &expr.ColRef{Idx: 0, Name: "ts", T: types.Timestamp},
			R: &expr.Const{V: int64(1000), T: types.Interval},
			T: types.Timestamp},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []outRow
	if err := process(op, collect(&out), tup(0, 500, int64(500))); err != nil {
		t.Fatal(err)
	}
	if out[0].Ts != 1500 {
		t.Fatalf("projected ts %d, want 1500", out[0].Ts)
	}
}

func boundAggs(fns ...string) []*validate.BoundAgg {
	var out []*validate.BoundAgg
	for _, fn := range fns {
		ag := &validate.BoundAgg{Fn: fn, T: types.Bigint}
		if fn == "SUM" || fn == "MIN" || fn == "MAX" || fn == "AVG" {
			ag.Arg = &expr.ColRef{Idx: 1, Name: "units", T: types.Bigint}
			if fn == "AVG" {
				ag.T = types.Double
			}
		}
		if fn == "START" || fn == "END" {
			ag.T = types.Timestamp
			ag.Arg = &expr.ColRef{Idx: 0, Name: "ts", T: types.Timestamp}
		}
		out = append(out, ag)
	}
	return out
}

func TestUnwindowedAggregateEarlyResults(t *testing.T) {
	keys := []expr.Expr{&expr.ColRef{Idx: 2, Name: "pid", T: types.Bigint}}
	op, err := NewStreamAggregateOp(keys, nil, boundAggs("COUNT", "SUM"))
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	var out []outRow
	emit := collect(&out)
	// Rows: (ts, units, pid)
	inputs := []inRow{
		tup(0, 1, int64(1), int64(10), int64(7)),
		tup(1, 2, int64(2), int64(5), int64(7)),
		tup(2, 3, int64(3), int64(1), int64(8)),
	}
	for _, in := range inputs {
		if err := process(op, emit, in); err != nil {
			t.Fatal(err)
		}
	}
	// Early-results: one output per input.
	if len(out) != 3 {
		t.Fatalf("%d outputs", len(out))
	}
	// Second output: group 7 has count 2, sum 15.
	r := out[1].Row
	if r[0].(int64) != 7 || r[1].(int64) != 2 || r[2].(int64) != 15 {
		t.Fatalf("partial row %v", r)
	}
}

func TestWindowedAggregateEmitsOnWatermark(t *testing.T) {
	win := &validate.GroupWindow{
		Kind:         validate.WindowTumble,
		Ts:           &expr.ColRef{Idx: 0, Name: "ts", T: types.Timestamp},
		EmitMillis:   1000,
		RetainMillis: 1000,
	}
	op, err := NewStreamAggregateOp(nil, win, boundAggs("START", "COUNT"))
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	var out []outRow
	emit := collect(&out)
	// Three tuples in window (0,1000]; then one at 2500 closing it.
	for i, ts := range []int64{100, 400, 900} {
		if err := process(op, emit, tup(int64(i), ts, ts)); err != nil {
			t.Fatal(err)
		}
	}
	if len(out) != 0 {
		t.Fatalf("window emitted before close: %v", out)
	}
	if err := process(op, emit, tup(3, 2500, int64(2500))); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("%d windows emitted", len(out))
	}
	r := out[0].Row
	if r[0].(int64) != 0 || r[1].(int64) != 3 {
		t.Fatalf("window row %v (want START=0 COUNT=3)", r)
	}
}

func TestWindowedAggregateDropsLateTuples(t *testing.T) {
	win := &validate.GroupWindow{
		Kind:         validate.WindowTumble,
		Ts:           &expr.ColRef{Idx: 0, Name: "ts", T: types.Timestamp},
		EmitMillis:   1000,
		RetainMillis: 1000,
	}
	op, err := NewStreamAggregateOp(nil, win, boundAggs("COUNT"))
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	var out []outRow
	emit := collect(&out)
	if err := process(op, emit, tup(0, 500, int64(500))); err != nil {
		t.Fatal(err)
	}
	if err := process(op, emit, tup(1, 2500, int64(2500))); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Row[0].(int64) != 1 {
		t.Fatalf("first window: %v", out)
	}
	// Late arrival for the already-closed first window: discarded (§3).
	if err := process(op, emit, tup(2, 600, int64(600))); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("late tuple re-emitted a window: %v", out)
	}
}

func TestAggregateReplayIsExactlyOnce(t *testing.T) {
	keys := []expr.Expr{&expr.ColRef{Idx: 2, Name: "pid", T: types.Bigint}}
	op, err := NewStreamAggregateOp(keys, nil, boundAggs("COUNT"))
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	var out []outRow
	emit := collect(&out)
	in := tup(5, 1, int64(1), int64(10), int64(7))
	if err := process(op, emit, in); err != nil {
		t.Fatal(err)
	}
	// Re-delivery of the same offset must not change state or emit.
	if err := process(op, emit, in); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("replayed tuple emitted again: %d outputs", len(out))
	}
	if out[0].Row[1].(int64) != 1 {
		t.Fatalf("replayed tuple double-counted: %v", out[0].Row)
	}
}

func slidingSpec(fn string, frameMillis int64, rows int64, unbounded bool) *validate.BoundAnalytic {
	spec := &validate.BoundAnalytic{
		Fn:          fn,
		Arg:         &expr.ColRef{Idx: 1, Name: "units", T: types.Bigint},
		PartitionBy: []expr.Expr{&expr.ColRef{Idx: 2, Name: "pid", T: types.Bigint}},
		OrderBy:     &expr.ColRef{Idx: 0, Name: "ts", T: types.Timestamp},
		FrameMillis: frameMillis,
		FrameRows:   rows,
		IsRows:      rows > 0,
		Unbounded:   unbounded,
		T:           types.Bigint,
	}
	if fn == "COUNT" {
		spec.Arg = nil
	}
	return spec
}

func TestSlidingWindowRangeSum(t *testing.T) {
	op, err := NewSlidingWindowOp([]*validate.BoundAnalytic{slidingSpec("SUM", 1000, 0, false)})
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	var out []outRow
	emit := collect(&out)
	// Partition 7: ts/unit pairs.
	inputs := []struct{ ts, units int64 }{
		{100, 10}, {500, 20}, {900, 5}, {1600, 7}, {3000, 1},
	}
	want := []int64{10, 30, 35, 12, 1} // sums over [ts-1000, ts]
	for i, in := range inputs {
		if err := process(op, emit, tup(int64(i), in.ts, in.ts, in.units, int64(7))); err != nil {
			t.Fatal(err)
		}
	}
	if len(out) != 5 {
		t.Fatalf("%d outputs", len(out))
	}
	for i, o := range out {
		got := o.Row[3].(int64)
		if got != want[i] {
			t.Fatalf("row %d: window sum %d, want %d", i, got, want[i])
		}
	}
}

func TestSlidingWindowPartitionsIsolated(t *testing.T) {
	op, err := NewSlidingWindowOp([]*validate.BoundAnalytic{slidingSpec("SUM", 10000, 0, false)})
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	var out []outRow
	emit := collect(&out)
	if err := process(op, emit, tup(0, 100, int64(100), int64(10), int64(1))); err != nil {
		t.Fatal(err)
	}
	if err := process(op, emit, tup(1, 200, int64(200), int64(99), int64(2))); err != nil {
		t.Fatal(err)
	}
	if err := process(op, emit, tup(2, 300, int64(300), int64(5), int64(1))); err != nil {
		t.Fatal(err)
	}
	if out[2].Row[3].(int64) != 15 {
		t.Fatalf("partition 1 sum %v leaked partition 2's values", out[2].Row[3])
	}
}

func TestSlidingWindowRowsFrame(t *testing.T) {
	op, err := NewSlidingWindowOp([]*validate.BoundAnalytic{slidingSpec("SUM", 0, 2, false)})
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	var out []outRow
	emit := collect(&out)
	units := []int64{1, 2, 4, 8, 16}
	want := []int64{1, 3, 7, 14, 28} // current + 2 preceding
	for i, u := range units {
		if err := process(op, emit, tup(int64(i), int64(i*100), int64(i*100), u, int64(7))); err != nil {
			t.Fatal(err)
		}
	}
	for i := range units {
		if got := out[i].Row[3].(int64); got != want[i] {
			t.Fatalf("row %d: %d, want %d", i, got, want[i])
		}
	}
}

func TestSlidingWindowMinMaxRebuild(t *testing.T) {
	op, err := NewSlidingWindowOp([]*validate.BoundAnalytic{slidingSpec("MAX", 1000, 0, false)})
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	var out []outRow
	emit := collect(&out)
	inputs := []struct{ ts, units int64 }{
		{100, 50}, {500, 20}, {1400, 7}, // the 50 expires before ts=1400
	}
	want := []int64{50, 50, 20}
	for i, in := range inputs {
		if err := process(op, emit, tup(int64(i), in.ts, in.ts, in.units, int64(7))); err != nil {
			t.Fatal(err)
		}
	}
	for i := range inputs {
		if got := out[i].Row[3].(int64); got != want[i] {
			t.Fatalf("row %d: MAX %d, want %d", i, got, want[i])
		}
	}
}

func TestSlidingWindowUnbounded(t *testing.T) {
	op, err := NewSlidingWindowOp([]*validate.BoundAnalytic{slidingSpec("COUNT", 0, 0, true)})
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	var out []outRow
	emit := collect(&out)
	for i := 0; i < 5; i++ {
		if err := process(op, emit, tup(int64(i), int64(i), int64(i), int64(1), int64(7))); err != nil {
			t.Fatal(err)
		}
	}
	if got := out[4].Row[3].(int64); got != 5 {
		t.Fatalf("unbounded count %d, want 5", got)
	}
}

func TestSlidingWindowStateSurvivesRestore(t *testing.T) {
	// Same store instance across two operator incarnations simulates
	// changelog-restored state plus message replay.
	ctx := testCtx()
	spec := []*validate.BoundAnalytic{slidingSpec("SUM", 10000, 0, false)}
	op1, err := NewSlidingWindowOp(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := op1.Open(ctx); err != nil {
		t.Fatal(err)
	}
	var out []outRow
	emit := collect(&out)
	if err := process(op1, emit, tup(0, 100, int64(100), int64(10), int64(7))); err != nil {
		t.Fatal(err)
	}
	if err := process(op1, emit, tup(1, 200, int64(200), int64(20), int64(7))); err != nil {
		t.Fatal(err)
	}
	// "Crash", restart with restored store; offset 1 replays, then 2 new.
	op2, err := NewSlidingWindowOp(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := op2.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if err := process(op2, emit, tup(1, 200, int64(200), int64(20), int64(7))); err != nil {
		t.Fatal(err)
	}
	if err := process(op2, emit, tup(2, 300, int64(300), int64(5), int64(7))); err != nil {
		t.Fatal(err)
	}
	// Replayed offset 1 emits nothing; final sum = 10+20+5.
	if len(out) != 3 {
		t.Fatalf("%d outputs (replay not deduped)", len(out))
	}
	if got := out[2].Row[3].(int64); got != 35 {
		t.Fatalf("post-restore sum %d, want 35", got)
	}
}
