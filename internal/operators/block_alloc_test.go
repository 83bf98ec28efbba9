package operators

import (
	"fmt"
	"testing"

	"samzasql/internal/kv"
	"samzasql/internal/metrics"
	"samzasql/internal/sql/validate"
)

// fillWindowBlock loads b with n rows [ts, units, pid]: timestamps advance
// stepMillis per row from baseTs, offsets from baseOff, and partition ids
// cycle in runs of runLen so the block path's adjacent-key run detection
// engages alongside the memo.
func fillWindowBlock(b *TupleBlock, n, parts, runLen int, baseTs, baseOff int64, stepMillis int64) {
	b.Reset("in", 0, n)
	b.sizeCols(3, n)
	for r := 0; r < n; r++ {
		ts := baseTs + int64(r)*stepMillis
		b.Cols[0][r] = ts
		b.Cols[1][r] = int64(r%13 + 1)
		b.Cols[2][r] = int64((r / runLen) % parts)
		b.Ts = append(b.Ts, ts)
		b.Keys = append(b.Keys, nil)
		b.Offsets = append(b.Offsets, baseOff+int64(r))
	}
	b.SelAll()
}

// TestSlidingWindowBlockAllocBudget pins the vectorized sliding window's
// per-row allocation cost. It cannot reach zero: each fresh tuple boxes
// its aggregate output and its applied offset. No contribution is persisted per row any more — a key's
// contributions are written as 16-record pages, once per page filled and
// once per block for the partial tail page, and with the cache the live
// set stays resident — so state loads, page writes and write-backs are
// paid per distinct key per block, not per row. The budget is the measured
// value (2.45) plus 0.55 of headroom.
func TestSlidingWindowBlockAllocBudget(t *testing.T) {
	op, err := NewSlidingWindowOp([]*validate.BoundAnalytic{slidingSpec("SUM", 1000, 0, false)})
	if err != nil {
		t.Fatal(err)
	}
	// The production perf configuration: an object-caching store, so window
	// states stay resident as decoded objects between blocks.
	cached := kv.NewCachedStore(kv.NewStore(), 1<<12, 0)
	ctx := &OpContext{
		Store:   func(string) kv.Store { return cached },
		Metrics: metrics.NewRegistry(),
	}
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	const (
		block = 256
		parts = 4
	)
	b := &TupleBlock{}
	emit := func(*TupleBlock) error { return nil }
	ts := int64(1_600_000_000_000)
	off := int64(0)
	runBlock := func() {
		// Fresh timestamps and offsets per run: replay detection must see
		// new tuples, and advancing time keeps the RANGE purge live.
		fillWindowBlock(b, block, parts, 16, ts, off, 10)
		ts += block * 10
		off += block
		if err := op.ProcessBlock(0, b, emit); err != nil {
			t.Fatal(err)
		}
	}
	runBlock() // warm the scratch arenas and resident states
	allocs := testing.AllocsPerRun(50, runBlock)
	perRow := allocs / block
	t.Logf("vectorized sliding window: %.2f allocs/row (%.0f per %d-row block)", perRow, allocs, block)
	const budget = 3.0
	if perRow > budget {
		t.Errorf("vectorized sliding window: %.2f allocs/row (%.0f per %d-row block), budget %.1f",
			perRow, allocs, block, budget)
	}
}

// TestSlidingWindowUncachedAllocBudget pins the window's per-row
// allocation cost without the store cache, where every block loads each of
// its keys from the store: the 's' row decode plus a replay of the key's
// pages into the live set. Released states go back to the operator's spare
// list, so a load refills the buffers of an earlier state instead of
// growing new ones. One-row blocks pay a load per row; 256-row blocks over
// 4 keys pay it once per key per block. The budgets are the measured
// values (53 and 2.95) plus at most 1 alloc/row of headroom; without the
// spare list they read 64 and 3.27.
func TestSlidingWindowUncachedAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		block  int
		budget float64
	}{{1, 54}, {256, 3.2}} {
		t.Run(fmt.Sprintf("block=%d", tc.block), func(t *testing.T) {
			op, err := NewSlidingWindowOp([]*validate.BoundAnalytic{slidingSpec("SUM", 1000, 0, false)})
			if err != nil {
				t.Fatal(err)
			}
			store := kv.NewStore()
			if err := op.Open(&OpContext{Store: func(string) kv.Store { return store }, Metrics: metrics.NewRegistry()}); err != nil {
				t.Fatal(err)
			}
			const warm, runs = 1024, 50
			rows := make([]winRow, warm+(runs+1)*tc.block)
			for i := range rows {
				// 4 keys of 25 live contributions each once the frame fills.
				rows[i] = winRow{ts: 1_600_000_000_000 + int64(i)*10, units: int64(i%13 + 1), pid: int64(i % 4)}
			}
			b := &TupleBlock{}
			emit := func(*TupleBlock) error { return nil }
			from := 0
			runBlock := func() {
				fillRows(b, rows, from, from+tc.block)
				from += tc.block
				if err := op.ProcessBlock(0, b, emit); err != nil {
					t.Fatal(err)
				}
			}
			for from < warm {
				runBlock()
			}
			perRow := testing.AllocsPerRun(runs, runBlock) / float64(tc.block)
			t.Logf("uncached sliding window, %d-row blocks: %.2f allocs/row", tc.block, perRow)
			if perRow > tc.budget {
				t.Errorf("uncached sliding window, %d-row blocks: %.2f allocs/row, budget %.1f", tc.block, perRow, tc.budget)
			}
		})
	}
}
