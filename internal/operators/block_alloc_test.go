package operators

import (
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
// per-row allocation cost. Unlike the stateless filter kernel this path can
// never hit zero — every fresh tuple persists a message contribution (the
// skiplist copies key and value) and boxes its aggregate output — but the
// clustering design bounds the per-row count by a small constant independent
// of block size: state loads, decodes and write-backs are paid per distinct
// key per block, not per row. The budget has headroom over the measured
// value (~5.4).
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
	const budget = 10.0
	if perRow > budget {
		t.Errorf("vectorized sliding window: %.2f allocs/row (%.0f per %d-row block), budget %.0f",
			perRow, allocs, block, budget)
	}
}
