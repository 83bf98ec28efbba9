package executor

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"
)

// TestFastPathMatchesNormalPath verifies the §7 fast-path mode produces the
// same result rows as the block pipeline for the queries it accelerates,
// in bounded execution. It compares decoded rows, not bytes: the identity
// and extent modes forward the input's non-nullable encoding, while the
// block pipeline encodes every output field as nullable.
func TestFastPathMatchesNormalPath(t *testing.T) {
	queries := []string{
		"SELECT * FROM Orders WHERE units > 50",
		"SELECT rowtime, productId, units FROM Orders",
		"SELECT rowtime, units FROM Orders WHERE units > 25 AND productId < 50",
		"SELECT * FROM Orders",         // identity, no filter
		"SELECT units * 2 FROM Orders", // computed projection: compiled kernel
		"SELECT productId, units * 2 FROM Orders WHERE units > 10",
	}
	for _, q := range queries {
		normalEngine, _ := testEngine(t, 4, 500)
		normalEngine.FastPath = false
		normal, err := normalEngine.ExecuteBounded(q)
		if err != nil {
			t.Fatalf("normal %q: %v", q, err)
		}
		fastEngine, _ := testEngine(t, 4, 500)
		fastEngine.FastPath = true
		p, err := fastEngine.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Program.FastPath() {
			t.Fatalf("query %q did not take the fast path", q)
		}
		fast, err := fastEngine.RunBounded(p)
		if err != nil {
			t.Fatalf("fast %q: %v", q, err)
		}
		if len(fast) != len(normal) {
			t.Fatalf("%q: fast %d rows, normal %d rows", q, len(fast), len(normal))
		}
		sortRows(normal)
		sortRows(fast)
		for i := range normal {
			if fmt.Sprintf("%v", normal[i]) != fmt.Sprintf("%v", fast[i]) {
				t.Fatalf("%q row %d: normal %v, fast %v", q, i, normal[i], fast[i])
			}
		}
	}
}

func sortRows(rows [][]any) {
	sort.Slice(rows, func(i, j int) bool {
		return fmt.Sprintf("%v", rows[i]) < fmt.Sprintf("%v", rows[j])
	})
}

// TestFastPathIneligibleQueriesFallBack checks that plans the fast path
// cannot serve still compile through the general router.
func TestFastPathIneligibleQueriesFallBack(t *testing.T) {
	e, _ := testEngine(t, 1, 10)
	e.FastPath = true
	for _, q := range []string{
		"SELECT productId, COUNT(*) FROM Orders GROUP BY productId", // aggregate
		"SELECT Orders.rowtime FROM Orders JOIN Products ON Orders.productId = Products.productId",
	} {
		p, err := e.Prepare(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if p.Program.FastPath() {
			t.Fatalf("%q wrongly took the fast path", q)
		}
		if _, err := e.RunBounded(p); err != nil {
			t.Fatalf("%q fallback execution: %v", q, err)
		}
	}
}

// TestFastPathStreamingJob runs the fast path as a real Samza job end to
// end, including the task-side re-plan reading the fastpath flag from the
// job configuration.
func TestFastPathStreamingJob(t *testing.T) {
	e, _ := testEngine(t, 4, 1000)
	e.FastPath = true
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, rj, err := e.ExecuteStream(ctx, "SELECT STREAM * FROM Orders WHERE units > 50")
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range replayOrders(t, 1000) {
		if r[3].(int64) > 50 {
			want++
		}
	}
	waitForCount(t, 10*time.Second, func() int {
		return len(drainNew(t, e.Broker, p.OutputTopic))
	}, want, "fast-path filtered output")
	rj.Stop()

	out := drainNew(t, e.Broker, p.OutputTopic)
	if len(out) != want {
		t.Fatalf("%d outputs, want %d", len(out), want)
	}
	// Identity fast path forwards the original 100-byte message bytes.
	for _, m := range out[:5] {
		row, err := p.Program.OutputCodec.DecodeRow(m.Value, nil)
		if err != nil {
			t.Fatal(err)
		}
		if row[3].(int64) <= 50 {
			t.Fatalf("row %v fails predicate", row)
		}
		if len(m.Value) < 90 {
			t.Fatalf("forwarded message shrunk to %d bytes; not the original encoding", len(m.Value))
		}
	}
}
