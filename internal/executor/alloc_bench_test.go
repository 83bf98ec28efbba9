package executor

import (
	"testing"

	"samzasql/internal/metrics"
	"samzasql/internal/samza"
	"samzasql/internal/sql/catalog"
	"samzasql/internal/trace"
	"samzasql/internal/workload"
	"samzasql/internal/zk"
)

// nullCollector counts sends without touching a broker, so the benchmarks
// below measure only the task's own per-message machinery.
type nullCollector struct{ sent int }

func (c *nullCollector) Send(samza.OutgoingMessageEnvelope) error {
	c.sent++
	return nil
}

// initFilterTask initializes a SamzaSQL filter task for
// `SELECT STREAM * FROM Orders WHERE units > 50` exactly as a container
// would: collector (and the tracing cursor act, when non-nil) bound in the
// TaskContext before Init.
func initFilterTask(tb testing.TB, coll samza.MessageCollector, act *trace.Active) *Task {
	tb.Helper()
	cat := catalog.New()
	if err := workload.DefineCatalog(cat); err != nil {
		tb.Fatal(err)
	}
	zkStore := zk.NewStore()
	const queryPath = "/samzasql/queries/bench-filter"
	if err := zkStore.CreateRecursive(queryPath, []byte("SELECT STREAM * FROM Orders WHERE units > 50")); err != nil {
		tb.Fatal(err)
	}
	ctx := &samza.TaskContext{
		Task:      samza.TaskNameFor(0),
		Partition: 0,
		Metrics:   metrics.NewRegistry(),
		Trace:     act,
		Config: map[string]string{
			"samzasql.zk.query.path": queryPath,
			"samzasql.output.topic":  "bench-out",
		},
		Collector: coll,
	}
	task := NewTask(cat, zkStore, true)
	if err := task.Init(ctx); err != nil {
		tb.Fatal(err)
	}
	return task
}

// setupFilterTask initializes a filter task (initFilterTask) over a
// per-row collector and returns pre-encoded Orders envelopes that fail and
// pass the predicate.
func setupFilterTask(tb testing.TB, act *trace.Active) (*Task, *nullCollector, samza.IncomingMessageEnvelope, samza.IncomingMessageEnvelope) {
	tb.Helper()
	coll := &nullCollector{}
	task := initFilterTask(tb, coll, act)

	gen := workload.NewOrdersGen(workload.DefaultOrdersConfig())
	var miss, hit samza.IncomingMessageEnvelope
	haveMiss, haveHit := false, false
	for i := 0; !haveMiss || !haveHit; i++ {
		if i > 10_000 {
			tb.Fatal("generator never produced both predicate outcomes")
		}
		row, key, value, err := gen.Next()
		if err != nil {
			tb.Fatal(err)
		}
		env := samza.IncomingMessageEnvelope{
			Stream: "orders", Partition: 0, Offset: int64(i),
			Key: key, Value: value, Timestamp: row[0].(int64),
		}
		if units := row[3].(int64); units > 50 && !haveHit {
			hit, haveHit = env, true
		} else if units <= 50 && !haveMiss {
			miss, haveMiss = env, true
		}
	}
	return task, coll, miss, hit
}

// filterPaths are the per-message paths of the filter task, measured in
// this order so that miss-after-hit runs with the insert's slab size hint
// raised by the hit. want is the exact allocation count per message. The
// scan's DecodeBlock makes three: the pad string's bytes, its []any box,
// and the rowtime's box (these messages' other longs are under 256, which
// Go boxes without allocating). A hit adds the insert's output slab; a miss
// allocates no slab, even after a hit.
var filterPaths = []struct {
	name string
	hit  bool
	want float64
}{
	{"miss", false, 3},
	{"hit", true, 4},
	{"miss-after-hit", false, 3},
}

// filterPathAllocs measures Task.Process allocations per message on each
// of filterPaths, in order.
func filterPathAllocs(t *testing.T, task *Task, miss, hit samza.IncomingMessageEnvelope) []float64 {
	t.Helper()
	got := make([]float64, len(filterPaths))
	for i, p := range filterPaths {
		env := miss
		if p.hit {
			env = hit
		}
		got[i] = testing.AllocsPerRun(1000, func() {
			if err := task.Process(env, task.bound, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	return got
}

// checkFilterPathAllocs asserts that got holds exactly filterPaths' counts.
func checkFilterPathAllocs(t *testing.T, got []float64) {
	t.Helper()
	for i, p := range filterPaths {
		if got[i] != p.want {
			t.Errorf("%s path: %.1f allocs per message, want %.0f", p.name, got[i], p.want)
		}
	}
}

// checkNoAddedAllocs asserts that the filter task with telemetry attached
// (with) allocates nothing more on any path than without it (base).
func checkNoAddedAllocs(t *testing.T, telemetry string, base, with []float64) {
	t.Helper()
	for i, p := range filterPaths {
		if with[i] != base[i] {
			t.Errorf("%s path with %s: %.1f allocs per message, %.1f without it", p.name, telemetry, with[i], base[i])
		}
	}
}

// TestFilterProcessZeroAllocs pins the block path's exact per-message
// allocations for a filter query run one message at a time through
// Task.Process, with the sender bound once at Init. (The name dates from the
// fused kernel this test used to pin at zero.)
func TestFilterProcessZeroAllocs(t *testing.T) {
	task, coll, miss, hit := setupFilterTask(t, nil)
	checkFilterPathAllocs(t, filterPathAllocs(t, task, miss, hit))
	if coll.sent == 0 {
		t.Fatal("hit path never reached the collector")
	}
}

// BenchmarkFilterMessageProcess measures the full per-message cost of a
// filter query through Task.Process (a one-row block), excluding broker I/O.
func BenchmarkFilterMessageProcess(b *testing.B) {
	for _, c := range []struct {
		name string
		pick func(miss, hit samza.IncomingMessageEnvelope) samza.IncomingMessageEnvelope
	}{
		{"filtered-out", func(miss, _ samza.IncomingMessageEnvelope) samza.IncomingMessageEnvelope { return miss }},
		{"forwarded", func(_, hit samza.IncomingMessageEnvelope) samza.IncomingMessageEnvelope { return hit }},
	} {
		b.Run(c.name, func(b *testing.B) {
			task, _, miss, hit := setupFilterTask(b, nil)
			env := c.pick(miss, hit)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := task.Process(env, task.bound, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
