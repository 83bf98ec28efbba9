package executor

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/samza"
	"samzasql/internal/workload"
)

// equivCase is one query shape the block pipeline must execute exactly as
// the oracle (oracle_test.go) says: layout names the output columns' wire
// types for the oracle's decoder, and oracle computes the expected output
// stream from the deterministic Orders replay. Its length also tells every
// run when it is complete instead of guessing at idle timeouts.
type equivCase struct {
	name   string
	query  string
	layout string
	oracle func(orders [][]any) []oracleRow
}

var equivCases = []equivCase{
	{
		name:   "filter",
		query:  "SELECT STREAM * FROM Orders WHERE units > 50",
		layout: "lllls",
		oracle: filterOracle,
	},
	{
		name:   "project",
		query:  "SELECT STREAM rowtime, productId, units FROM Orders",
		layout: "lll",
		oracle: projectOracle,
	},
	{
		name:   "computed-scalar",
		query:  "SELECT STREAM productId, units * 2 + 1 FROM Orders WHERE units > 10",
		layout: "ll",
		oracle: computedOracle,
	},
	{
		name: "window",
		query: `SELECT STREAM rowtime, orderId, productId, units,
		  SUM(units) OVER (PARTITION BY productId ORDER BY rowtime
		    RANGE INTERVAL '10' SECOND PRECEDING) s
		FROM Orders`,
		layout: "lllll",
		oracle: slidingSumOracle,
	},
	{
		name: "join",
		query: `SELECT STREAM Orders.rowtime, Orders.orderId, Orders.productId,
		  Orders.units, Products.supplierId
		FROM Orders JOIN Products ON Orders.productId = Products.productId`,
		layout: "lllll",
		oracle: joinOracle,
	},
	{
		name:   "aggregate-grouped",
		query:  "SELECT STREAM productId, COUNT(*), SUM(units) FROM Orders GROUP BY productId",
		layout: "lll",
		oracle: groupedOracle,
	},
	{
		name: "aggregate-tumble",
		query: `SELECT STREAM START(rowtime), END(rowtime), COUNT(*), SUM(units)
		FROM Orders GROUP BY TUMBLE(rowtime, INTERVAL '1' SECOND)`,
		layout: "llll",
		oracle: tumbleOracle,
	},
}

// equivBatchSizes is the spread of block sizes every equivalence test
// runs: one message per block, a prime that leaves a partial final batch,
// the default 256, and two seeded random sizes.
func equivBatchSizes() []int {
	rng := rand.New(rand.NewSource(0x5eed))
	return []int{1, 7, 256, 2 + rng.Intn(96), 2 + rng.Intn(96)}
}

// runWithBatchSize executes the query as a streaming job with the given
// delivery granularity and returns the complete output topic contents once
// the expected row count has landed (plus a short grace window so trailing
// duplicates would be caught), together with the folded changelog state.
func runWithBatchSize(t *testing.T, query string, partitions int32, orders, batchSize, want int) ([]kafka.Message, []string) {
	t.Helper()
	e, _ := testEngine(t, partitions, orders)
	return runOnEngine(t, e, query, batchSize, want)
}

// runOnEngine is runWithBatchSize over a pre-built engine (scenarios with
// their own catalog and data, e.g. the repartitioned Clicks join). The job
// is stopped before the changelog digest is taken, so buffered state writes
// have flushed.
func runOnEngine(t *testing.T, e *Engine, query string, batchSize, want int) ([]kafka.Message, []string) {
	t.Helper()
	e.BatchSize = batchSize
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, rj, err := e.ExecuteStream(ctx, query)
	if err != nil {
		t.Fatalf("batch=%d: %v", batchSize, err)
	}
	defer rj.Stop()
	waitForCount(t, 15*time.Second, func() int {
		return len(drainNew(t, e.Broker, p.OutputTopic))
	}, want, fmt.Sprintf("batch=%d output", batchSize))
	time.Sleep(50 * time.Millisecond)
	out := drainNew(t, e.Broker, p.OutputTopic)
	if len(out) != want {
		t.Fatalf("batch=%d: %d output rows, want %d (duplicates or stragglers)", batchSize, len(out), want)
	}
	rj.Stop()
	return out, changelogDigest(t, e.Broker)
}

// changelogDigest folds every changelog topic last-write-wins per (topic,
// partition, key) — an empty value is a tombstone — so two runs that leave
// identical durable state produce identical digests no matter how many
// intermediate versions each wrote. The block path writes state once per
// key per block, so block sizes differ in how many versions they write;
// equality here proves the write-back converges to the same store contents
// a replay would restore at every block size.
func changelogDigest(t *testing.T, b *kafka.Broker) []string {
	t.Helper()
	state := map[string]string{}
	for _, topic := range b.Topics() {
		if !strings.Contains(topic, "-changelog") {
			continue
		}
		nParts, err := b.Partitions(topic)
		if err != nil {
			t.Fatal(err)
		}
		for part := int32(0); part < nParts; part++ {
			tp := kafka.TopicPartition{Topic: topic, Partition: part}
			hwm, err := b.HighWatermark(tp)
			if err != nil {
				t.Fatal(err)
			}
			off, err := b.StartOffset(tp)
			if err != nil {
				t.Fatal(err)
			}
			for off < hwm {
				msgs, wait, err := b.Fetch(tp, off, 512)
				if err != nil {
					t.Fatal(err)
				}
				if wait != nil {
					break
				}
				for _, m := range msgs {
					id := fmt.Sprintf("%s p%d k=%x", topic, part, m.Key)
					if len(m.Value) == 0 {
						delete(state, id)
					} else {
						state[id] = fmt.Sprintf("%s v=%x", id, m.Value)
					}
				}
				off = msgs[len(msgs)-1].Offset + 1
			}
		}
	}
	out := make([]string, 0, len(state))
	for _, v := range state {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// digest renders each output message — partition, offset, key, value bytes
// and timestamp — so runs can be compared exactly: equal sorted digests mean
// identical per-partition sequences, offsets included.
func digest(msgs []kafka.Message) []string {
	out := make([]string, 0, len(msgs))
	for _, m := range msgs {
		out = append(out, fmt.Sprintf("p%d@%d k=%x ts=%d v=%x", m.Partition, m.Offset, m.Key, m.Timestamp, m.Value))
	}
	sort.Strings(out)
	return out
}

func diffDigests(t *testing.T, label string, ref, got []string) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: %d rows vs the first block size's %d", label, len(got), len(ref))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("%s: output diverges from the first block size's at sorted row %d:\n  first: %s\n  this:  %s", label, i, ref[i], got[i])
		}
	}
}

// TestBatchScalarEquivalence replays every query shape at a spread of block
// sizes and checks each run against the oracle: values and timestamps, in
// order. With a single input partition the task processes a deterministic
// sequence, so the runs must also agree with each other byte for byte —
// outputs, offsets, timestamps and changelog state.
func TestBatchScalarEquivalence(t *testing.T) {
	const orders = 457 // not divisible by any tested batch size > 1
	replayed := replayOrders(t, orders)
	for _, c := range equivCases {
		t.Run(c.name, func(t *testing.T) {
			want := c.oracle(replayed)
			var refOut, refState []string
			for i, bs := range equivBatchSizes() {
				label := fmt.Sprintf("%s batch=%d", c.name, bs)
				gotOut, gotState := runWithBatchSize(t, c.query, 1, orders, bs, len(want))
				checkOracleInOrder(t, label, c.layout, gotOut, want)
				if i == 0 {
					refOut, refState = digest(gotOut), gotState
					continue
				}
				diffDigests(t, label, refOut, digest(gotOut))
				diffDigests(t, label+" state", refState, gotState)
			}
		})
	}
}

// TestBatchScalarEquivalenceRepartition covers the re-keying stage's batched
// path plus the stream-relation join fed by the intermediate topic: the
// Clicks scenario is published keyed by userId but joins on productId, so
// every run routes through RepartitionTask. With a single partition the
// whole dataflow is a deterministic sequence, so every run must match the
// oracle in order, and outputs, offsets and changelog state must match
// across block sizes byte for byte.
func TestBatchScalarEquivalenceRepartition(t *testing.T) {
	const clicks = 300
	want := clicksJoinOracle(clicks)
	var refOut, refState []string
	for i, bs := range equivBatchSizes() {
		label := fmt.Sprintf("repartition batch=%d", bs)
		e := clicksEngine(t, 1)
		produceClicks(t, e, clicks)
		gotOut, gotState := runOnEngine(t, e, clicksJoin, bs, len(want))
		checkOracleInOrder(t, label, "llll", gotOut, want)
		if i == 0 {
			refOut, refState = digest(gotOut), gotState
			continue
		}
		diffDigests(t, label, refOut, digest(gotOut))
		diffDigests(t, label+" state", refState, gotState)
	}
}

// TestBatchScalarEquivalenceMultiPartition re-checks the filter and
// projection kernels with several input partitions. Task interleaving makes
// cross-partition output order nondeterministic, so each run must match the
// oracle as a multiset, and the runs' (key, value) multisets must agree.
func TestBatchScalarEquivalenceMultiPartition(t *testing.T) {
	const orders = 311
	replayed := replayOrders(t, orders)
	values := func(msgs []kafka.Message) []string {
		out := make([]string, 0, len(msgs))
		for _, m := range msgs {
			out = append(out, fmt.Sprintf("k=%x v=%x", m.Key, m.Value))
		}
		sort.Strings(out)
		return out
	}
	for _, c := range equivCases[:3] {
		t.Run(c.name, func(t *testing.T) {
			want := c.oracle(replayed)
			var ref []string
			for i, bs := range equivBatchSizes() {
				label := fmt.Sprintf("%s batch=%d", c.name, bs)
				gotOut, _ := runWithBatchSize(t, c.query, 3, orders, bs, len(want))
				checkOracleMultiset(t, label, c.layout, gotOut, want)
				if i == 0 {
					ref = values(gotOut)
					continue
				}
				diffDigests(t, label, ref, values(gotOut))
			}
		})
	}
}

// nullBatchCollector extends the alloc-benchmark collector with the batched
// sink so the block path binds SendBatch instead of per-row Send.
type nullBatchCollector struct {
	nullCollector
	batches int
	rows    int
}

func (c *nullBatchCollector) SendBatch(stream string, msgs []kafka.Message) error {
	c.batches++
	c.rows += len(msgs)
	return nil
}

// setupBatchFilterTask initializes a filter task (initFilterTask) over a
// BatchCollector and pre-encodes a whole block of Orders envelopes.
func setupBatchFilterTask(tb testing.TB, n int) (*Task, *nullBatchCollector, []samza.IncomingMessageEnvelope) {
	tb.Helper()
	coll := &nullBatchCollector{}
	task := initFilterTask(tb, coll, nil)
	gen := workload.NewOrdersGen(workload.DefaultOrdersConfig())
	envs := make([]samza.IncomingMessageEnvelope, n)
	for i := range envs {
		row, key, value, err := gen.Next()
		if err != nil {
			tb.Fatal(err)
		}
		envs[i] = samza.IncomingMessageEnvelope{
			Stream: "orders", Partition: 0, Offset: int64(i),
			Key: key, Value: value, Timestamp: row[0].(int64),
		}
	}
	return task, coll, envs
}

// TestFilterBlockZeroAllocs pins the block path's exact allocations for a
// whole 64-message block through Task.ProcessBatch once the scratch buffers
// are warm (AllocsPerRun runs the body once before measuring): the scan's
// per-row value boxing (filterPaths' miss count per message) plus one output
// slab for the block. (The name dates from the fused kernel this test used
// to pin at zero.)
func TestFilterBlockZeroAllocs(t *testing.T) {
	const block, want = 64, 193
	task, coll, envs := setupBatchFilterTask(t, block)
	allocs := testing.AllocsPerRun(500, func() {
		if err := task.ProcessBatch(envs, coll, nil, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != want {
		t.Errorf("block path: %.1f allocs per %d-message block, want %d", allocs, block, want)
	}
	if coll.batches == 0 || coll.rows == 0 {
		t.Fatalf("block path never reached the batch collector (batches=%d rows=%d)", coll.batches, coll.rows)
	}
}

// BenchmarkFilterBlockProcess measures the per-block cost of a filter query
// through Task.ProcessBatch, excluding broker I/O; divide by
// the block size for the per-message cost comparable to
// BenchmarkFilterMessageProcess.
func BenchmarkFilterBlockProcess(b *testing.B) {
	const block = 256
	task, coll, envs := setupBatchFilterTask(b, block)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := task.ProcessBatch(envs, coll, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}
