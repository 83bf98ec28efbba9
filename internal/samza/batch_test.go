package samza

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"samzasql/internal/kafka"
)

// batchRecordingTask implements both StreamTask and BatchedStreamTask,
// recording which entry point the container used and the offsets of every
// delivered batch, and forwarding input through the batched collector sink.
type batchRecordingTask struct {
	mu      *sync.Mutex
	batches *[][]int64 // offsets of each delivered batch, in order
	scalar  *atomic.Int64
	out     string
}

func (t *batchRecordingTask) Init(ctx *TaskContext) error { return nil }

func (t *batchRecordingTask) Process(env IncomingMessageEnvelope, c MessageCollector, _ Coordinator) error {
	t.scalar.Add(1)
	return c.Send(OutgoingMessageEnvelope{
		Stream: t.out, Partition: env.Partition,
		Key: env.Key, Value: env.Value, Timestamp: env.Timestamp,
	})
}

func (t *batchRecordingTask) ProcessBatch(envs []IncomingMessageEnvelope, c MessageCollector, _ Coordinator, pollNs int64) error {
	offs := make([]int64, len(envs))
	msgs := make([]kafka.Message, len(envs))
	for i, env := range envs {
		offs[i] = env.Offset
		msgs[i] = kafka.Message{
			Topic: t.out, Partition: env.Partition,
			Key: env.Key, Value: env.Value, Timestamp: env.Timestamp,
		}
	}
	t.mu.Lock()
	*t.batches = append(*t.batches, offs)
	t.mu.Unlock()
	bc, ok := c.(BatchCollector)
	if !ok {
		return fmt.Errorf("container collector %T does not implement BatchCollector", c)
	}
	return bc.SendBatch(t.out, msgs)
}

// runBatchJob submits a single-partition job with the given BatchSize over
// n preloaded messages, waits for full passthrough, and returns the
// recorded batch offsets and scalar-delivery count.
func runBatchJob(t *testing.T, batchSize, n int) ([][]int64, int64) {
	t.Helper()
	b, r := testEnv()
	for _, topic := range []string{"in", "out"} {
		if err := b.CreateTopic(topic, kafka.TopicConfig{Partitions: 1}); err != nil {
			t.Fatal(err)
		}
	}
	produceN(t, b, "in", 0, n, "m")
	var mu sync.Mutex
	var batches [][]int64
	var scalar atomic.Int64
	job := &JobSpec{
		Name:       "batch-delivery",
		Inputs:     []StreamSpec{{Topic: "in"}},
		Containers: 1,
		BatchSize:  batchSize,
		TaskFactory: func() StreamTask {
			return &batchRecordingTask{mu: &mu, batches: &batches, scalar: &scalar, out: "out"}
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rj, err := r.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return len(drainTopic(t, b, "out")) == n
	}, fmt.Sprintf("%d output messages", n))
	rj.Stop()
	if got := len(drainTopic(t, b, "out")); got != n {
		t.Fatalf("%d output messages, want %d", got, n)
	}
	snap := rj.MetricsSnapshot()
	if snap.Counters["messages-processed"] != int64(n) || snap.Counters["messages-sent"] != int64(n) {
		t.Fatalf("metrics after batch run: %v", snap.Counters)
	}
	mu.Lock()
	defer mu.Unlock()
	return batches, scalar.Load()
}

// flatten checks the recorded batches cover offsets 0..n-1 in order —
// batch delivery must not reorder, skip or replay messages.
func flattenBatches(t *testing.T, batches [][]int64, n int) {
	t.Helper()
	var next int64
	for _, offs := range batches {
		if len(offs) == 0 {
			t.Fatal("container delivered an empty batch")
		}
		for _, o := range offs {
			if o != next {
				t.Fatalf("batch offsets out of order: got %d, want %d (batches %v)", o, next, batches)
			}
			next++
		}
	}
	if next != int64(n) {
		t.Fatalf("batches covered %d offsets, want %d", next, n)
	}
}

// TestBatchedTaskReceivesBlocks verifies the default vectorized delivery: a
// BatchedStreamTask gets whole multi-message batches through ProcessBatch
// (never per-message Process), covering every offset exactly once, with the
// batched collector sink wired.
func TestBatchedTaskReceivesBlocks(t *testing.T) {
	const n = 300
	batches, scalar := runBatchJob(t, 0, n)
	if scalar != 0 {
		t.Fatalf("scalar Process ran %d times for a batched task", scalar)
	}
	flattenBatches(t, batches, n)
	multi := 0
	for _, offs := range batches {
		if len(offs) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatalf("no batch held more than one message across %d batches — delivery is not vectorized", len(batches))
	}
}

// TestBootstrapDeliversBatches checks that a batched task's bootstrap
// input arrives through ProcessBatch too, one call per bootstrap fetch of up
// to 512 messages, in offset order and before any stream input.
func TestBootstrapDeliversBatches(t *testing.T) {
	const rel, str = 700, 30
	b, r := testEnv()
	for _, topic := range []string{"relation", "stream", "out"} {
		if err := b.CreateTopic(topic, kafka.TopicConfig{Partitions: 1}); err != nil {
			t.Fatal(err)
		}
	}
	produceN(t, b, "relation", 0, rel, "rel")
	produceN(t, b, "stream", 0, str, "str")
	var mu sync.Mutex
	var batches [][]int64
	var scalar atomic.Int64
	job := &JobSpec{
		Name:   "bootstrap-batches",
		Inputs: []StreamSpec{{Topic: "stream"}, {Topic: "relation", Bootstrap: true}},
		TaskFactory: func() StreamTask {
			return &batchRecordingTask{mu: &mu, batches: &batches, scalar: &scalar, out: "out"}
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rj, err := r.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return len(drainTopic(t, b, "out")) == rel+str
	}, fmt.Sprintf("%d output messages", rel+str))
	rj.Stop()
	if scalar.Load() != 0 {
		t.Fatalf("scalar Process ran %d times for a batched task", scalar.Load())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(batches) < 2 || len(batches[0]) != 512 || len(batches[1]) != rel-512 {
		t.Fatalf("bootstrap batches of %d messages, want 512 then %d", batchLens(batches), rel-512)
	}
	flattenBatches(t, batches[:2], rel)
	flattenBatches(t, batches[2:], str)
}

func batchLens(batches [][]int64) []int {
	out := make([]int, len(batches))
	for i, b := range batches {
		out[i] = len(b)
	}
	return out
}

// TestBatchSizeOneDeliversSingleRowBlocks checks the boundary granularity:
// BatchSize = 1 still uses the batched entry point, one message per block.
func TestBatchSizeOneDeliversSingleRowBlocks(t *testing.T) {
	const n = 40
	batches, scalar := runBatchJob(t, 1, n)
	if scalar != 0 {
		t.Fatalf("scalar Process ran %d times for a batched task", scalar)
	}
	for _, offs := range batches {
		if len(offs) != 1 {
			t.Fatalf("batch of %d messages with BatchSize=1", len(offs))
		}
	}
	flattenBatches(t, batches, n)
}
