package executor

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"samzasql/internal/kafka"
	"samzasql/internal/metrics"
	"samzasql/internal/samza"
	"samzasql/internal/sql/physical"
	"samzasql/internal/yarn"
)

// RepartitionTask is the Samza task of a re-keying stage (§7 future work
// 1): it reads the join-key column straight from each message's wire bytes
// (never materializing the tuple) and forwards the message unchanged to the
// intermediate topic, keyed so the broker's partitioner co-locates join
// keys. Ordering is preserved per source partition only — the caveat the
// paper flags for order-sensitive downstream queries.
type RepartitionTask struct {
	Spec *physical.RepartitionSpec
	// Partitions is the target topic's partition count, letting the
	// vectorized path group a batch by destination partition. Zero (unknown)
	// keeps batches unsplit with broker-side key hashing.
	Partitions int32

	// perPart is the per-destination message grouping reused across batches.
	perPart [][]kafka.Message
}

// Init implements samza.StreamTask.
func (t *RepartitionTask) Init(*samza.TaskContext) error { return nil }

// Process implements samza.StreamTask.
func (t *RepartitionTask) Process(env samza.IncomingMessageEnvelope, c samza.MessageCollector, _ samza.Coordinator) error {
	keyVal, err := t.Spec.Codec.ReadField(env.Value, t.Spec.KeyCol)
	if err != nil {
		return fmt.Errorf("executor: repartition key read: %w", err)
	}
	return c.Send(samza.OutgoingMessageEnvelope{
		Stream:    t.Spec.TargetTopic,
		Partition: -1, // broker partitions by the new key
		Key:       repartitionKey(keyVal),
		Value:     env.Value,
		Timestamp: env.Timestamp,
	})
}

// repartitionKey renders the re-keying value as bytes: the same text
// fmt.Sprintf("%v") produces (the broker hashes these bytes, so both paths
// must agree), with the common scalar types formatted via strconv to keep
// reflection out of the batched path.
func repartitionKey(v any) []byte {
	switch x := v.(type) {
	case int64:
		return strconv.AppendInt(nil, x, 10)
	case string:
		return []byte(x)
	case float64:
		return strconv.AppendFloat(nil, x, 'g', -1, 64)
	case bool:
		return strconv.AppendBool(nil, x)
	}
	return []byte(fmt.Sprintf("%v", v))
}

// ProcessBatch implements samza.BatchedStreamTask: the whole polled batch is
// re-keyed in one pass and routed by destination partition — the messages
// bound for each target partition flush through one SendBatch call (the
// same FNV key hash the broker applies, so content and per-partition order
// are identical to per-message Process). Collectors without a batched side, or
// an unknown partition count, fall back to broker-side partitioning.
//
//samzasql:hotpath
func (t *RepartitionTask) ProcessBatch(envs []samza.IncomingMessageEnvelope, c samza.MessageCollector, coord samza.Coordinator, _ int64) error {
	bc, ok := c.(samza.BatchCollector)
	if !ok {
		for i := range envs {
			//samzasql:ignore hotpath-blocking -- producing to the broker is this task's output contract; the partition append lock is held for a single in-memory append
			if err := t.Process(envs[i], c, coord); err != nil {
				return err
			}
		}
		return nil
	}
	n := t.Partitions
	for int32(len(t.perPart)) < n {
		t.perPart = append(t.perPart, nil)
	}
	for p := range t.perPart {
		t.perPart[p] = t.perPart[p][:0]
	}
	var all []kafka.Message // unknown partition count: one unsplit batch
	for i := range envs {
		env := &envs[i]
		keyVal, err := t.Spec.Codec.ReadField(env.Value, t.Spec.KeyCol)
		if err != nil {
			return fmt.Errorf("executor: repartition key read: %w", err)
		}
		key := repartitionKey(keyVal)
		if n <= 0 {
			all = append(all, kafka.Message{Partition: -1, Key: key, Value: env.Value, Timestamp: env.Timestamp})
			continue
		}
		//samzasql:ignore hotpath-blocking -- producing to the broker is this task's output contract; the partition append lock is held for a single in-memory append
		dest := kafka.PartitionForKey(key, n)
		t.perPart[dest] = append(t.perPart[dest], kafka.Message{
			Partition: dest, Key: key, Value: env.Value, Timestamp: env.Timestamp,
		})
	}
	if n <= 0 {
		if len(all) == 0 {
			return nil
		}
		//samzasql:ignore hotpath-blocking -- producing to the broker is this task's output contract; the partition append lock is held for a single in-memory append
		return bc.SendBatch(t.Spec.TargetTopic, all)
	}
	for p := int32(0); p < n; p++ {
		if len(t.perPart[p]) == 0 {
			continue
		}
		//samzasql:ignore hotpath-blocking -- producing to the broker is this task's output contract; the partition append lock is held for a single in-memory append
		if err := bc.SendBatch(t.Spec.TargetTopic, t.perPart[p]); err != nil {
			return err
		}
	}
	return nil
}

// repartitionJobs tracks re-keying stages already running, so concurrent
// queries joining on the same key share one intermediate stream instead of
// duplicating it (§2's sharing-through-intermediate-streams property).
type repartitionJobs struct {
	mu      sync.Mutex
	started map[string]*samza.RunningJob
}

// ensure starts the stage for spec if no equivalent stage runs yet,
// returning the job (nil if an existing stage already feeds the topic).
func (r *repartitionJobs) ensure(ctx context.Context, e *Engine, spec *physical.RepartitionSpec) (*samza.RunningJob, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started == nil {
		r.started = map[string]*samza.RunningJob{}
	}
	if _, ok := r.started[spec.TargetTopic]; ok {
		return nil, nil
	}
	srcParts, err := e.Broker.Partitions(spec.SourceTopic)
	if err != nil {
		return nil, err
	}
	if err := e.Broker.EnsureTopic(spec.TargetTopic, kafka.TopicConfig{Partitions: srcParts}); err != nil {
		return nil, err
	}
	job := &samza.JobSpec{
		Name:            "repartition-" + spec.TargetTopic,
		Inputs:          []samza.StreamSpec{{Topic: spec.SourceTopic}},
		Containers:      e.Containers,
		TaskParallelism: e.TaskParallelism,
		BatchSize:       e.BatchSize,
		CommitEvery:     1000,
		MaxRestarts:     2,
		Config:          map[string]string{},
		TaskFactory: func() samza.StreamTask {
			return &RepartitionTask{Spec: spec, Partitions: srcParts}
		},
	}
	rj, err := e.Runner.Submit(ctx, job)
	if err != nil {
		return nil, err
	}
	r.started[spec.TargetTopic] = rj
	return rj, nil
}

// Job is a running SamzaSQL query: the main Samza job plus any upstream
// repartition stages it depends on.
type Job struct {
	// Main is the query's own Samza job.
	Main *samza.RunningJob
	// Repartitions are the re-keying stages this submission started (shared
	// stages started by earlier queries are not listed and not stopped).
	Repartitions []*samza.RunningJob
}

// Stop stops the main job, then this submission's repartition stages.
func (j *Job) Stop() []yarn.ContainerStatus {
	statuses := j.Main.Stop()
	for _, r := range j.Repartitions {
		statuses = append(statuses, r.Stop()...)
	}
	return statuses
}

// Wait blocks until the main job's containers exit.
func (j *Job) Wait() []yarn.ContainerStatus { return j.Main.Wait() }

// MetricsSnapshot reports the main job's merged metrics.
func (j *Job) MetricsSnapshot() metrics.Snapshot { return j.Main.MetricsSnapshot() }

// TaskHealth reports the main job's per-task liveness.
func (j *Job) TaskHealth() map[string]string { return j.Main.TaskHealth() }
