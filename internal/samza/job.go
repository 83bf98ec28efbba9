package samza

import (
	"errors"
	"fmt"
	"time"

	"samzasql/internal/kafka"
)

// StreamSpec describes one input stream of a job.
type StreamSpec struct {
	// Topic is the Kafka topic name.
	Topic string
	// Bootstrap marks the stream as a bootstrap stream (§2): the task
	// consumes it to its high watermark before processing other inputs.
	// SamzaSQL uses this for the relation side of stream-to-relation joins.
	Bootstrap bool
}

// StoreSpec describes one named local store of a job's tasks.
type StoreSpec struct {
	// Name is the handle tasks use via TaskContext.Store.
	Name string
	// Changelog, when true, mirrors the store to a compacted changelog
	// topic named "<job>-<store>-changelog" for restore after failure.
	Changelog bool
}

// JobSpec is the deployable description of one Samza job: Samza's job
// package plus property-file configuration collapsed into a struct, with
// the free-form Config carrying what the property file would (SamzaSQL
// stores planner metadata references there, §4.2).
type JobSpec struct {
	// Name identifies the job; checkpoint and changelog topics derive from it.
	Name string
	// Inputs are the consumed streams. All must exist at submit time.
	Inputs []StreamSpec
	// TaskFactory builds one StreamTask per partition.
	TaskFactory func() StreamTask
	// Containers is the number of containers tasks spread over. Defaults 1.
	Containers int
	// Stores declares the local stores available to tasks.
	Stores []StoreSpec
	// CommitEvery checkpoints input offsets after this many processed
	// messages per task. 0 disables count-based commits (commits then only
	// happen on Coordinator.Commit or shutdown).
	CommitEvery int
	// WindowEvery fires WindowableTask.Window after this many processed
	// messages per task; 0 disables. (The simulation is message-driven, so
	// window firing is count-based rather than wall-clock.)
	WindowEvery int
	// MaxRestarts bounds per-container restarts after failures.
	MaxRestarts int
	// TaskParallelism bounds how many of a container's tasks may process
	// message batches concurrently (Samza's job.container.thread.pool.size
	// analog). 0 (the default) means unbounded: every task runs its loop
	// fully in parallel. 1 reproduces the sequential container of the
	// paper's prototype. Values above the container's task count behave
	// like 0. Tasks own disjoint partitions and disjoint state, so any
	// setting preserves per-task ordering.
	TaskParallelism int
	// StoreCacheSize, when positive, wraps every task store in a CachedStore
	// holding up to this many entries: an LRU of decoded values plus a
	// deduplicating write-behind batch flushed at commit (Samza's
	// stores.<store>.object.cache.size). 0 disables caching; stores then
	// write through per operation as before.
	StoreCacheSize int
	// WriteBatchSize caps how many dirty keys (CachedStore) or mirrored
	// changelog records (ChangelogStore) buffer before an early flush —
	// Samza's stores.<store>.write.batch.size. <= 0 (the default) keeps
	// write-through mirroring: every store write reaches the changelog
	// immediately, so after a crash restored state covers everything
	// processed and offset-tracking operators can suppress replayed output
	// (§4.3 exactly-once). Values > 1 buffer writes until commit: state then
	// tracks committed offsets exactly (replay recomputes rather than
	// double-applies), at the cost of re-emitted output for the replayed
	// suffix in tasks that rely on state-ahead replay detection.
	WriteBatchSize int
	// MetricsInterval, when positive, runs a MetricsSnapshotReporter per
	// container, publishing registry snapshots to the metrics stream at this
	// period (plus an initial snapshot at start and a final one at stop).
	// 0 disables reporting.
	MetricsInterval time.Duration
	// MetricsTopic overrides the metrics stream name; empty uses
	// DefaultMetricsTopic.
	MetricsTopic string
	// TraceSampleRate, when positive, samples roughly this fraction of
	// messages produced to the job's input topics into end-to-end traces
	// (produce → poll → operators → store/changelog → commit). The runner
	// installs the sampler on the broker at submit. 0 disables tracing;
	// the hot path then pays a single branch per call site.
	TraceSampleRate float64
	// TraceInterval, when positive, runs a TraceReporter per container,
	// draining the span ring onto the trace stream at this period (plus a
	// final flush at stop). Defaults to DefaultTraceInterval whenever
	// TraceSampleRate is set and this is 0.
	TraceInterval time.Duration
	// TraceTopic overrides the trace stream name; empty uses
	// DefaultTraceTopic.
	TraceTopic string
	// ProfileInterval, when positive, runs a continuous ProfileReporter per
	// container: every interval it captures a short windowed CPU profile
	// plus heap-delta/goroutine snapshots, folds them per function, and
	// publishes the batch to the profiles stream (plus a final CPU-less
	// flush at stop). 0 disables continuous profiling entirely; the hot
	// path then pays nothing.
	ProfileInterval time.Duration
	// ProfileWindow is the CPU sampling length within each interval; 0
	// uses profile.DefaultWindow, values above ProfileInterval clamp to it
	// (100% duty — the aggressive mode of the overhead sweep).
	ProfileWindow time.Duration
	// ProfilesTopic overrides the profiles stream name; empty uses
	// DefaultProfilesTopic.
	ProfilesTopic string
	// BatchSize caps how many messages one poll delivers to a task. Tasks
	// implementing BatchedStreamTask get each poll in one ProcessBatch
	// call, so 1 runs them one-row block by one-row block; plain
	// StreamTasks see per-message delivery at every setting. 0 (the
	// default) uses DefaultBatchSize.
	BatchSize int
	// Config carries arbitrary job configuration strings.
	Config map[string]string
}

// MetricsTopicName resolves the metrics stream this job publishes to.
func (j *JobSpec) MetricsTopicName() string {
	if j.MetricsTopic != "" {
		return j.MetricsTopic
	}
	return DefaultMetricsTopic
}

// TraceTopicName resolves the trace stream this job publishes to.
func (j *JobSpec) TraceTopicName() string {
	if j.TraceTopic != "" {
		return j.TraceTopic
	}
	return DefaultTraceTopic
}

// ProfilesTopicName resolves the profiles stream this job publishes to.
func (j *JobSpec) ProfilesTopicName() string {
	if j.ProfilesTopic != "" {
		return j.ProfilesTopic
	}
	return DefaultProfilesTopic
}

// Validate checks the spec for structural problems.
func (j *JobSpec) Validate() error {
	if j.Name == "" {
		return errors.New("samza: job needs a name")
	}
	if len(j.Inputs) == 0 {
		return fmt.Errorf("samza: job %q has no inputs", j.Name)
	}
	if j.TaskFactory == nil {
		return fmt.Errorf("samza: job %q has no task factory", j.Name)
	}
	if j.TaskParallelism < 0 {
		return fmt.Errorf("samza: job %q has negative task parallelism %d", j.Name, j.TaskParallelism)
	}
	if j.StoreCacheSize < 0 {
		return fmt.Errorf("samza: job %q has negative store cache size %d", j.Name, j.StoreCacheSize)
	}
	if j.TraceSampleRate < 0 || j.TraceSampleRate > 1 {
		return fmt.Errorf("samza: job %q trace sample rate %v outside [0, 1]", j.Name, j.TraceSampleRate)
	}
	if j.ProfileInterval < 0 || j.ProfileWindow < 0 {
		return fmt.Errorf("samza: job %q has negative profile interval/window", j.Name)
	}
	if j.BatchSize < 0 {
		return fmt.Errorf("samza: job %q has negative batch size %d", j.Name, j.BatchSize)
	}
	seen := map[string]bool{}
	for _, in := range j.Inputs {
		if in.Topic == "" {
			return fmt.Errorf("samza: job %q has an unnamed input", j.Name)
		}
		if seen[in.Topic] {
			return fmt.Errorf("samza: job %q lists input %q twice", j.Name, in.Topic)
		}
		seen[in.Topic] = true
	}
	storeSeen := map[string]bool{}
	for _, st := range j.Stores {
		if st.Name == "" {
			return fmt.Errorf("samza: job %q has an unnamed store", j.Name)
		}
		if storeSeen[st.Name] {
			return fmt.Errorf("samza: job %q declares store %q twice", j.Name, st.Name)
		}
		storeSeen[st.Name] = true
	}
	return nil
}

// ChangelogTopic is the changelog topic name for a store of a job.
func (j *JobSpec) ChangelogTopic(store string) string {
	return fmt.Sprintf("%s-%s-changelog", j.Name, store)
}

// CheckpointTopic is the compacted topic holding task checkpoints.
func (j *JobSpec) CheckpointTopic() string {
	return fmt.Sprintf("__checkpoint-%s", j.Name)
}

// assignment maps tasks (one per partition) to containers.
type assignment struct {
	// taskPartitions[taskIdx] is the partition the task owns across every
	// input stream (Samza's GroupByPartition strategy).
	taskPartitions []int32
	// containerTasks[containerIdx] lists task indexes owned by a container.
	containerTasks [][]int
}

// planAssignment computes the task and container layout for the job against
// the broker's current topic metadata. Every input must have the same
// partition count (Samza's GroupByPartition requirement for joins to align);
// jobs whose inputs differ are rejected to avoid silently mismatched joins.
func planAssignment(b *kafka.Broker, j *JobSpec) (*assignment, error) {
	partitions := int32(-1)
	for _, in := range j.Inputs {
		n, err := b.Partitions(in.Topic)
		if err != nil {
			return nil, fmt.Errorf("samza: job %q input: %w", j.Name, err)
		}
		if partitions == -1 {
			partitions = n
		} else if n != partitions {
			return nil, fmt.Errorf("samza: job %q inputs disagree on partition count (%d vs %d); repartition upstream",
				j.Name, partitions, n)
		}
	}
	containers := j.Containers
	if containers <= 0 {
		containers = 1
	}
	if int32(containers) > partitions {
		containers = int(partitions)
	}
	a := &assignment{containerTasks: make([][]int, containers)}
	for p := int32(0); p < partitions; p++ {
		taskIdx := int(p)
		a.taskPartitions = append(a.taskPartitions, p)
		c := taskIdx % containers
		a.containerTasks[c] = append(a.containerTasks[c], taskIdx)
	}
	return a, nil
}
