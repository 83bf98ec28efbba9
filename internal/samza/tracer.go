package samza

import (
	"context"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/trace"
)

// DefaultTraceTopic is the stream trace batches and lifecycle events
// publish to when the job does not override it, mirroring the "__metrics"
// convention.
const DefaultTraceTopic = "__traces"

// DefaultTraceInterval is the reporter period used when a job enables
// sampling without choosing one.
const DefaultTraceInterval = 250 * time.Millisecond

// TraceBatchMessage is one published drain of a container's span ring plus
// any lifecycle events since the previous batch. Like metrics snapshots it
// travels over an ordinary stream, so traces are replayable from retention
// and consumable with the same tools as any other stream.
type TraceBatchMessage struct {
	// Job is the publishing job's name; empty for cluster-level lifecycle
	// batches published by the JobRunner itself.
	Job string `json:"job"`
	// Container is the publishing container's ID, or -1 for runner batches.
	Container int `json:"container"`
	// TimeMillis is the publish wall-clock time.
	TimeMillis int64 `json:"time-millis"`
	// Seq numbers this publisher's batches from 1.
	Seq int64 `json:"seq"`
	// Spans are the completed spans drained from the ring, arrival order.
	Spans []trace.Span `json:"spans,omitempty"`
	// Events are lifecycle events recorded since the last batch.
	Events []trace.Event `json:"events,omitempty"`
	// Dropped counts spans/events lost to ring overflow since the last
	// batch — nonzero means the sample rate outruns the reporter.
	Dropped int64 `json:"dropped,omitempty"`
}

// TraceReporter periodically drains a container's span ring and lifecycle
// events onto the trace stream (and into the container's recent-trace
// store for /debug/traces). It publishes one batch per interval and a
// final one at shutdown, so the spans of the last sampled messages are
// never lost to a stop.
type TraceReporter struct {
	broker    *kafka.Broker
	job       string
	container int
	topic     string
	interval  time.Duration
	seq       int64
	// collect drains the container's recorder (feeding its recent-trace
	// store as a side effect) and returns the batch to publish.
	collect func() ([]trace.Span, []trace.Event, int64)
}

// NewTraceReporter builds a reporter over a container's collect function.
// The trace topic must already exist (Container.Run ensures it).
func NewTraceReporter(b *kafka.Broker, job string, container int, topic string, interval time.Duration, collect func() ([]trace.Span, []trace.Event, int64)) *TraceReporter {
	return &TraceReporter{
		broker: b, job: job, container: container,
		topic: topic, interval: interval, collect: collect,
	}
}

// Publish drains and serializes one batch onto the trace stream. Empty
// drains publish nothing.
func (r *TraceReporter) Publish() error {
	spans, events, dropped := r.collect()
	if len(spans) == 0 && len(events) == 0 && dropped == 0 {
		return nil
	}
	r.seq++
	msg := &TraceBatchMessage{
		Job:        r.job,
		Container:  r.container,
		TimeMillis: time.Now().UnixMilli(),
		Seq:        r.seq,
		Spans:      spans,
		Events:     events,
		Dropped:    dropped,
	}
	return TracesStream.Publish(r.broker, r.topic, containerKey(r.job, r.container), msg.TimeMillis, msg)
}

// Run publishes until ctx is cancelled, then flushes a final batch. Like
// the metrics reporter, publish errors are dropped: tracing must never
// take down the pipeline it observes.
func (r *TraceReporter) Run(ctx context.Context) {
	tickLoop(ctx, r.interval, func(bool) { _ = r.Publish() })
}
