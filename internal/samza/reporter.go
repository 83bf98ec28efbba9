package samza

import (
	"context"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/metrics"
)

// DefaultMetricsTopic is the stream metrics snapshots publish to when the
// job does not override it — Samza's "metrics" stream convention, prefixed
// like the other framework topics.
const DefaultMetricsTopic = "__metrics"

// MetricsSnapshotMessage is one published registry snapshot — the analog of
// Samza's MetricsSnapshot envelope. Because it travels over an ordinary
// stream, monitoring data inherits the platform's own properties (§2):
// replayable from retention, consumable by downstream jobs, and queryable
// with the same tools as any other stream.
type MetricsSnapshotMessage struct {
	// Job is the publishing job's name.
	Job string `json:"job"`
	// Container is the publishing container's ID within the job.
	Container int `json:"container"`
	// TimeMillis is the publish wall-clock time.
	TimeMillis int64 `json:"time-millis"`
	// Seq numbers this container's snapshots from 1.
	Seq int64 `json:"seq"`
	// Final marks the flush published when the container stops. Consumers
	// (the monitor, tests on short-lived jobs) use it to close out a
	// container's series instead of waiting for an interval that will never
	// tick again.
	Final bool `json:"final,omitempty"`
	// Metrics is the typed registry snapshot.
	Metrics metrics.Snapshot `json:"metrics"`
}

// MetricsSnapshotReporter periodically serializes one container's registry
// onto the metrics stream. It publishes an initial snapshot on start, one
// per interval, and a final one on shutdown, so even a short-lived job
// leaves at least two snapshots behind.
type MetricsSnapshotReporter struct {
	broker    *kafka.Broker
	job       string
	container int
	topic     string
	interval  time.Duration
	reg       *metrics.Registry
	seq       int64
	// refresh, when non-nil, runs before each publish to update pull-style
	// gauges (consumer lag) that nothing on the hot path touches.
	refresh func()
}

// NewMetricsSnapshotReporter builds a reporter over the container's registry.
// The metrics topic must already exist (Container.Run ensures it).
func NewMetricsSnapshotReporter(b *kafka.Broker, job string, container int, topic string, interval time.Duration, reg *metrics.Registry, refresh func()) *MetricsSnapshotReporter {
	return &MetricsSnapshotReporter{
		broker: b, job: job, container: container,
		topic: topic, interval: interval, reg: reg,
		refresh: refresh,
	}
}

// Publish serializes one snapshot onto the metrics stream.
func (r *MetricsSnapshotReporter) Publish() error { return r.publish(false) }

func (r *MetricsSnapshotReporter) publish(final bool) error {
	if r.refresh != nil {
		r.refresh()
	}
	r.seq++
	msg := &MetricsSnapshotMessage{
		Job:        r.job,
		Container:  r.container,
		TimeMillis: time.Now().UnixMilli(),
		Seq:        r.seq,
		Final:      final,
		Metrics:    r.reg.Snapshot(),
	}
	return MetricsStream.Publish(r.broker, r.topic, containerKey(r.job, r.container), msg.TimeMillis, msg)
}

// Run publishes until ctx is cancelled, then flushes a final snapshot
// (Final=true — mirroring TraceReporter's final flush) so a job that stops
// between ticks still leaves its closing counters on the stream. Publish
// errors are not fatal to the job: metrics reporting must never take down
// the pipeline it observes, so Run drops failed publishes and tries again
// next tick.
func (r *MetricsSnapshotReporter) Run(ctx context.Context) {
	_ = r.publish(false)
	tickLoop(ctx, r.interval, func(final bool) { _ = r.publish(final) })
}
