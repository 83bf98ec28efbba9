package samza

import (
	"context"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/profile"
)

// DefaultProfilesTopic is the stream profile batches publish to when the
// job does not override it, mirroring the "__metrics"/"__traces" convention.
const DefaultProfilesTopic = "__profiles"

// ProfileBatchMessage is one published capture window: per-function CPU
// flat/cum nanoseconds over the window, heap-allocation deltas, and
// goroutine counts. Like metrics snapshots and trace batches it travels
// over an ordinary stream, so profiles are replayable from retention and
// consumable with the same tools as any other stream.
type ProfileBatchMessage struct {
	// Job is the publishing job's name.
	Job string `json:"job"`
	// Container is the publishing container's ID within the job. Each
	// capture observes the whole process (CPU profiling is process-global),
	// so in this in-process simulation per-container batches are views of
	// the shared process taken on that container's schedule.
	Container int `json:"container"`
	// TimeMillis is the publish wall-clock time.
	TimeMillis int64 `json:"time-millis"`
	// Seq numbers this container's batches from 1.
	Seq int64 `json:"seq"`
	// Final marks the flush published when the container stops (heap and
	// goroutine snapshots only — no CPU window delays shutdown).
	Final bool `json:"final,omitempty"`
	// WindowMillis is the CPU sampling length this batch covers.
	WindowMillis int64 `json:"window-millis"`
	// CPU is the top-N per-function CPU time over the window.
	CPU []profile.FuncStat `json:"cpu,omitempty"`
	// HeapDelta is the top-N per-function bytes allocated since the
	// previous batch.
	HeapDelta []profile.FuncStat `json:"heap-delta,omitempty"`
	// Goroutines is the top-N per-function live goroutine counts (a level,
	// not a delta).
	Goroutines []profile.FuncStat `json:"goroutines,omitempty"`
}

// ProfileReporter runs one container's continuous profiler: every interval
// it captures a CPU window plus heap-delta/goroutine snapshots and
// publishes the folded batch. On shutdown it publishes a final CPU-less
// batch (Final=true) so consumers can close the container's series without
// waiting out a capture window.
type ProfileReporter struct {
	broker    *kafka.Broker
	job       string
	container int
	topic     string
	prof      *profile.Profiler
	seq       int64
}

// NewProfileReporter builds a reporter around an enabled profiler. The
// profiles topic must already exist (Container.Run ensures it).
func NewProfileReporter(b *kafka.Broker, job string, container int, topic string, prof *profile.Profiler) *ProfileReporter {
	return &ProfileReporter{
		broker: b, job: job, container: container,
		topic: topic, prof: prof,
	}
}

// Publish captures one window and serializes the batch onto the profiles
// stream.
func (r *ProfileReporter) Publish(ctx context.Context) error {
	batch, err := r.prof.Capture(ctx)
	if err != nil {
		return err
	}
	return r.publish(batch, false)
}

func (r *ProfileReporter) publish(batch *profile.Batch, final bool) error {
	r.seq++
	msg := &ProfileBatchMessage{
		Job:          r.job,
		Container:    r.container,
		TimeMillis:   batch.TimeMillis,
		Seq:          r.seq,
		Final:        final,
		WindowMillis: batch.WindowMillis,
		CPU:          batch.CPU,
		HeapDelta:    batch.HeapDelta,
		Goroutines:   batch.Goroutines,
	}
	return ProfilesStream.Publish(r.broker, r.topic, containerKey(r.job, r.container), msg.TimeMillis, msg)
}

// Run captures and publishes until ctx is cancelled, then flushes a final
// CPU-less batch. Capture and publish errors are not fatal to the job —
// profiling must never take down the pipeline it observes — so Run drops
// them and tries again next interval. The interval ticker starts after
// each capture returns, so a window can never overlap the next tick's.
func (r *ProfileReporter) Run(ctx context.Context) {
	interval := r.prof.Config().Interval
	for {
		// Sleep the gap between windows (interval minus the window the
		// capture itself blocks for), so the capture cadence matches the
		// configured interval rather than interval+window.
		gap := interval - r.prof.Config().Window
		if gap < 0 {
			gap = 0
		}
		t := time.NewTimer(gap)
		select {
		case <-ctx.Done():
			t.Stop()
			r.finalFlush()
			return
		case <-t.C:
		}
		_ = r.Publish(ctx)
		if ctx.Err() != nil {
			r.finalFlush()
			return
		}
	}
}

// finalFlush publishes the closing heap/goroutine snapshot with Final set.
func (r *ProfileReporter) finalFlush() {
	heap, err := r.prof.CaptureHeapDelta()
	if err != nil {
		return
	}
	gor, _ := r.prof.CaptureGoroutines()
	_ = r.publish(&profile.Batch{
		TimeMillis: time.Now().UnixMilli(),
		HeapDelta:  heap,
		Goroutines: gor,
	}, true)
}
