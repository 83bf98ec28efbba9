package samza

import (
	"context"
	"fmt"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/metrics"
	"samzasql/internal/serde"
)

// ControlStream binds one control stream's message type to the serde its
// records are encoded with and the consumer group its tailers read with. Every control stream (metrics, traces, profiles, and the monitor's
// alerts) publishes through ControlStream.Publish and is read back through
// a Tailer, so the wire format and the read path are the same for all.
type ControlStream[T any] struct {
	// Serde is the stream's codec, registered under its name.
	Serde serde.TypedJSON[T]
	// Group is the consumer group tailers use.
	Group string
}

// The framework's control streams. Their topics are configurable per job;
// the serde names are how jobs and tools resolve the codecs.
var (
	MetricsStream = ControlStream[MetricsSnapshotMessage]{
		Serde: serde.NewTypedJSON[MetricsSnapshotMessage]("metrics-snapshot"), Group: "metrics-tailer"}
	TracesStream = ControlStream[TraceBatchMessage]{
		Serde: serde.NewTypedJSON[TraceBatchMessage]("trace-batch"), Group: "trace-tailer"}
	ProfilesStream = ControlStream[ProfileBatchMessage]{
		Serde: serde.NewTypedJSON[ProfileBatchMessage]("profile-batch"), Group: "profiles-tailer"}
)

func init() {
	serde.Register(MetricsStream.Serde)
	serde.Register(TracesStream.Serde)
	serde.Register(ProfilesStream.Serde)
}

// Publish encodes msg with the stream's serde and appends it to
// partition 0 of topic under key, stamped timeMillis. Control streams have
// one partition, so each publisher's records stay in publish order.
func (cs ControlStream[T]) Publish(b *kafka.Broker, topic, key string, timeMillis int64, msg *T) error {
	data, err := cs.Serde.EncodeMsg(msg)
	if err != nil {
		return fmt.Errorf("samza: %s encode: %w", cs.Serde.Name(), err)
	}
	_, err = b.Produce(topic, kafka.Message{
		Partition: 0,
		Key:       []byte(key),
		Value:     data,
		Timestamp: timeMillis,
	})
	if err != nil {
		return fmt.Errorf("samza: %s publish: %w", cs.Serde.Name(), err)
	}
	return nil
}

// containerKey is the record key of a per-container reporter.
func containerKey(job string, container int) string {
	return fmt.Sprintf("%s-%d", job, container)
}

// tickLoop calls publish(false) every interval until ctx is cancelled, then
// publish(true) once — the final flush, so a container that stops between
// ticks still leaves its last records on the stream.
func tickLoop(ctx context.Context, interval time.Duration, publish func(final bool)) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			publish(true)
			return
		case <-t.C:
			publish(false)
		}
	}
}

// Tailer consumes one control stream back into decoded messages, from the
// oldest retained record on — the consumer half of a publisher, used by the
// monitor and by tests asserting on published telemetry.
type Tailer[T any] struct {
	consumer *kafka.Consumer
	tp       kafka.TopicPartition
	s        serde.TypedJSON[T]
}

// NewTailer attaches a consumer at the start of topic. The topic must
// already exist: a publisher or the monitor creates it.
func NewTailer[T any](b *kafka.Broker, topic string, cs ControlStream[T]) (*Tailer[T], error) {
	tp := kafka.TopicPartition{Topic: topic, Partition: 0}
	c := kafka.NewConsumer(b, cs.Group)
	if err := c.Assign(tp); err != nil {
		return nil, fmt.Errorf("samza: %s tailer assign: %w", cs.Serde.Name(), err)
	}
	return &Tailer[T]{consumer: c, tp: tp, s: cs.Serde}, nil
}

// BindLag registers the tailer's own consumer lag as a gauge
// ("tailer.lag.<topic>.0") in reg, so the observability pipeline is itself
// observable. Call UpdateLag to refresh it.
func (t *Tailer[T]) BindLag(reg *metrics.Registry) {
	t.consumer.BindLagGauge(t.tp, reg.Gauge(fmt.Sprintf("tailer.lag.%s.0", t.tp.Topic)))
}

// UpdateLag refreshes the bound lag gauge from the broker's high watermark
// and returns the tailer's outstanding records.
func (t *Tailer[T]) UpdateLag() (int64, error) {
	return t.consumer.UpdateLag()
}

// DecodeError reports the records one Poll skipped because they did not
// decode. The Poll that returns it still delivers every record that did.
type DecodeError struct {
	// Skipped counts the undecodable records.
	Skipped int
	// Err is the first record's decode error.
	Err error
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("samza: %d undecodable control-stream record(s) skipped: %v", e.Skipped, e.Err)
}

func (e *DecodeError) Unwrap() error { return e.Err }

// Poll returns up to max messages published since the last call, blocking
// per the consumer's semantics until records arrive or ctx ends. The
// consumer moves past the whole fetched batch at once, so an undecodable
// record is skipped rather than ending the batch: every decodable record is
// returned, alongside a *DecodeError counting the skipped ones.
func (t *Tailer[T]) Poll(ctx context.Context, max int) ([]*T, error) {
	msgs, err := t.consumer.Poll(ctx, max)
	if err != nil {
		return nil, err
	}
	out := make([]*T, 0, len(msgs))
	var bad *DecodeError
	for i := range msgs {
		m, err := t.s.DecodeMsg(msgs[i].Value)
		if err != nil {
			if bad == nil {
				bad = &DecodeError{Err: err}
			}
			bad.Skipped++
			continue
		}
		out = append(out, m)
	}
	if bad != nil {
		return out, bad
	}
	return out, nil
}

// Close releases the tailer's consumer.
func (t *Tailer[T]) Close() { t.consumer.Close() }
