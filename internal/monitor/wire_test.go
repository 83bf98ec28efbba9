package monitor

import (
	"errors"
	"testing"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/metrics"
	"samzasql/internal/profile"
	"samzasql/internal/samza"
	"samzasql/internal/serde"
	"samzasql/internal/trace"
)

// telemetrySerdes are the registered names of the four control streams'
// serdes.
var telemetrySerdes = []string{
	samza.MetricsStream.Serde.Name(), samza.TracesStream.Serde.Name(),
	samza.ProfilesStream.Serde.Name(), AlertStream.Serde.Name(),
}

// goldenMessages returns one fixed message per telemetry serde, every field
// set so each JSON field name appears in the encoded bytes.
func goldenMessages() map[string]any {
	return map[string]any{
		"metrics-snapshot": &samza.MetricsSnapshotMessage{
			Job: "j", Container: 2, TimeMillis: 123, Seq: 7, Final: true,
			Metrics: metrics.Snapshot{
				Counters: map[string]int64{"messages-processed": 42},
				Gauges:   map[string]int64{"kafka.lag.orders.0": 5},
				Histograms: map[string]metrics.HistogramSnapshot{"process-ns": {
					Count: 3, Sum: 300, Max: 150, P50: 90, P95: 150, P99: 150,
					Buckets: []metrics.BucketCount{{Index: 4, Count: 3}},
				}},
			},
		},
		"trace-batch": &samza.TraceBatchMessage{
			Job: "j", Container: 1, TimeMillis: 99, Seq: 3,
			Spans: []trace.Span{
				{TraceID: 7, SpanID: 8, Stage: "produce", StartNs: 10, EndNs: 10},
				{TraceID: 7, SpanID: 9, ParentID: 8, Stage: "poll", StartNs: 11, EndNs: 12, Rows: 64},
			},
			Events:  []trace.Event{{TimeNs: 5, Kind: "container-start", Detail: "j container 1"}},
			Dropped: 2,
		},
		"profile-batch": &samza.ProfileBatchMessage{
			Job: "j", Container: 1, TimeMillis: 99, Seq: 3, Final: true, WindowMillis: 200,
			CPU:        []profile.FuncStat{{Name: "samzasql/internal/operators.fold", Flat: 1000, Cum: 2500}},
			HeapDelta:  []profile.FuncStat{{Name: "encoding/json.Marshal", Flat: 4096, Cum: 8192}},
			Goroutines: []profile.FuncStat{{Name: "runtime.gopark", Flat: 12, Cum: 12}},
		},
		"alert": &AlertMessage{
			Rule: "lag", Kind: "lag", Job: "j", Subject: "orders/0", State: StateFiring,
			Value: 1240, Threshold: 200, Reason: "lag 1240 >= 200 for 3 samples",
			TimeMillis: 5000, SinceMillis: 4000, Seq: 1,
		},
	}
}

// goldenBytes are the encodings of goldenMessages as first published. The
// streams retain records across upgrades, so these bytes must keep
// decoding to the same messages, and new records must keep encoding to them.
var goldenBytes = map[string]string{
	"alert":            `{"rule":"lag","kind":"lag","job":"j","subject":"orders/0","state":"firing","value":1240,"threshold":200,"reason":"lag 1240 \u003e= 200 for 3 samples","time-millis":5000,"since-millis":4000,"seq":1}`,
	"metrics-snapshot": `{"job":"j","container":2,"time-millis":123,"seq":7,"final":true,"metrics":{"counters":{"messages-processed":42},"gauges":{"kafka.lag.orders.0":5},"histograms":{"process-ns":{"count":3,"sum":300,"max":150,"p50":90,"p95":150,"p99":150,"buckets":[{"i":4,"n":3}]}}}}`,
	"profile-batch":    `{"job":"j","container":1,"time-millis":99,"seq":3,"final":true,"window-millis":200,"cpu":[{"name":"samzasql/internal/operators.fold","flat":1000,"cum":2500}],"heap-delta":[{"name":"encoding/json.Marshal","flat":4096,"cum":8192}],"goroutines":[{"name":"runtime.gopark","flat":12,"cum":12}]}`,
	"trace-batch":      `{"job":"j","container":1,"time-millis":99,"seq":3,"spans":[{"trace":7,"span":8,"stage":"produce","start-ns":10,"end-ns":10},{"trace":7,"span":9,"parent":8,"stage":"poll","start-ns":11,"end-ns":12,"rows":64}],"events":[{"time-ns":5,"kind":"container-start","detail":"j container 1"}],"dropped":2}`,
}

// TestTelemetryWireFormat pins the encoded bytes of one fixed message per
// control stream, decodes them back to the same message, and checks that a
// wrong-typed value is refused with serde.ErrWrongType.
func TestTelemetryWireFormat(t *testing.T) {
	msgs := goldenMessages()
	for _, name := range telemetrySerdes {
		s, err := serde.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := s.Encode(msgs[name])
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if string(data) != goldenBytes[name] {
			t.Errorf("%s: wire format changed:\n got %s\nwant %s", name, data, goldenBytes[name])
		}
		v, err := s.Decode([]byte(goldenBytes[name]))
		if err != nil {
			t.Fatalf("%s: decode golden bytes: %v", name, err)
		}
		if again, err := s.Encode(v); err != nil || string(again) != goldenBytes[name] {
			t.Errorf("%s: golden bytes do not round-trip: %s (%v)", name, again, err)
		}
		if _, err := s.Encode("not a message"); !errors.Is(err, serde.ErrWrongType) {
			t.Errorf("%s: wrong-typed value: got %v, want serde.ErrWrongType", name, err)
		}
	}
}

// FuzzTelemetryDecode feeds arbitrary bytes to every control-stream serde:
// Decode may fail but must never panic, and whatever it accepts must
// encode again.
func FuzzTelemetryDecode(f *testing.F) {
	for _, name := range telemetrySerdes {
		f.Add([]byte(goldenBytes[name]))
	}
	f.Add([]byte(`{"spans":[{"trace":-1}]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range telemetrySerdes {
			s, err := serde.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			v, err := s.Decode(data)
			if err != nil {
				continue
			}
			if _, err := s.Encode(v); err != nil {
				t.Errorf("%s: decoded %q but cannot re-encode: %v", name, data, err)
			}
		}
	})
}

// TestMonitorSkipsUndecodableRecords publishes good, corrupt, good, good
// records on the metrics stream, all fetched in one poll: the monitor must
// ingest all three good snapshots and count the corrupt one once. Stopping
// the batch at the bad record would lose the two after it, because the
// consumer has already moved past the whole batch.
func TestMonitorSkipsUndecodableRecords(t *testing.T) {
	b := kafka.NewBroker()
	if err := b.EnsureTopic(samza.DefaultMetricsTopic, kafka.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	s, err := serde.Lookup("metrics-snapshot")
	if err != nil {
		t.Fatal(err)
	}
	good := func(seq int64) []byte {
		data, err := s.Encode(&samza.MetricsSnapshotMessage{Job: "j", TimeMillis: 1000 * seq, Seq: seq})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, v := range [][]byte{good(1), []byte("{corrupt"), good(2), good(3)} {
		if _, err := b.Produce(samza.DefaultMetricsTopic, kafka.Message{Partition: 0, Value: v}); err != nil {
			t.Fatal(err)
		}
	}
	mon, err := Start(Config{Broker: b, Rules: []Rule{}})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Stop()
	counter := func(name string) int64 { return mon.Metrics().Snapshot().Counters[name] }
	waitFor(t, 2*time.Second, func() bool {
		return counter("monitor.snapshots-ingested") >= 3
	}, "three good snapshots ingested")
	if got := counter("monitor.decode-errors"); got != 1 {
		t.Fatalf("monitor.decode-errors = %d, want 1", got)
	}
}
