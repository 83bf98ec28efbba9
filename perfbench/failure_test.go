package main

import (
	"context"
	"errors"
	"strings"
	"testing"

	"samzasql/internal/kafka"
	"samzasql/internal/samza"
)

// failingTask fails on its first message, so its container restarts.
type failingTask struct{}

func (failingTask) Init(*samza.TaskContext) error { return nil }

func (failingTask) Process(samza.IncomingMessageEnvelope, samza.MessageCollector, samza.Coordinator) error {
	return errors.New("injected failure")
}

// passTask accepts every message and sends nothing.
type passTask struct{}

func (passTask) Init(*samza.TaskContext) error { return nil }

func (passTask) Process(samza.IncomingMessageEnvelope, samza.MessageCollector, samza.Coordinator) error {
	return nil
}

// submit runs a one-container job over the cluster's orders topic.
func submit(t *testing.T, c *cluster, name string, restarts int, task samza.StreamTask) *samza.RunningJob {
	t.Helper()
	spec := nativeJob(func() samza.StreamTask { return task })
	spec.Name, spec.MaxRestarts = name, restarts
	rj, err := c.runner().Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rj.Stop() })
	return rj
}

func TestAwaitDrainFailsOnRestart(t *testing.T) {
	w, bl, _ := tiny(t, "filter", 1_000)
	c, err := newCluster(w, bl, w.messages)
	if err != nil {
		t.Fatal(err)
	}
	rj := submit(t, c, "restarting", 3, failingTask{})
	if _, err := awaitDrain(c.broker, rj, int64(w.messages)); err == nil || !strings.Contains(err.Error(), "restarted") {
		t.Fatalf("awaitDrain = %v, want a restart failure", err)
	}
}

func TestAwaitDrainFailsOnStall(t *testing.T) {
	w, bl, _ := tiny(t, "filter", 1_000)
	c, err := newCluster(w, bl, w.messages)
	if err != nil {
		t.Fatal(err)
	}
	// The job can never reach one message more than the topic holds.
	rj := submit(t, c, "stalling", 0, passTask{})
	if _, err := awaitDrain(c.broker, rj, int64(w.messages)+1); err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("awaitDrain = %v, want a stall failure", err)
	}
}

func TestCheckRetentionReportsLostInput(t *testing.T) {
	b := kafka.NewBroker()
	if err := b.CreateTopic(ordersTopic, kafka.TopicConfig{Partitions: partitions, SegmentBytes: 1024, RetentionBytes: 2048}); err != nil {
		t.Fatal(err)
	}
	if err := checkRetention(b, ordersTopic); err != nil {
		t.Fatalf("empty topic: %v", err)
	}
	for i := 0; i < 200; i++ {
		if _, err := b.Produce(ordersTopic, kafka.Message{Partition: 3, Value: make([]byte, 100)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkRetention(b, ordersTopic); err == nil || !strings.Contains(err.Error(), "input lost") {
		t.Fatalf("checkRetention = %v, want lost input", err)
	}
}
