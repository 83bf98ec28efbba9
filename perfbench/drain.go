package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"samzasql/internal/executor"
	"samzasql/internal/kafka"
	"samzasql/internal/samza"
	"samzasql/internal/sql/catalog"
	"samzasql/internal/workload"
	"samzasql/internal/yarn"
	"samzasql/internal/zk"

	samzametrics "samzasql/internal/metrics"
)

const (
	// stallBound fails a trial whose job processes nothing for this long.
	stallBound = 3 * time.Second
	// progressTick is how often the harness reads the progress counters.
	progressTick = 500 * time.Microsecond
	// setupTick is how often a set-up trial looks at the output topic.
	setupTick = 100 * time.Microsecond
)

// cluster is a broker loaded once with a workload's inputs. Trials run on
// it one after another: each gets a fresh YARN cluster and Samza runner (so
// no trial inherits another's job handles or stores) and deletes the topics
// it created. The engine is shared so every query gets its own job name.
type cluster struct {
	broker *kafka.Broker
	engine *executor.Engine
	inputs map[string]bool
}

// newCluster loads the first n orders (and, for join, the relation).
func newCluster(w *workloadSpec, bl *backlog, n int) (*cluster, error) {
	b := kafka.NewBroker()
	if err := loadInputs(b, w, bl, n); err != nil {
		return nil, err
	}
	cat := catalog.New()
	if err := workload.DefineCatalog(cat); err != nil {
		return nil, err
	}
	c := &cluster{broker: b, engine: executor.NewEngine(cat, b, nil, zk.NewStore()), inputs: map[string]bool{}}
	for _, t := range b.Topics() {
		c.inputs[t] = true
	}
	return c, nil
}

// runner starts a fresh one-node YARN cluster and Samza runner for a trial
// and points the engine at it.
func (c *cluster) runner() *samza.JobRunner {
	yc := yarn.NewCluster()
	yc.AddNode("node-0", yarn.Resource{VCores: 64, MemoryMB: 1 << 20})
	c.engine.Runner = samza.NewJobRunner(c.broker, yc)
	return c.engine.Runner
}

// cleanup deletes every topic a trial created.
func (c *cluster) cleanup() error {
	for _, t := range c.broker.Topics() {
		if !c.inputs[t] {
			if err := c.broker.DeleteTopic(t); err != nil {
				return err
			}
		}
	}
	return nil
}

// usage is a process resource reading.
type usage struct {
	at        time.Time
	processed int64
	cpuNs     int64 // user+system CPU from getrusage
	allocB    uint64
	gcCPU     float64 // runtime estimate of GC CPU seconds
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

// readUsage samples the process at time at, when the job had processed
// that many messages.
func readUsage(at time.Time, processed int64) usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	metrics.Read(usageSamples)
	return usage{
		at:        at,
		processed: processed,
		cpuNs:     ru.Utime.Nano() + ru.Stime.Nano(),
		allocB:    usageSamples[0].Value.Uint64(),
		gcCPU:     usageSamples[1].Value.Float64(),
	}
}

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// drain is the progress record of one drain trial.
type drain struct {
	at10, at90 usage
}

// perCPUSecond is messages per second of process CPU (user and system,
// both cores) between the 10% and 90% marks. Unlike the wall-clock rate it
// leaves out time the host took the CPUs away, which on a shared virtual
// machine moves wall-clock rates by tens of percent between runs.
func (t trial) perCPUSecond() float64 {
	return float64(t.window[1].processed-t.window[0].processed) / (float64(t.window[1].cpuNs-t.window[0].cpuNs) / 1e9)
}

// rate is messages per second between the 10% and 90% marks.
func (d drain) rate() float64 {
	return float64(d.at90.processed-d.at10.processed) / d.at90.at.Sub(d.at10.at).Seconds()
}

// awaitDrain follows a job's progress through the container's
// messages-processed counter handle until it has processed want messages,
// sampling the process at 10% and 90% of the drain. It fails on a stall (no
// progress for stallBound), on a container restart (a new attempt starts a
// fresh registry, which would silently reset the counter) and on input
// lost to retention.
func awaitDrain(b *kafka.Broker, rj *samza.RunningJob, want int64) (drain, error) {
	var d drain
	var processed *samzametrics.Counter
	last, lastChange := int64(-1), time.Now()
	for {
		regs := rj.ContainerMetrics()
		if len(regs) > 1 {
			return d, fmt.Errorf("container restarted (%d attempts) after %d of %d messages", len(regs), max(last, 0), want)
		}
		if processed == nil && len(regs) == 1 {
			processed = regs[0].Counter("messages-processed")
		}
		now := time.Now()
		var p int64
		if processed != nil {
			p = processed.Value()
		}
		if p != last {
			last, lastChange = p, now
		} else if now.Sub(lastChange) > stallBound {
			if err := checkRetention(b, ordersTopic); err != nil {
				return d, err
			}
			return d, fmt.Errorf("stalled at %d of %d messages for %v", p, want, stallBound)
		}
		if d.at10.at.IsZero() && p >= want/10 {
			d.at10 = readUsage(now, p)
		}
		if d.at90.at.IsZero() && p >= want*9/10 {
			d.at90 = readUsage(now, p)
		}
		if p >= want {
			return d, checkRetention(b, ordersTopic)
		}
		time.Sleep(progressTick)
	}
}

// checkRetention fails when any partition of topic has dropped records
// from its head.
func checkRetention(b *kafka.Broker, topic string) error {
	for p := int32(0); p < partitions; p++ {
		tp := kafka.TopicPartition{Topic: topic, Partition: p}
		start, err := b.StartOffset(tp)
		if err != nil {
			return err
		}
		if start > 0 {
			return fmt.Errorf("input lost: retention dropped offsets [0, %d) of %s", start, tp)
		}
	}
	return nil
}

// awaitAllTasksOutput waits until every task of the job has sent an output
// row, that is until every partition of the output topic (each task writes
// its own) holds one, and returns when it saw that. It fails on a
// container restart or after stallBound.
func awaitAllTasksOutput(b *kafka.Broker, rj *samza.RunningJob, topic string) (time.Time, error) {
	deadline := time.Now().Add(stallBound)
	for {
		now := time.Now()
		if regs := len(rj.ContainerMetrics()); regs > 1 {
			return now, fmt.Errorf("container restarted (%d attempts) during set-up", regs)
		}
		started := int32(0)
		for p := int32(0); p < partitions; p++ {
			if hwm, err := b.HighWatermark(kafka.TopicPartition{Topic: topic, Partition: p}); err == nil && hwm > 0 {
				started++
			}
		}
		if started == partitions {
			return now, nil
		}
		if now.After(deadline) {
			return now, fmt.Errorf("%d of %d tasks sent output after %v", started, partitions, stallBound)
		}
		time.Sleep(setupTick)
	}
}

// setupTrial times one job start, from the Engine.Prepare call until every
// task has sent its first output row: planning, the ZooKeeper publish,
// container start, every task's re-plan and the relation bootstrap. Waiting
// for the last task rather than the first keeps the figure from depending
// on which task the scheduler happens to finish first. It also returns how
// long Prepare took.
func (c *cluster) setupTrial(w *workloadSpec) (setupS, prepareS float64, err error) {
	c.runner()
	defer c.cleanup()
	runtime.GC()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	t0 := time.Now()
	p, err := c.engine.Prepare(w.sql)
	if err != nil {
		return 0, 0, err
	}
	prepared := time.Since(t0)
	job, err := c.engine.Submit(ctx, p)
	if err != nil {
		return 0, 0, err
	}
	defer job.Stop()
	up, err := awaitAllTasksOutput(c.broker, job.Main, p.OutputTopic)
	if err != nil {
		return 0, 0, fmt.Errorf("setup %s: %w", w.name, err)
	}
	return up.Sub(t0).Seconds(), prepared.Seconds(), nil
}

// trial is one measured drain of the whole backlog.
type trial struct {
	rate float64 // wall-clock messages per second
	// SQL trials only.
	heapMB float64
	window [2]usage
	// failed counts failed operations; a trial that stalled, restarted
	// or lost input fails all of its messages and says why in reason.
	failed int
	reason error
}

// sqlTrial drains the backlog with the SamzaSQL query and checks every
// output row against the oracle.
func (c *cluster) sqlTrial(w *workloadSpec, o *oracle) (trial, error) {
	c.runner()
	defer c.cleanup()
	heap0 := liveHeap()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, err := c.engine.Prepare(w.sql)
	if err != nil {
		return trial{}, err
	}
	job, err := c.engine.Submit(ctx, p)
	if err != nil {
		return trial{}, err
	}
	d, err := awaitDrain(c.broker, job.Main, int64(w.messages))
	if err != nil {
		job.Stop()
		return trial{failed: w.messages, reason: fmt.Errorf("sql %s: %w", w.name, err)}, nil
	}
	heap1 := liveHeap()
	job.Stop()
	t := o.tally(w.messages)
	if err := readOutput(c.broker, p.OutputTopic, t); err != nil {
		return trial{}, err
	}
	return trial{
		rate:   d.rate(),
		heapMB: (float64(heap1) - float64(heap0)) / (1 << 20),
		window: [2]usage{d.at10, d.at90},
		failed: t.failed(),
	}, nil
}

// nativeTrial drains the backlog with the hand-written Samza task. Its
// output is checked by count: one row per expected SQL output row.
func (c *cluster) nativeTrial(w *workloadSpec, o *oracle, k int) (trial, error) {
	runner := c.runner()
	defer c.cleanup()
	const out = "native-out"
	if err := c.broker.EnsureTopic(out, kafka.TopicConfig{Partitions: partitions}); err != nil {
		return trial{}, err
	}
	spec := w.native(out)
	spec.Name = fmt.Sprintf("native-%s-%d", w.name, k)
	runtime.GC()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rj, err := runner.Submit(ctx, spec)
	if err != nil {
		return trial{}, err
	}
	d, err := awaitDrain(c.broker, rj, int64(w.messages))
	rj.Stop()
	if err != nil {
		return trial{failed: w.messages, reason: fmt.Errorf("native %s: %w", w.name, err)}, nil
	}
	rows, err := topicSize(c.broker, []string{out})
	if err != nil {
		return trial{}, err
	}
	failed := int64(o.expectedRows(w.messages)) - rows
	return trial{rate: d.rate(), window: [2]usage{d.at10, d.at90}, failed: int(max(failed, -failed))}, nil
}

// readOutput checks every row of topic.
func readOutput(b *kafka.Broker, topic string, t *tally) error {
	for p := int32(0); p < partitions; p++ {
		tp := kafka.TopicPartition{Topic: topic, Partition: p}
		hwm, err := b.HighWatermark(tp)
		if err != nil {
			return err
		}
		for off := int64(0); off < hwm; {
			msgs, _, err := b.Fetch(tp, off, 4096)
			if err != nil {
				return err
			}
			t.check(msgs, nil)
			off = msgs[len(msgs)-1].Offset + 1
		}
	}
	return nil
}
