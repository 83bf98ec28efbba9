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
	"samzasql/internal/kv"
	"samzasql/internal/operators"
	"samzasql/internal/samza"
	"samzasql/internal/sql/physical"

	samzametrics "samzasql/internal/metrics"
)

// The traced run plays a SamzaSQL container on one goroutine, calling
// each layer through its public functions and timing it from outside:
// Consumer.Poll, Program.RouteBatch, the batch sender's
// Broker.ProduceBatch, the store stack (a counting wrapper directly over
// the skiplist, another over the write-through ChangelogStore) and the
// commit (Flush, then CheckpointManager.Write). Because one goroutine does
// all the work, the self times add up to the loop's wall time, and that
// goroutine's thread CPU time, read separately, says how much of the wall
// time was spent on a CPU.

const (
	// commitEvery is the SamzaSQL job's commit interval in messages per
	// task (executor.Engine.Submit sets CommitEvery to 1000).
	commitEvery = 1000
	// pollMax is the container's default poll size (samza.DefaultBatchSize).
	pollMax = samza.DefaultBatchSize
	// turnBlocks is how many blocks a task processes per turn of the loop.
	turnBlocks = 16
	// soloOut is the solo runs' output topic.
	soloOut = "solo-out"
)

// kvCounts accumulates the work and time of the store calls made through
// one layer.
type kvCounts struct {
	reads, found, writes, scans, entries int64
	readNs, writeNs, scanNs              int64
}

func (c *kvCounts) ns() int64 { return c.readNs + c.writeNs + c.scanNs }

func (c *kvCounts) add(o kvCounts) {
	c.reads += o.reads
	c.found += o.found
	c.writes += o.writes
	c.scans += o.scans
	c.entries += o.entries
	c.readNs += o.readNs
	c.writeNs += o.writeNs
	c.scanNs += o.scanNs
}

// timedStore counts and times every call into the store below it. The
// solo run puts one directly over the skiplist and one over the
// ChangelogStore. It forwards GetMany, so the batched read path stays
// batched, and Flush, so commits reach the changelog.
type timedStore struct {
	inner kv.Store
	c     *kvCounts
}

func (s *timedStore) Get(key []byte) ([]byte, bool) {
	t := time.Now()
	v, ok := s.inner.Get(key)
	s.c.readNs += int64(time.Since(t))
	s.c.reads++
	if ok {
		s.c.found++
	}
	return v, ok
}

func (s *timedStore) GetMany(keys [][]byte, vals [][]byte, oks []bool) {
	t := time.Now()
	kv.GetMany(s.inner, keys, vals, oks)
	s.c.readNs += int64(time.Since(t))
	s.c.reads += int64(len(keys))
	for _, ok := range oks {
		if ok {
			s.c.found++
		}
	}
}

func (s *timedStore) Put(key, value []byte) {
	t := time.Now()
	s.inner.Put(key, value)
	s.c.writeNs += int64(time.Since(t))
	s.c.writes++
}

func (s *timedStore) Delete(key []byte) bool {
	t := time.Now()
	ok := s.inner.Delete(key)
	s.c.writeNs += int64(time.Since(t))
	s.c.writes++
	return ok
}

func (s *timedStore) Range(start, end []byte, limit int) []kv.Entry {
	t := time.Now()
	out := s.inner.Range(start, end, limit)
	s.c.scanNs += int64(time.Since(t))
	s.c.scans++
	s.c.entries += int64(len(out))
	return out
}

// Flush forwards the commit-time flush; its time is part of the commit.
func (s *timedStore) Flush() error {
	if f, ok := s.inner.(kv.Flushable); ok {
		return f.Flush()
	}
	return nil
}

func (s *timedStore) Len() int                     { return s.inner.Len() }
func (s *timedStore) Stats() (reads, writes int64) { return s.inner.Stats() }

// ledger is what one traced run run measured. Times are nanoseconds
// summed over the run.
type ledger struct {
	msgs, polls                          int64
	wallNs                               int64 // loop time, decode replay excluded
	loopWallNs, loopCPUNs                int64 // whole loop, replay included: wall and thread CPU time
	pollNs, routeNs, decodeNs, commitNs  int64
	produceNs, produceCalls, produceMsgs int64
	kv, changelog                        kvCounts // calls into the skiplist and into the changelog layer
	allocBytes                           int64    // heap allocated inside RouteBatch
	changelogRecords, liveKeys           int64
	compileNs                            []float64 // per task
}

// selfTimes splits the traced wall time into the layers' self times, in ns
// per message. Poll, RouteBatch and commit are timed back to back, and the
// loop's own bookkeeping between them is the rest of the wall time; inside
// RouteBatch, decode (the replayed DecodeBlock), the store stack and the
// produce calls are timed, and the operators' self time (kernels and
// encode) is what remains. The changelog's self time is the store stack's
// minus the skiplist's.
func (l *ledger) selfTimes() map[string]float64 {
	per := func(ns int64) float64 { return float64(ns) / float64(l.msgs) }
	return map[string]float64{
		"kafka.poll_ns_per_msg":     per(l.pollNs),
		"kafka.produce_ns_per_msg":  per(l.produceNs),
		"avro.decode_ns_per_msg":    per(l.decodeNs),
		"operators.self_ns_per_msg": per(l.routeNs - l.decodeNs - l.changelog.ns() - l.produceNs),
		"kv.read_ns_per_msg":        per(l.kv.readNs),
		"kv.write_ns_per_msg":       per(l.kv.writeNs),
		"kv.scan_ns_per_msg":        per(l.kv.scanNs),
		"changelog.ns_per_msg":      per(l.changelog.ns() - l.kv.ns()),
		"samza.commit_ns_per_msg":   per(l.commitNs),
		"ledger.loop_ns_per_msg":    per(l.wallNs - l.pollNs - l.routeNs - l.commitNs),
	}
}

// ledgerCPUFloor is the least share of the traced loop's wall time that its
// thread must spend on a CPU. Below it the loop mostly waited (on a lock or
// a sleep), and its wall-clock self times are not CPU costs. It sits well
// below what the host's steal takes: over loops of a tenth of a second on a
// shared 2-vCPU virtual machine the share was 46-97%.
const ledgerCPUFloor = 0.25

// check fails when the ledger cannot be read as the loop's cost: a self
// time found by subtraction is negative (an inner timer measured more than
// the timer around it), a layer every workload uses went unmeasured, or the
// loop's thread CPU time is below ledgerCPUFloor of its wall time or above
// it. That the self times sum to the wall time holds by their definition,
// so it is not checked.
func (l *ledger) check() error {
	for name, v := range l.selfTimes() {
		if v < 0 {
			return fmt.Errorf("ledger: %s is negative (%.1f)", name, v)
		}
	}
	if l.pollNs == 0 || l.routeNs == 0 || l.decodeNs == 0 || l.produceNs == 0 || l.commitNs == 0 {
		return fmt.Errorf("ledger: a layer went unmeasured: poll %d, route %d, decode %d, produce %d, commit %d ns",
			l.pollNs, l.routeNs, l.decodeNs, l.produceNs, l.commitNs)
	}
	// Thread CPU time has microsecond resolution: allow 1% above the wall.
	if share := l.cpuShare(); share < ledgerCPUFloor || share > 1.01 {
		return fmt.Errorf("ledger: the traced loop's thread ran on a CPU for %.0f%% of its wall time, want %.0f%% to 100%%",
			share*100, ledgerCPUFloor*100)
	}
	return nil
}

// cpuShare is the loop's thread CPU time over its wall time.
func (l *ledger) cpuShare() float64 { return float64(l.loopCPUNs) / float64(l.loopWallNs) }

// add accumulates another run's ledger.
func (l *ledger) add(o *ledger) {
	l.msgs += o.msgs
	l.polls += o.polls
	l.wallNs += o.wallNs
	l.loopWallNs += o.loopWallNs
	l.loopCPUNs += o.loopCPUNs
	l.pollNs += o.pollNs
	l.routeNs += o.routeNs
	l.decodeNs += o.decodeNs
	l.commitNs += o.commitNs
	l.produceNs += o.produceNs
	l.produceCalls += o.produceCalls
	l.produceMsgs += o.produceMsgs
	l.kv.add(o.kv)
	l.changelog.add(o.changelog)
	l.allocBytes += o.allocBytes
	l.changelogRecords += o.changelogRecords
	l.liveKeys = o.liveKeys // the same every run
	l.compileNs = append(l.compileNs, o.compileNs...)
}

// soloTask is one partition's program, store stack and consumer.
type soloTask struct {
	part      int32
	prog      *physical.Program
	consumer  *kafka.Consumer
	remaining int64
	flush     []kv.Flushable
	bases     []kv.Store
	since     int
	next      int64
	envs      []samza.IncomingMessageEnvelope
	block     operators.TupleBlock
}

// soloMode selects what a solo run does.
type soloMode int

const (
	modeTraced      soloMode = iota // SQL program, every layer timed
	modeUntimed                     // SQL program, no timers: the overhead reference
	modePassthrough                 // copy job: poll, produce raw bytes, commit
)

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocs() int64 {
	metrics.Read(allocSample)
	return int64(allocSample[0].Value.Uint64())
}

// runSolo loads the first n orders into a fresh broker and processes
// them on one goroutine in the given mode.
func runSolo(w *workloadSpec, bl *backlog, n int, mode soloMode) (*ledger, error) {
	c, err := newCluster(w, bl, n)
	if err != nil {
		return nil, err
	}
	b := c.broker
	if err := b.EnsureTopic(soloOut, kafka.TopicConfig{Partitions: partitions}); err != nil {
		return nil, err
	}
	// Each task compiles the plan the engine prepared, with the engine's
	// own options, as a SamzaSQL task does at Init.
	p, err := c.engine.Prepare(w.sql)
	if err != nil {
		return nil, err
	}
	opts := physical.Options{FastPath: c.engine.FastPath}
	job := &samza.JobSpec{Name: "solo-" + w.name}
	cpm, err := samza.NewCheckpointManager(b, job)
	if err != nil {
		return nil, err
	}
	led := &ledger{}
	timed := mode == modeTraced
	reg := samzametrics.NewRegistry()
	var changelogTopics []string
	tasks := make([]*soloTask, partitions)
	for part := range tasks {
		t := &soloTask{part: int32(part), consumer: kafka.NewConsumer(b, job.Name)}
		defer t.consumer.Close()
		tp := kafka.TopicPartition{Topic: ordersTopic, Partition: t.part}
		if err := t.consumer.Assign(tp); err != nil {
			return nil, err
		}
		if t.remaining, err = b.HighWatermark(tp); err != nil {
			return nil, err
		}
		tasks[part] = t
		if mode == modePassthrough {
			continue
		}
		topics, err := t.open(b, p, opts, w, job, reg, led, timed)
		if err != nil {
			return nil, err
		}
		if part == 0 {
			changelogTopics = topics
		}
	}
	// Bootstrap is set-up, not per-message work: start the ledger here.
	led.kv, led.changelog = kvCounts{}, kvCounts{}
	clStart, err := topicSize(b, changelogTopics)
	if err != nil {
		return nil, err
	}

	r := &soloRun{broker: b, cpm: cpm, led: led, mode: mode}
	runtime.GC()
	// The loop keeps its OS thread, so that thread's CPU time is the
	// loop's.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpuStart := threadCPU()
	loopStart := time.Now()
	for active := len(tasks); active > 0; {
		active = 0
		for _, t := range tasks {
			if t.remaining == 0 {
				continue
			}
			active++
			// A task keeps the loop for several blocks, as a task goroutine
			// keeps its processor for a scheduler time slice.
			for n := 0; n < turnBlocks && t.remaining > 0; n++ {
				if err := r.step(t); err != nil {
					return nil, err
				}
			}
		}
	}
	led.loopWallNs = int64(time.Since(loopStart))
	led.loopCPUNs = threadCPU() - cpuStart
	led.wallNs = led.loopWallNs - r.excluded
	clEnd, err := topicSize(b, changelogTopics)
	if err != nil {
		return nil, err
	}
	led.changelogRecords = clEnd - clStart
	for _, t := range tasks {
		for _, s := range t.bases {
			led.liveKeys += int64(s.Len())
		}
	}
	return led, nil
}

// soloRun is the state one solo run's loop shares across tasks.
type soloRun struct {
	broker *kafka.Broker
	cpm    *samza.CheckpointManager
	led    *ledger
	mode   soloMode
	// excluded is time inside the loop left out of its wall time (the
	// decode replay).
	excluded int64
	out      []kafka.Message
}

// step polls one block for the task, processes it (or, in passthrough
// mode, copies it to the output topic) and commits when the task is due.
func (r *soloRun) step(t *soloTask) error {
	timed := r.mode == modeTraced
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	msgs, err := t.consumer.Poll(context.Background(), pollMax)
	if err != nil {
		return err
	}
	if timed {
		r.led.pollNs += int64(time.Since(t0))
	}
	r.led.polls++
	r.led.msgs += int64(len(msgs))
	t.remaining -= int64(len(msgs))
	t.since += len(msgs)
	t.next = msgs[len(msgs)-1].Offset + 1
	if r.mode == modePassthrough {
		r.out = r.out[:0]
		for i := range msgs {
			r.out = append(r.out, kafka.Message{Partition: t.part, Key: msgs[i].Key, Value: msgs[i].Value, Timestamp: msgs[i].Timestamp})
		}
		if err := r.broker.ProduceBatch(soloOut, r.out); err != nil {
			return err
		}
	} else if err := t.route(msgs, r.led, timed, &r.excluded); err != nil {
		return err
	}
	if t.since < commitEvery && t.remaining > 0 {
		return nil
	}
	if timed {
		t0 = time.Now()
	}
	if err := t.commit(r.cpm); err != nil {
		return err
	}
	if timed {
		r.led.commitNs += int64(time.Since(t0))
	}
	return nil
}

// rusageThread is Linux's RUSAGE_THREAD, which the syscall package does
// not name: the calling thread's resource usage.
const rusageThread = 1

// threadCPU is the calling thread's user and system CPU time in ns.
func threadCPU() int64 {
	var ru syscall.Rusage
	// Getrusage cannot fail with a valid pointer and who.
	_ = syscall.Getrusage(rusageThread, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// open compiles the prepared plan into the task's program, builds its store stack (skiplist,
// write-through ChangelogStore, Instrument, with the counting and timing
// wrappers between them when timed), binds its senders and opens its
// router, then bootstraps the relation. It returns the changelog topics.
func (t *soloTask) open(b *kafka.Broker, p *executor.Prepared, opts physical.Options, w *workloadSpec, job *samza.JobSpec, reg *samzametrics.Registry, led *ledger, timed bool) (changelogTopics []string, err error) {
	start := time.Now()
	t.prog, err = physical.CompileWithOptions(p.Optimized, soloOut, opts)
	led.compileNs = append(led.compileNs, float64(time.Since(start)))
	if err != nil {
		return nil, err
	}
	stores := map[string]kv.Store{}
	for _, spec := range t.prog.Stores {
		if !spec.Changelog {
			return nil, fmt.Errorf("store %q has no changelog; the ledger assumes every store has one", spec.Name)
		}
		base := kv.NewStore()
		t.bases = append(t.bases, base)
		var s kv.Store = base
		if timed {
			s = &timedStore{inner: base, c: &led.kv}
		}
		topic := job.ChangelogTopic(spec.Name)
		cl, err := kv.NewChangelogStore(s, b, topic, partitions, t.part)
		if err != nil {
			return nil, err
		}
		// Write-through, as the container configures it by default.
		cl.SetWriteBatchSize(1)
		changelogTopics = append(changelogTopics, topic)
		s = cl
		if timed {
			s = &timedStore{inner: cl, c: &led.changelog}
		}
		s = kv.Instrument(s, reg, spec.Name)
		stores[spec.Name] = s
		t.flush = append(t.flush, s.(kv.Flushable))
	}
	send := func(stream string, partition int32, key, value []byte, ts int64) error {
		_, err := b.Produce(stream, kafka.Message{Partition: partition, Key: key, Value: value, Timestamp: ts})
		return err
	}
	sendBatch := b.ProduceBatch
	if timed {
		send, sendBatch = timedSenders(send, sendBatch, led)
	}
	t.prog.SetSender(send)
	t.prog.SetBatchSender(sendBatch)
	err = t.prog.Router.Open(&operators.OpContext{
		Store:     func(name string) kv.Store { return stores[name] },
		Partition: t.part,
		Metrics:   reg,
	})
	if err != nil {
		return nil, err
	}
	if w.relation {
		if err := bootstrap(b, t); err != nil {
			return nil, err
		}
	}
	return changelogTopics, nil
}

// timedSenders wraps the program's output senders to time and count every
// produce call.
func timedSenders(send operators.Sender, sendBatch operators.BatchSender, led *ledger) (operators.Sender, operators.BatchSender) {
	return func(stream string, partition int32, key, value []byte, ts int64) error {
			start := time.Now()
			err := send(stream, partition, key, value, ts)
			led.produceNs += int64(time.Since(start))
			led.produceCalls++
			led.produceMsgs++
			return err
		}, func(stream string, msgs []kafka.Message) error {
			start := time.Now()
			err := sendBatch(stream, msgs)
			led.produceNs += int64(time.Since(start))
			led.produceCalls++
			led.produceMsgs += int64(len(msgs))
			return err
		}
}

// route drives one polled batch through the task's program. When timed, it
// also records RouteBatch's allocations and replays the scan's DecodeBlock
// on the same messages to time decoding; the replay is excluded from the
// loop's wall time.
func (t *soloTask) route(msgs []kafka.Message, led *ledger, timed bool, excluded *int64) error {
	envs := t.envs[:0]
	for i := range msgs {
		m := &msgs[i]
		envs = append(envs, samza.IncomingMessageEnvelope{
			Stream: m.Topic, Partition: m.Partition, Offset: m.Offset,
			Key: m.Key, Value: m.Value, Timestamp: m.Timestamp,
		})
	}
	t.envs = envs
	if !timed {
		return t.prog.RouteBatch(envs, nil, 0)
	}
	a0 := heapAllocs()
	r0 := time.Now()
	if err := t.prog.RouteBatch(envs, nil, 0); err != nil {
		return err
	}
	r1 := time.Now()
	led.routeNs += int64(r1.Sub(r0))
	led.allocBytes += heapAllocs() - a0

	x0 := time.Now()
	b := &t.block
	b.Reset(ordersTopic, t.part, len(envs))
	for i := range envs {
		b.Raw = append(b.Raw, envs[i].Value)
		b.Keys = append(b.Keys, envs[i].Key)
		b.Ts = append(b.Ts, envs[i].Timestamp)
		b.Offsets = append(b.Offsets, envs[i].Offset)
	}
	d0 := time.Now()
	if err := t.prog.Inputs[0].Scan.DecodeBlock(b); err != nil {
		return err
	}
	led.decodeNs += int64(time.Since(d0))
	*excluded += int64(time.Since(x0))
	return nil
}

// commit flushes the task's stores and writes its checkpoint, the
// container's commit sequence.
func (t *soloTask) commit(cpm *samza.CheckpointManager) error {
	for _, f := range t.flush {
		if err := f.Flush(); err != nil {
			return err
		}
	}
	t.since = 0
	return cpm.Write(samza.Checkpoint{
		Task:    samza.TaskNameFor(t.part),
		Offsets: map[string]int64{ordersTopic: t.next},
	})
}

// bootstrap feeds the task's Products partition through the program, as
// the container does before any stream input.
func bootstrap(b *kafka.Broker, t *soloTask) error {
	tp := kafka.TopicPartition{Topic: productsTopic, Partition: t.part}
	hwm, err := b.HighWatermark(tp)
	if err != nil {
		return err
	}
	for off := int64(0); off < hwm; {
		msgs, _, err := b.Fetch(tp, off, 512)
		if err != nil {
			return err
		}
		for _, m := range msgs {
			if err := t.prog.RouteMessage(m.Topic, m.Value, m.Key, m.Timestamp, m.Partition, m.Offset); err != nil {
				return err
			}
		}
		off = msgs[len(msgs)-1].Offset + 1
	}
	return nil
}

// topicSize sums the high watermarks of every partition of the topics.
func topicSize(b *kafka.Broker, topics []string) (int64, error) {
	var n int64
	for _, topic := range topics {
		for p := int32(0); p < partitions; p++ {
			hwm, err := b.HighWatermark(kafka.TopicPartition{Topic: topic, Partition: p})
			if err != nil {
				return 0, err
			}
			n += hwm
		}
	}
	return n, nil
}
