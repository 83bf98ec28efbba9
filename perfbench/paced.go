package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/samza"
)

// pacedWarmup is the head of the paced phase whose latencies are not
// recorded: the container's first polls and caches settle in it.
const pacedWarmup = 500 * time.Millisecond

// paced is the result of one open-loop phase.
type paced struct {
	// latency holds, per output row after the warm-up, the time from its
	// input's scheduled send time until the tailer saw it (ns).
	latency []int64
	// genLate holds how late the generator sent each input (ns).
	genLate []int64
	// backlogEnd is the job's input lag when the generator stopped.
	backlogEnd int64
	// msgsPerPoll is input messages per non-empty container poll.
	msgsPerPoll float64
	sent        int
	failed      int
	reason      error
}

// pacedPhase runs the SamzaSQL query on an empty input topic and feeds it
// the backlog's first rate*dur orders on a fixed schedule (open loop: the
// schedule never waits for the job). One goroutine sends, one tails the
// output topic; every output row is checked against the oracle.
func pacedPhase(w *workloadSpec, bl *backlog, o *oracle, dur time.Duration) (paced, error) {
	m := min(int(w.pacedRate*dur.Seconds()), len(bl.orders))
	warm := int(w.pacedRate * pacedWarmup.Seconds())
	c, err := newCluster(w, bl, 0)
	if err != nil {
		return paced{}, err
	}
	c.runner()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, err := c.engine.Prepare(w.sql)
	if err != nil {
		return paced{}, err
	}
	job, err := c.engine.Submit(ctx, p)
	if err != nil {
		return paced{}, err
	}
	defer job.Stop()
	if err := awaitReady(c.broker, job.Main, p.JobName, p.Program.Stores, w); err != nil {
		return paced{failed: m, sent: m, reason: err}, nil
	}

	tail := kafka.NewConsumer(c.broker, "")
	defer tail.Close()
	for part := int32(0); part < partitions; part++ {
		if err := tail.Assign(kafka.TopicPartition{Topic: p.OutputTopic, Partition: part}); err != nil {
			return paced{}, err
		}
	}
	res := paced{sent: m, genLate: make([]int64, 0, m), latency: make([]int64, 0, m)}
	t := o.tally(m)
	interval := float64(time.Second) / w.pacedRate
	sched := func(i int) int64 { return int64(float64(i) * interval) }
	var seen atomic.Int64
	var genErr, tailErr error
	var gen, tailer sync.WaitGroup
	runtime.GC()
	start := time.Now()
	gen.Add(1)
	go func() {
		defer gen.Done()
		genErr = sendPaced(c.broker, bl, m, warm, start, sched, &res.genLate)
	}()
	tailCtx, stopTail := context.WithCancel(ctx)
	defer stopTail()
	tailer.Add(1)
	go func() {
		defer tailer.Done()
		tailErr = tailOutput(tailCtx, tail, t, warm, start, sched, &res.latency, &seen)
	}()
	gen.Wait()
	res.backlogEnd = job.Main.UpdateLags()
	if genErr != nil {
		stopTail()
		tailer.Wait()
		return paced{}, genErr
	}

	// Wait until the job has processed every input and the tailer has seen
	// every expected row, failing on a stall of either.
	want, wantRows := int64(m), int64(o.expectedRows(m))
	processed := func() int64 {
		var n int64
		for _, r := range job.Main.ContainerMetrics() {
			n += r.Counter("messages-processed").Value()
		}
		return n
	}
	last, lastChange := int64(-1), time.Now()
	for {
		pr, sr := processed(), seen.Load()
		if pr >= want && sr >= wantRows {
			break
		}
		if now := time.Now(); pr+sr != last {
			last, lastChange = pr+sr, now
		} else if now.Sub(lastChange) > stallBound {
			res.reason = fmt.Errorf("paced %s: stalled at %d of %d inputs, %d of %d output rows", w.name, pr, want, sr, wantRows)
			break
		}
		if regs := len(job.Main.ContainerMetrics()); regs > 1 {
			res.reason = fmt.Errorf("paced %s: container restarted (%d attempts)", w.name, regs)
			break
		}
		time.Sleep(progressTick)
	}
	stopTail()
	tailer.Wait()
	if tailErr != nil {
		return paced{}, tailErr
	}
	// Rows still in flight when the tailer stopped (late duplicates) are
	// checked too.
	if err := drainTail(tail, t); err != nil {
		return paced{}, err
	}
	if err := checkRetention(c.broker, ordersTopic); err != nil && res.reason == nil {
		res.reason = err
	}
	if res.reason != nil {
		res.failed = m
		return res, nil
	}
	res.failed = t.failed()
	reg := job.Main.ContainerMetrics()[0]
	var polls int64
	for part := int32(0); part < partitions; part++ {
		polls += reg.Timer("task." + string(samza.TaskNameFor(part)) + ".process-ns").Histogram().Count()
	}
	res.msgsPerPoll = float64(processed()) / float64(polls)
	return res, nil
}

// awaitReady waits until every task of the job runs and, for relation
// workloads, the relation has been bootstrapped into the join store.
func awaitReady(b *kafka.Broker, rj *samza.RunningJob, jobName string, stores []samza.StoreSpec, w *workloadSpec) error {
	deadline := time.Now().Add(stallBound)
	loaded := relationLoaded(b, w, jobName, stores)
	for time.Now().Before(deadline) {
		running := 0
		for _, state := range rj.TaskHealth() {
			if state == "running" {
				running++
			}
		}
		if running == partitions && loaded() {
			return nil
		}
		time.Sleep(progressTick)
	}
	return fmt.Errorf("paced %s: job not ready after %v", w.name, stallBound)
}

// relationLoaded reports, for relation workloads, whether the job has
// bootstrapped the whole relation into its store: the store's changelog
// holds one record per product. Other workloads have nothing to load.
func relationLoaded(b *kafka.Broker, w *workloadSpec, jobName string, stores []samza.StoreSpec) func() bool {
	if !w.relation || len(stores) == 0 {
		return func() bool { return true }
	}
	topic := (&samza.JobSpec{Name: jobName}).ChangelogTopic(stores[0].Name)
	return func() bool {
		var records int64
		for p := int32(0); p < partitions; p++ {
			if hwm, err := b.HighWatermark(kafka.TopicPartition{Topic: topic, Partition: p}); err == nil {
				records += hwm
			}
		}
		return records >= int64(w.products)
	}
}

// sendPaced sends orders [0, m) at their scheduled times, in small batches
// of whatever is due, recording how late each order after warm went out.
func sendPaced(b *kafka.Broker, bl *backlog, m, warm int, start time.Time, sched func(int) int64, late *[]int64) error {
	const maxBatch = 256
	batch := make([]kafka.Message, 0, maxBatch)
	for i := 0; i < m; {
		now := int64(time.Since(start))
		if next := sched(i); next > now {
			time.Sleep(time.Duration(next - now))
			continue
		}
		batch = batch[:0]
		for ; i < m && len(batch) < maxBatch && sched(i) <= now; i++ {
			batch = append(batch, bl.message(i))
			if i >= warm {
				*late = append(*late, now-sched(i))
			}
		}
		if err := b.ProduceBatch(ordersTopic, batch); err != nil {
			return fmt.Errorf("paced send: %w", err)
		}
	}
	return nil
}

// tailOutput reads the output topic until ctx ends, checking each row and
// recording the latency of rows whose input was scheduled after warm.
func tailOutput(ctx context.Context, c *kafka.Consumer, t *tally, warm int, start time.Time, sched func(int) int64, lat *[]int64, seen *atomic.Int64) error {
	for {
		msgs, err := c.Poll(ctx, 512)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("paced tail: %w", err)
		}
		now := int64(time.Since(start))
		t.check(msgs, func(i int) {
			if i >= warm {
				*lat = append(*lat, now-sched(i))
			}
		})
		seen.Store(int64(t.ok))
	}
}

// drainTail checks whatever output is left after the tailer stopped.
func drainTail(c *kafka.Consumer, t *tally) error {
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		msgs, err := c.Poll(ctx, 4096)
		cancel()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("paced tail: %w", err)
		}
		t.check(msgs, nil)
	}
}
