package physical

import (
	"time"

	"samzasql/internal/samza"
	"samzasql/internal/trace"
)

// This file is how a compiled program runs: RouteBatch drives one polled
// batch (always from a single topic-partition) through its topic's block
// chain — the scan decodes the block once, each operator's ProcessBlock
// runs once per block, and the insert flushes the outputs in one batched
// send. Stateful stages (aggregate, sliding window, joins) cluster each
// block by key and batch their state reads (operators/block_stateful.go).

// RouteBatch drives one polled batch through the program. The envelopes
// come from a single topic-partition in offset order (the consumer's poll
// contract); a topic the plan does not consume is ignored. act may be nil
// (bounded execution, tests); sampled messages inside the batch get their
// spans replayed at batch granularity with row counts.
//
//samzasql:hotpath
func (p *Program) RouteBatch(envs []samza.IncomingMessageEnvelope, act *trace.Active, pollNs int64) error {
	if len(envs) == 0 {
		return nil
	}
	topic := envs[0].Stream
	entry := p.entries[topic]
	if entry == nil {
		return nil // not an input of this query
	}
	b := &p.blockArena
	b.Reset(topic, envs[0].Partition, len(envs))
	sampled := 0
	for i := range envs {
		env := &envs[i]
		b.Raw = append(b.Raw, env.Value)
		b.Keys = append(b.Keys, env.Key)
		b.Ts = append(b.Ts, env.Timestamp)
		b.Offsets = append(b.Offsets, env.Offset)
		if env.Trace.Sampled {
			sampled++
		}
	}
	var startNs int64
	if sampled > 0 {
		p.btrace.Reset()
		b.Trace = &p.btrace
		startNs = time.Now().UnixNano()
	}
	if err := entry(b); err != nil {
		return err
	}
	if sampled > 0 {
		p.replayBlockTrace(envs, act, pollNs, startNs, time.Now().UnixNano())
	}
	return nil
}

// replayBlockTrace reconstructs per-message trace trees for the sampled
// messages of a completed block: each gets its produce/poll/process spans
// plus the block's batch-level operator spans (carrying the row counts they
// covered), so vectorization changes span granularity but never drops
// sampled messages from the trace stream.
func (p *Program) replayBlockTrace(envs []samza.IncomingMessageEnvelope, act *trace.Active, pollNs, startNs, endNs int64) {
	for i := range envs {
		if !envs[i].Trace.Sampled {
			continue
		}
		act.StartMessage(envs[i].Trace, pollNs, startNs)
		for _, sp := range p.btrace.Spans {
			act.StageRows(sp.Stage, sp.StartNs, sp.EndNs, sp.Rows)
		}
		act.FinishMessage(endNs)
	}
}
