// Package operators implements SamzaSQL's physical operator layer (§4):
// scan (AvroToArray), filter, project, streaming aggregate (HOP/TUMBLE),
// the sliding-window operator of Algorithm 1, stream-to-stream and
// stream-to-relation joins, and stream insert (ArrayToAvro) — plus the
// message router that opens them inside a Samza task. Every operator runs
// one columnar TupleBlock per call (block.go).
package operators

import (
	"samzasql/internal/kv"
	"samzasql/internal/metrics"
	"samzasql/internal/trace"
)

// OpContext gives operators access to task-local state and metrics.
type OpContext struct {
	// Store resolves a named task-local store.
	Store func(name string) kv.Store
	// Partition is the task's input partition.
	Partition int32
	// Metrics is the container registry.
	Metrics *metrics.Registry
	// Trace is the task's tracing cursor; may be nil (bounded execution,
	// tests). Hot-path uses must branch on Trace.Sampled() — nil-safe —
	// before any other call (enforced by the samzasql-vet telemetry-guard rule).
	Trace *trace.Active
}

// Operator is one stage of a compiled plan. Open is called once before any
// block, after state restore; ProcessBlock handles a whole block per call,
// emitting zero or more blocks downstream. Side distinguishes join inputs
// (0 = left/only, 1 = right); linear operators ignore it.
type Operator interface {
	Open(ctx *OpContext) error
	ProcessBlock(side int, b *TupleBlock, emit BlockEmit) error
}

// Router is the message router of §4.2. Blocks flow through the compiled
// per-topic chains (see physical.Program.RouteBatch); the router only owns
// the operators' lifecycle, opening every registered operator once.
type Router struct {
	// operators in Open order (sources first).
	ops []Operator
}

// NewRouter returns an empty router.
func NewRouter() *Router { return &Router{} }

// Register records an operator for lifecycle management.
func (r *Router) Register(op Operator) {
	r.ops = append(r.ops, op)
}

// Open opens every registered operator.
func (r *Router) Open(ctx *OpContext) error {
	for _, op := range r.ops {
		if err := op.Open(ctx); err != nil {
			return err
		}
	}
	return nil
}
