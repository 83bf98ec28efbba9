// Package operators implements SamzaSQL's physical operator layer (§4):
// scan (AvroToArray), filter, project, streaming aggregate (HOP/TUMBLE),
// the sliding-window operator of Algorithm 1, stream-to-stream and
// stream-to-relation joins, and stream insert (ArrayToAvro) — plus the
// message router that flows tuples through them inside a Samza task.
package operators

import (
	"samzasql/internal/kv"
	"samzasql/internal/metrics"
	"samzasql/internal/trace"
)

// Tuple is one row in flight between operators: the tuple-as-array
// representation of Figure 4.
type Tuple struct {
	// Row holds the column values.
	Row []any
	// Ts is the event timestamp in Unix millis (from the stream's
	// timestamp column when it has one, else the message timestamp).
	Ts int64
	// Key is the output partitioning key; nil inherits Partition.
	Key []byte
	// Stream, Partition and Offset locate the source message.
	Stream    string
	Partition int32
	Offset    int64
}

// Emit passes a tuple to the next operator.
type Emit func(t *Tuple) error

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

// Operator is one stage of the router. Side distinguishes join inputs
// (0 = left/only, 1 = right); linear operators ignore it.
type Operator interface {
	// Open is called once before any tuple, after state restore.
	Open(ctx *OpContext) error
	// Process handles one tuple, emitting zero or more results.
	Process(side int, t *Tuple, emit Emit) error
}

// Router is the message router of §4.2: it maps each input stream to an
// entry chain and flows tuples through the operator DAG.
type Router struct {
	// entries maps source stream name to its processing function.
	entries map[string]func(t *Tuple) error
	// operators in Open order (sources first).
	ops []Operator
}

// NewRouter returns an empty router.
func NewRouter() *Router {
	return &Router{entries: map[string]func(t *Tuple) error{}}
}

// AddEntry binds a source stream to its entry function.
func (r *Router) AddEntry(stream string, fn func(t *Tuple) error) {
	r.entries[stream] = fn
}

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

// Route dispatches a tuple from the named source stream.
func (r *Router) Route(stream string, t *Tuple) error {
	fn, ok := r.entries[stream]
	if !ok {
		return nil // not an input of this query
	}
	return fn(t)
}

// Streams lists the router's input streams.
func (r *Router) Streams() []string {
	out := make([]string, 0, len(r.entries))
	for s := range r.entries {
		out = append(out, s)
	}
	return out
}
