// Package trace implements a sampled, allocation-disciplined tracing
// subsystem for the SamzaSQL substrate. A trace context (trace ID, parent
// span, sample bit) is attached to a message at produce time, propagated
// through the container poll path, the operator chain and state-store
// operations, and closed at commit — yielding a causal span tree per
// sampled message. The package is deliberately dependency-free (types and
// logic only) so every layer of the substrate can import it without cycles.
//
// Discipline: with sampling disabled, the entire surface collapses to a
// nil/bool check — no allocation, no atomic traffic, no time reads. Every
// call into this package from a //samzasql:hotpath function must be guarded
// on the sample bit (enforced by the samzasql-vet telemetry-guard analyzer).
package trace

import "sync/atomic"

// idCounter issues process-unique trace and span IDs. A counter (rather
// than a random source) keeps ID allocation to one uncontended atomic add
// on the sampled path and makes test output deterministic per run.
var idCounter atomic.Uint64

// NextID returns a fresh nonzero process-unique ID.
func NextID() uint64 { return idCounter.Add(1) }

// Context is the per-message trace context carried on kafka.Message and the
// samza envelopes. The zero value means "not traced" and is what every
// unsampled message carries; its Sampled bit is the single branch the hot
// path pays.
type Context struct {
	// TraceID identifies the causal tree this message belongs to.
	TraceID uint64
	// SpanID is the ID of this message's produce span. The consuming
	// container synthesizes the produce span from the context, so a message
	// that is never consumed costs its producer nothing.
	SpanID uint64
	// ParentID is the span that caused the produce: zero for a root message
	// sampled at the broker, or the emitting operator's span for messages
	// produced mid-trace.
	ParentID uint64
	// Sampled is the decision bit. All other fields are meaningful only
	// when it is set.
	Sampled bool
	// StartNs is the produce wall-clock time (UnixNano), stamped when the
	// context is attached. The gap between it and the poll span is the
	// message's queue wait.
	StartNs int64
}

// NewRoot builds a sampled root context for a message entering the system
// at nowNs.
func NewRoot(nowNs int64) Context {
	return Context{TraceID: NextID(), SpanID: NextID(), Sampled: true, StartNs: nowNs}
}

// Span is one completed node of a trace tree: a named stage with start/end
// timestamps and a parent link. Spans are recorded complete (never mutated
// after recording), which is what lets the ring buffer publish them with a
// single sequence-number store.
type Span struct {
	TraceID  uint64 `json:"trace"`
	SpanID   uint64 `json:"span"`
	ParentID uint64 `json:"parent,omitempty"`
	// Stage names the pipeline stage: "produce", "poll", "process",
	// "operator.<name>", "store.<name>.<op>", "commit", ...
	Stage   string `json:"stage"`
	StartNs int64  `json:"start-ns"`
	EndNs   int64  `json:"end-ns"`
	// Rows is the number of rows the stage covered when the span was
	// recorded at batch granularity (the vectorized block path); zero for
	// per-message spans.
	Rows int64 `json:"rows,omitempty"`
}

// DurationNs is the span's wall-clock duration.
func (s *Span) DurationNs() int64 { return s.EndNs - s.StartNs }

// Event is one structured lifecycle event (job start/stop, container
// allocate/restart, task assignment, checkpoint commit, store flush),
// published on the trace stream so span anomalies can be correlated with
// runtime events.
type Event struct {
	// TimeNs is the event wall-clock time (UnixNano).
	TimeNs int64 `json:"time-ns"`
	// Kind is the event type, e.g. "job-start", "container-allocate",
	// "checkpoint-commit".
	Kind string `json:"kind"`
	// Detail carries the subject: a job name, container ID, task name.
	Detail string `json:"detail,omitempty"`
}
