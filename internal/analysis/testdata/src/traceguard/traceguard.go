// Package traceguard is a golden fixture for the trace-guard analyzer:
// trace calls in //samzasql:hotpath functions must branch on the sample bit
// first. Every `// want` comment is a regexp matched against the diagnostic
// on that line; lines without one must stay clean.
package traceguard

import "samzasql/internal/trace"

type envelope struct {
	Trace trace.Context
}

//samzasql:hotpath
func bad(act *trace.Active, m envelope) {
	act.Begin("stage", 0)     // want `unguarded trace\.Begin call in //samzasql:hotpath function bad`
	_ = trace.NextID()        // want `unguarded trace\.NextID call in //samzasql:hotpath function bad`
	if m.Trace.TraceID != 0 { // a non-Sampled condition does not guard
		act.End(1) // want `unguarded trace\.End call in //samzasql:hotpath function bad`
	}
}

//samzasql:hotpath
func good(act *trace.Active, m envelope) {
	// The Sampled check itself is the guard and is legal anywhere.
	if act.Sampled() {
		act.Begin("stage", 0)
		act.End(1)
	}
	// The field spelling of the sample bit guards too.
	if m.Trace.Sampled {
		act.Leaf("store.get", 0, 1)
	}
}

//samzasql:hotpath
func suppressed(act *trace.Active) {
	//samzasql:ignore telemetry-guard -- cold init path, runs once per task
	act.Begin("stage", 0) // want-suppressed `unguarded trace\.Begin call`
}

// cold has no annotation: unguarded trace calls are legal off the hot path.
func cold(act *trace.Active) {
	act.Begin("stage", 0)
	act.End(1)
}
