package profileguard

import (
	"samzasql/internal/profile"
	"samzasql/internal/trace"
)

// crossGuarded proves a package's calls count as guarded only under that
// package's own bit: the trace sample bit does not guard profiler calls.
//
//samzasql:hotpath
func crossGuarded(prof *profile.Profiler, act *trace.Active) {
	if act.Sampled() {
		_, _ = prof.CaptureHeapDelta() // want `unguarded profile\.CaptureHeapDelta call in //samzasql:hotpath function crossGuarded`
	}
}
