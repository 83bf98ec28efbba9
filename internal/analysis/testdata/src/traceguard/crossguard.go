package traceguard

import (
	"samzasql/internal/profile"
	"samzasql/internal/trace"
)

// crossGuarded proves a package's calls count as guarded only under that
// package's own bit: the profiler's enable bit does not guard trace calls.
//
//samzasql:hotpath
func crossGuarded(act *trace.Active, prof *profile.Profiler) {
	if prof.Enabled() {
		act.Begin("stage", 0) // want `unguarded trace\.Begin call in //samzasql:hotpath function crossGuarded`
	}
}
