// Package profileguard is a golden fixture for the profile-guard analyzer:
// profiler calls in //samzasql:hotpath functions must branch on the enable
// bit first. Every `// want` comment is a regexp matched against the
// diagnostic on that line; lines without one must stay clean.
package profileguard

import "samzasql/internal/profile"

//samzasql:hotpath
func bad(prof *profile.Profiler, busy bool) {
	_, _ = prof.CaptureHeapDelta()  // want `unguarded profile\.CaptureHeapDelta call in //samzasql:hotpath function bad`
	_, _ = prof.CaptureGoroutines() // want `unguarded profile\.CaptureGoroutines call in //samzasql:hotpath function bad`
	if busy {                       // a non-Enabled condition does not guard
		profile.SortStats(nil) // want `unguarded profile\.SortStats call in //samzasql:hotpath function bad`
	}
}

//samzasql:hotpath
func good(prof *profile.Profiler) {
	// The Enabled check itself is the guard and is legal anywhere — it is
	// nil-safe and branch-only.
	if prof.Enabled() {
		_, _ = prof.CaptureHeapDelta()
		profile.SortStats(nil)
	}
}

//samzasql:hotpath
func suppressed(prof *profile.Profiler) {
	//samzasql:ignore telemetry-guard -- cold init path, runs once per task
	_, _ = prof.CaptureGoroutines() // want-suppressed `unguarded profile\.CaptureGoroutines call`
}

// cold has no annotation: unguarded profiler calls are legal off the hot
// path — the reporter goroutine lives here.
func cold(prof *profile.Profiler) {
	_, _ = prof.CaptureHeapDelta()
	_, _ = prof.CaptureGoroutines()
}
