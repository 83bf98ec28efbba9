package executor

import (
	"testing"

	"samzasql/internal/profile"
)

// TestFilterProcessZeroAllocsWithProfiler pins the acceptance bound for
// continuous profiling: a constructed-but-idle profiler must not add
// allocations to the hot path. Between capture windows the profiler holds
// no locks and runs no code on the task path, so the same task allocates
// exactly as much with the profiler object live in the process as before it
// existed. (During a capture window the runtime's CPU sampler itself costs a
// few percent; the overhead sweep in EXPERIMENTS.md measures that
// separately.)
func TestFilterProcessZeroAllocsWithProfiler(t *testing.T) {
	task, coll, miss, hit := setupFilterTask(t, nil)
	base := filterPathAllocs(t, task, miss, hit)
	checkFilterPathAllocs(t, base)

	prof := profile.New(profile.Config{}, false)
	if prof.Enabled() {
		t.Fatal("profiler should be idle")
	}
	if _, err := prof.Capture(t.Context()); err == nil {
		t.Fatal("idle profiler must refuse captures")
	}
	checkNoAddedAllocs(t, "idle profiler", base, filterPathAllocs(t, task, miss, hit))
	if coll.sent == 0 {
		t.Fatal("hit path never reached the collector")
	}
}
