package executor

import (
	"testing"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/monitor"
)

// TestFilterProcessZeroAllocsWithMonitor pins the acceptance bound for the
// observability pipeline: attaching the cluster monitor must not add
// allocations to the unsampled hot path. The same task is measured before
// the monitor starts and while it is live — tailers parked on the telemetry
// topics, run loop armed. testing.AllocsPerRun counts process-global mallocs,
// so the eval interval is pushed out of the measurement window to keep the
// check deterministic; what matters is that the attached monitor's standing
// machinery (goroutines, consumers, ring store) contributes nothing.
func TestFilterProcessZeroAllocsWithMonitor(t *testing.T) {
	task, coll, miss, hit := setupFilterTask(t, nil)
	base := filterPathAllocs(t, task, miss, hit)
	checkFilterPathAllocs(t, base)

	mon, err := monitor.Start(monitor.Config{Broker: kafka.NewBroker(), EvalInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Stop()
	checkNoAddedAllocs(t, "monitor attached", base, filterPathAllocs(t, task, miss, hit))
	if coll.sent == 0 {
		t.Fatal("hit path never reached the collector")
	}
}
