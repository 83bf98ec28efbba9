package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"samzasql/internal/monitor"
)

// hotFunctionsTopN bounds the hot-function list a profiled run records.
const hotFunctionsTopN = 15

// CollectHotFunctions runs one profiled, monitored filter benchmark and
// returns the cluster-merged CPU hot-function list as flat-share
// percentages — the per-function baseline `make bench-compare` attributes
// ratio regressions against. Shares (not absolute nanoseconds) compare
// across machines of different speeds.
func CollectHotFunctions(messages int) ([]HotFunctionReport, error) {
	cfg := DefaultConfig()
	cfg.Messages = messages
	cfg.Monitor = true
	// Aggressive capture: short runs need the CPU sampler always on to
	// attribute enough samples.
	cfg.ProfileInterval = 150 * time.Millisecond
	cfg.ProfileWindow = 150 * time.Millisecond
	res, err := RunSQLProfiled("filter", cfg)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RunSQLProfiled is RunSQL plus hot-function collection: it keeps the
// monitor handle long enough to read the hot store after the run drains.
func RunSQLProfiled(query string, cfg Config) ([]HotFunctionReport, error) {
	sql, ok := Queries[query]
	if !ok {
		return nil, fmt.Errorf("bench: unknown SQL query %q", query)
	}
	if cfg.MetricsInterval <= 0 {
		cfg.MetricsInterval = 10 * time.Millisecond
	}
	cfg.Monitor = true
	e, err := newEnv(cfg)
	if err != nil {
		return nil, err
	}
	mon, stopMon, err := e.startMonitor(cfg, nil)
	if err != nil {
		return nil, err
	}
	defer stopMon()
	if err := e.loadOrders(cfg); err != nil {
		return nil, err
	}
	e.engine.Containers = cfg.Containers
	e.engine.ProfileInterval = cfg.ProfileInterval
	e.engine.ProfileWindow = cfg.ProfileWindow
	e.engine.MetricsInterval = cfg.MetricsInterval

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	p, rj, err := e.engine.ExecuteStream(ctx, sql)
	if err != nil {
		return nil, err
	}
	if _, err := awaitProcessed(rj, int64(cfg.Messages), start, benchTimeout); err != nil {
		rj.Stop()
		return nil, err
	}
	// Wait for CPU-bearing batches to reach the monitor, then let the tail
	// of the stream drain before reading the final merged list.
	deadline := time.Now().Add(10 * time.Second)
	var funcs []monitor.HotFunc
	for time.Now().Before(deadline) {
		funcs, _ = mon.HotStore().TopN(p.JobName, monitor.HotKindCPU, hotFunctionsTopN, 0)
		if len(funcs) > 0 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if len(funcs) > 0 {
		time.Sleep(300 * time.Millisecond)
		funcs, _ = mon.HotStore().TopN(p.JobName, monitor.HotKindCPU, hotFunctionsTopN, 0)
	}
	rj.Stop()
	if len(funcs) == 0 {
		return nil, fmt.Errorf("bench: profiled %s run yielded no cpu hot functions", query)
	}
	var total int64
	for _, f := range funcs {
		total += f.Flat
	}
	out := make([]HotFunctionReport, 0, len(funcs))
	for _, f := range funcs {
		r := HotFunctionReport{Name: f.Name}
		if total > 0 {
			r.FlatPct = 100 * float64(f.Flat) / float64(total)
			r.CumPct = 100 * float64(f.Cum) / float64(total)
		}
		out = append(out, r)
	}
	return out, nil
}

// FormatHotFunctions renders a collected hot-function baseline.
func FormatHotFunctions(funcs []HotFunctionReport) string {
	var sb strings.Builder
	sb.WriteString("CPU hot functions (profiled filter run, share of sampled CPU)\n")
	fmt.Fprintf(&sb, "%-56s %9s %9s\n", "function", "flat", "cum")
	for _, f := range funcs {
		fmt.Fprintf(&sb, "%-56s %8.1f%% %8.1f%%\n", f.Name, f.FlatPct, f.CumPct)
	}
	return sb.String()
}

// HotShift is one function's flat-share change between a baseline report
// and a fresh profiled run.
type HotShift struct {
	Name string
	// OldPct/NewPct are flat shares of sampled CPU in percent; 0 when the
	// function is absent from that side.
	OldPct float64
	NewPct float64
	Delta  float64
}

// CompareHotFunctions diffs two hot-function lists by flat share, returning
// the biggest risers first — the attribution table a flagged ratio
// regression prints so the offending function arrives with the alarm.
func CompareHotFunctions(baseline, fresh []HotFunctionReport) []HotShift {
	old := map[string]float64{}
	for _, f := range baseline {
		old[f.Name] = f.FlatPct
	}
	seen := map[string]bool{}
	var out []HotShift
	for _, f := range fresh {
		seen[f.Name] = true
		out = append(out, HotShift{Name: f.Name, OldPct: old[f.Name], NewPct: f.FlatPct, Delta: f.FlatPct - old[f.Name]})
	}
	for _, f := range baseline {
		if !seen[f.Name] {
			out = append(out, HotShift{Name: f.Name, OldPct: f.FlatPct, Delta: -f.FlatPct})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Delta > out[j].Delta })
	return out
}

// FormatHotShifts renders the top risers of a hot-function comparison.
func FormatHotShifts(shifts []HotShift, top int) string {
	if len(shifts) == 0 {
		return "(no hot-function baseline to attribute against)\n"
	}
	if top > 0 && len(shifts) > top {
		shifts = shifts[:top]
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-56s %9s %9s %9s\n", "hot function (cpu flat share)", "base", "current", "delta")
	for _, s := range shifts {
		fmt.Fprintf(&sb, "%-56s %8.1f%% %8.1f%% %+8.1f%%\n", s.Name, s.OldPct, s.NewPct, s.Delta)
	}
	return sb.String()
}
