package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// metric names one reported figure and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the system sees (--trace 0).
var endToEnd = []metric{
	{"sql_msgs_per_cpu_s", "msg/cpu-s"},
	{"native_msgs_per_cpu_s", "msg/cpu-s"},
	{"sql_native_ratio", "ratio"},
	{"setup_s", "s"},
	{"job_heap_mb", "MiB"},
}

// perLayer are the single-layer metrics of the traced run (--trace 1).
var perLayer = []metric{
	{"drain.sql_msgs_per_s", "msg/s"},
	{"drain.native_msgs_per_s", "msg/s"},
	{"drain.sql_native_wall_ratio", "ratio"},
	{"kafka.poll_ns_per_msg", "ns/msg"},
	{"kafka.msgs_per_poll", "msg/poll"},
	{"kafka.produce_ns_per_msg", "ns/msg"},
	{"kafka.msgs_per_produce", "msg/call"},
	{"avro.decode_ns_per_msg", "ns/msg"},
	{"operators.self_ns_per_msg", "ns/msg"},
	{"operators.rows_out_per_msg", "rows/msg"},
	{"operators.alloc_bytes_per_msg", "B/msg"},
	{"kv.reads_per_msg", "ops/msg"},
	{"kv.writes_per_msg", "ops/msg"},
	{"kv.scans_per_msg", "ops/msg"},
	{"kv.read_ns_per_msg", "ns/msg"},
	{"kv.write_ns_per_msg", "ns/msg"},
	{"kv.scan_ns_per_msg", "ns/msg"},
	{"kv.entries_per_scan", "entries/scan"},
	{"kv.hit_ratio", "ratio"},
	{"kv.live_keys", "keys"},
	{"changelog.records_per_msg", "records/msg"},
	{"changelog.ns_per_msg", "ns/msg"},
	{"samza.commit_ns_per_msg", "ns/msg"},
	{"sql.prepare_ms", "ms"},
	{"sql.compile_ms_per_task", "ms"},
	{"process.cpu_ns_per_msg", "ns/msg"},
	{"process.alloc_bytes_per_msg", "B/msg"},
	{"process.gc_cpu_fraction", "ratio"},
	{"ledger.traced_ns_per_msg", "ns/msg"},
	{"ledger.loop_ns_per_msg", "ns/msg"},
	{"ledger.residual_ns_per_msg", "ns/msg"},
	{"ledger.cpu_share_pct", "%"},
	{"ledger.trace_overhead_pct", "%"},
	{"floor.passthrough_ns_per_msg", "ns/msg"},
	{"paced.latency_p50_ms", "ms"},
	{"paced.latency_p99_ms", "ms"},
	{"paced.latency_samples", "count"},
	{"paced.gen_late_p99_ms", "ms"},
	{"paced.backlog_end_msgs", "msg"},
}

const (
	// minPairs is the fewest measured native/SQL pairs a run makes, after
	// its discarded warm-up pair; minSetups the fewest job starts.
	minPairs  = 3
	minSetups = 9
	// pacedShare, setupShare and drainShare split --seconds between the
	// phases.
	pacedShare = 0.1
	setupShare = 0.15
	drainShare = 0.70
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: filter, join or window")
	seed := flag.Int64("seed", 1, "seed of the generated orders")
	seconds := flag.Int("seconds", 30, "measurement time, shared by the paced, set-up and drain phases")
	traced := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%v GOMAXPROCS=%d %s messages=%d paced_rate=%.0f\n",
		w.name, seed, seconds, traced, runtime.GOMAXPROCS(0), runtime.Version(), w.messages, w.pacedRate)
	bl, err := generate(w.products, w.messages, seed)
	if err != nil {
		return err
	}
	o := newOracle(w.name, bl.orders, bl.pad)
	budget := time.Duration(seconds) * time.Second
	share := func(f float64) time.Duration { return time.Duration(f * float64(budget)) }

	var attempted, failed int64
	count := func(n, f int, reason error) {
		attempted += int64(n)
		failed += int64(f)
		if reason != nil {
			fmt.Fprintln(os.Stderr, "perfbench: trial failed:", reason)
		}
	}

	pc, err := pacedPhase(w, bl, o, share(pacedShare))
	if err != nil {
		return err
	}
	count(pc.sent, pc.failed, pc.reason)

	// Set-up phase: repeated job starts over the shortest input that gives
	// every task an output row, so each task sends its first row as soon as
	// it is up instead of after processing a block of input.
	prefix, err := setupPrefix(bl, o)
	if err != nil {
		return err
	}
	sc, err := newCluster(w, bl, prefix)
	if err != nil {
		return err
	}
	var setups, prepares []float64
	deadline := time.Now().Add(share(setupShare))
	for len(setups) < minSetups || time.Now().Before(deadline) {
		s, p, err := sc.setupTrial(w)
		if err != nil {
			return err
		}
		setups, prepares = append(setups, s), append(prepares, p)
	}

	c, err := newCluster(w, bl, w.messages)
	if err != nil {
		return err
	}
	// Drain phase: a warm-up pair, then native/SQL pairs until the phase's
	// share of the budget is spent. The two kinds strictly alternate: a
	// trial that follows one of its own kind runs measurably faster, so
	// alternating the order within pairs would split the ratios in two.
	var sqls, natives []trial
	var ratios, wallRatios []float64
	deadline = time.Now().Add(share(drainShare))
	for k := 0; k <= minPairs || time.Now().Before(deadline); k++ {
		n, err := c.nativeTrial(w, o, k)
		if err != nil {
			return err
		}
		s, err := c.sqlTrial(w, o)
		if err != nil {
			return err
		}
		count(w.messages, s.failed, s.reason)
		count(w.messages, n.failed, n.reason)
		fmt.Fprintf(os.Stderr, "# pair %d: native %.0f msg/s %.0f msg/cpu-s, sql %.0f msg/s %.0f msg/cpu-s\n",
			k, n.rate, n.perCPUSecond(), s.rate, s.perCPUSecond())
		if k == 0 {
			continue
		}
		if s.reason == nil {
			sqls = append(sqls, s)
		}
		if n.reason == nil {
			natives = append(natives, n)
		}
		if s.reason == nil && n.reason == nil {
			ratios = append(ratios, s.perCPUSecond()/n.perCPUSecond())
			wallRatios = append(wallRatios, s.rate/n.rate)
		}
	}

	sqlPerCPU := collect(sqls, trial.perCPUSecond)
	m := map[string]float64{
		"sql_msgs_per_cpu_s":          median(sqlPerCPU),
		"native_msgs_per_cpu_s":       median(collect(natives, trial.perCPUSecond)),
		"sql_native_ratio":            median(ratios),
		"setup_s":                     median(setups),
		"job_heap_mb":                 median(collect(sqls, func(t trial) float64 { return t.heapMB })),
		"drain.sql_msgs_per_s":        median(collect(sqls, func(t trial) float64 { return t.rate })),
		"drain.native_msgs_per_s":     median(collect(natives, func(t trial) float64 { return t.rate })),
		"drain.sql_native_wall_ratio": median(wallRatios),
		"sql.prepare_ms":              median(prepares) * 1e3,
	}
	fmt.Printf("# %d set-ups over %d orders, %d SQL and %d native drain trials; spread (IQR/median) of set-up %.3f, SQL msg/cpu-s %.3f\n",
		len(setups), prefix, len(sqls), len(natives), relSpread(setups), relSpread(sqlPerCPU))

	// A traced run prints the end-to-end metrics too; its result line
	// carries only the per-layer ones.
	printed, report := endToEnd, endToEnd
	if traced {
		if err := layerMetrics(m, w, bl, sqls, pc); err != nil {
			return err
		}
		printed, report = append(endToEnd[:len(endToEnd):len(endToEnd)], perLayer...), perLayer
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, mt := range printed {
		v := m[mt.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Nothing measured it (no successful trial, or a layer the
			// workload does not use); failures are counted above.
			v = 0
		}
		fmt.Printf("%-32s %16.4f %s\n", mt.name, v, mt.unit)
		m[mt.name] = v
	}
	for _, mt := range report {
		res.Metrics[mt.name] = value{Value: m[mt.name], Unit: mt.unit}
	}
	fmt.Printf("# attempted=%d failed=%d correct=%v\n", attempted, failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func collect(ts []trial, f func(trial) float64) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = f(t)
	}
	return out
}

// layerMetrics fills in the per-layer metrics: process figures over the
// SQL drain windows, paced-phase diagnostics, and the ledger of the traced
// solo run, checked for additivity.
func layerMetrics(m map[string]float64, w *workloadSpec, bl *backlog, sqls []trial, pc paced) error {
	var cpuNs, allocB, gcS, msgs float64
	for _, t := range sqls {
		a, b := t.window[0], t.window[1]
		cpuNs += float64(b.cpuNs - a.cpuNs)
		allocB += float64(b.allocB - a.allocB)
		gcS += b.gcCPU - a.gcCPU
		msgs += float64(b.processed - a.processed)
	}
	m["process.cpu_ns_per_msg"] = cpuNs / msgs
	m["process.alloc_bytes_per_msg"] = allocB / msgs
	m["process.gc_cpu_fraction"] = gcS * 1e9 / cpuNs

	m["kafka.msgs_per_poll"] = pc.msgsPerPoll
	m["paced.latency_p50_ms"] = percentile(pc.latency, 50) / 1e6
	m["paced.latency_p99_ms"] = percentile(pc.latency, 99) / 1e6
	m["paced.latency_samples"] = float64(len(pc.latency))
	m["paced.gen_late_p99_ms"] = percentile(pc.genLate, 99) / 1e6
	m["paced.backlog_end_msgs"] = float64(pc.backlogEnd)

	// Untimed and traced runs alternate, so drift shows in neither alone.
	var tr, un, pt ledger
	for range 2 {
		for _, step := range []struct {
			mode soloMode
			into *ledger
		}{{modeUntimed, &un}, {modeTraced, &tr}, {modePassthrough, &pt}} {
			l, err := runSolo(w, bl, w.messages, step.mode)
			if err != nil {
				return err
			}
			step.into.add(l)
		}
	}
	n := float64(tr.msgs)
	per := func(ns int64) float64 { return float64(ns) / n }
	if err := tr.check(); err != nil {
		return err
	}
	traced := per(tr.wallNs)
	for k, v := range tr.selfTimes() {
		m[k] = v
	}
	m["ledger.traced_ns_per_msg"] = traced
	m["ledger.cpu_share_pct"] = tr.cpuShare() * 100
	m["ledger.residual_ns_per_msg"] = m["process.cpu_ns_per_msg"] - traced
	untimed := float64(un.wallNs) / float64(un.msgs)
	m["ledger.trace_overhead_pct"] = (traced - untimed) / untimed * 100
	m["floor.passthrough_ns_per_msg"] = float64(pt.wallNs) / float64(pt.msgs)

	m["kafka.msgs_per_produce"] = float64(tr.produceMsgs) / float64(tr.produceCalls)
	m["operators.rows_out_per_msg"] = float64(tr.produceMsgs) / n
	m["operators.alloc_bytes_per_msg"] = per(tr.allocBytes)
	m["kv.reads_per_msg"] = per(tr.kv.reads)
	m["kv.writes_per_msg"] = per(tr.kv.writes)
	m["kv.scans_per_msg"] = per(tr.kv.scans)
	m["kv.entries_per_scan"] = float64(tr.kv.entries) / float64(tr.kv.scans)
	m["kv.hit_ratio"] = float64(tr.kv.found) / float64(tr.kv.reads)
	m["kv.live_keys"] = float64(tr.liveKeys)
	m["changelog.records_per_msg"] = per(tr.changelogRecords)
	m["sql.compile_ms_per_task"] = median(tr.compileNs) / 1e6
	fmt.Printf("# ledger: traced %.1f ns/msg, its thread on a CPU %.1f%% of it (floor %.0f%%); process CPU %.1f ns/msg\n",
		traced, m["ledger.cpu_share_pct"], ledgerCPUFloor*100, m["process.cpu_ns_per_msg"])
	return nil
}
