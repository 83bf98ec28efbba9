package bench

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/kv"
	"samzasql/internal/metrics"
	"samzasql/internal/operators"
	"samzasql/internal/sql/expr"
	"samzasql/internal/sql/types"
	"samzasql/internal/sql/validate"
)

// WindowStoreConfig sizes one sliding-window store micro-run: the SQL
// sliding-window operator (Algorithm 1) driven directly over a
// changelog-backed store stack, isolating store and serde cost from the rest
// of the job (consumers, routers, output produce).
type WindowStoreConfig struct {
	// Tuples processed by the run.
	Tuples int
	// Keys is the partition-key cardinality (distinct products).
	Keys int
	// CommitEvery flushes the store stack after this many tuples, modelling
	// the container's commit interval.
	CommitEvery int
	// StoreCacheSize > 0 puts a CachedStore on top of the stack; 0 writes
	// every state save through, the paper-faithful baseline.
	StoreCacheSize int
	// WriteBatchSize > 1 batches changelog records until commit; <= 0 keeps
	// write-through mirroring (one produce per store write).
	WriteBatchSize int
	// WindowMillis is the sliding-window frame (paper: 5 minutes).
	WindowMillis int64
}

// DefaultWindowStoreConfig mirrors the Figure 6 workload at micro scale.
func DefaultWindowStoreConfig() WindowStoreConfig {
	return WindowStoreConfig{
		Tuples:       200_000,
		Keys:         100,
		CommitEvery:  1000,
		WindowMillis: 5 * 60 * 1000,
	}
}

// WindowStoreResult is one measured micro-run.
type WindowStoreResult struct {
	Tuples     int           `json:"tuples"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	Throughput float64       `json:"tuples_per_sec"`
	// StoreReads/StoreWrites are the base skiplist's cumulative operation
	// counts; cache absorption shows up as these growing slower than tuples.
	StoreReads  int64 `json:"store_reads"`
	StoreWrites int64 `json:"store_writes"`
	// ChangelogRecords is the changelog partition's high watermark after the
	// final flush — write batching plus dedup shrinks it.
	ChangelogRecords int64 `json:"changelog_records"`
	CacheHits        int64 `json:"cache_hits,omitempty"`
	CacheMisses      int64 `json:"cache_misses,omitempty"`
	// FlushP95Ns/FlushP99Ns summarize commit-flush latency of the top of the
	// store stack.
	FlushP95Ns int64 `json:"flush_p95_ns,omitempty"`
	FlushP99Ns int64 `json:"flush_p99_ns,omitempty"`
	// RestoredKeys/StateDigest describe the state rebuilt from the changelog
	// after the run: batching and caching must not change what a restarted
	// task recovers, so the digest is identical across modes.
	RestoredKeys int    `json:"restored_keys"`
	StateDigest  string `json:"state_digest"`
}

// windowStoreSpec is the Figure 6 aggregation: SUM(units) over a 5-minute
// range frame partitioned by product.
func windowStoreSpec(windowMillis int64) *validate.BoundAnalytic {
	return &validate.BoundAnalytic{
		Fn:          "SUM",
		Arg:         &expr.ColRef{Idx: 1, Name: "units", T: types.Bigint},
		PartitionBy: []expr.Expr{&expr.ColRef{Idx: 2, Name: "pid", T: types.Bigint}},
		OrderBy:     &expr.ColRef{Idx: 0, Name: "ts", T: types.Timestamp},
		FrameMillis: windowMillis,
		T:           types.Bigint,
	}
}

// RunWindowStore drives the sliding-window operator's block path over the
// full state stack — base skiplist, batched changelog mirror,
// instrumentation, and (when configured) the LRU object cache — flushing at
// each commit interval exactly as the container does. It backs
// BenchmarkSlidingWindow and the store-tuning rows of the JSON report.
func RunWindowStore(cfg WindowStoreConfig) (WindowStoreResult, error) {
	if cfg.Tuples <= 0 {
		return WindowStoreResult{}, fmt.Errorf("bench: window store run needs tuples > 0")
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 1
	}
	if cfg.CommitEvery <= 0 {
		cfg.CommitEvery = 1000
	}
	op, err := operators.NewSlidingWindowOp([]*validate.BoundAnalytic{windowStoreSpec(cfg.WindowMillis)})
	if err != nil {
		return WindowStoreResult{}, err
	}

	broker := kafka.NewBroker()
	const topic = "bench-window-changelog"
	base := kv.NewStore()
	cl, err := kv.NewChangelogStore(base, broker, topic, 1, 0)
	if err != nil {
		return WindowStoreResult{}, err
	}
	reg := metrics.NewRegistry()
	var store kv.Store = kv.Instrument(cl, reg, "window")
	if cfg.StoreCacheSize > 0 {
		if cfg.WriteBatchSize > 0 {
			cl.SetWriteBatchSize(cfg.WriteBatchSize)
		}
		cached := kv.NewCachedStore(store, cfg.StoreCacheSize, cfg.WriteBatchSize)
		cached.BindMetrics(reg, "window")
		store = cached
	} else {
		// Paper-faithful baseline: every mirrored write reaches the changelog
		// immediately, as the container configures write-through jobs.
		cl.SetWriteBatchSize(1)
	}
	flush, _ := store.(kv.Flushable)

	ctx := &operators.OpContext{
		Store:   func(string) kv.Store { return store },
		Metrics: reg,
	}
	if err := op.Open(ctx); err != nil {
		return WindowStoreResult{}, err
	}
	emit := func(*operators.TupleBlock) error { return nil }

	// Start the timed section from a collected heap so leftover garbage from
	// setup (or a previous run in the same process) doesn't bill a GC cycle
	// to this run — the same hygiene testing.B applies between benchmarks.
	runtime.GC()
	start := time.Now()
	// Tuples arrive as one-row blocks, so the baseline saves window state
	// per tuple: the paper-faithful store traffic the cache is measured
	// against (larger blocks already save once per key per block).
	var b operators.TupleBlock
	for i := 0; i < cfg.Tuples; i++ {
		fillWindowRow(&b, i, cfg.Keys)
		if err := op.ProcessBlock(0, &b, emit); err != nil {
			return WindowStoreResult{}, err
		}
		if flush != nil && (i+1)%cfg.CommitEvery == 0 {
			if err := flush.Flush(); err != nil {
				return WindowStoreResult{}, err
			}
		}
	}
	if flush != nil {
		if err := flush.Flush(); err != nil {
			return WindowStoreResult{}, err
		}
	}
	elapsed := time.Since(start)

	hwm, err := broker.HighWatermark(kafka.TopicPartition{Topic: topic, Partition: 0})
	if err != nil {
		return WindowStoreResult{}, err
	}
	reads, writes := base.Stats()
	res := WindowStoreResult{
		Tuples:           cfg.Tuples,
		Elapsed:          elapsed,
		Throughput:       float64(cfg.Tuples) / elapsed.Seconds(),
		StoreReads:       reads,
		StoreWrites:      writes,
		ChangelogRecords: hwm,
	}
	snap := reg.Snapshot()
	res.CacheHits = snap.Counters["store.window.cache.hits"]
	res.CacheMisses = snap.Counters["store.window.cache.misses"]
	flushName := "store.window.flush-ns"
	if cfg.StoreCacheSize > 0 {
		flushName = "store.window.cache.flush-ns"
	}
	if h, ok := snap.Histograms[flushName]; ok {
		res.FlushP95Ns = h.P95
		res.FlushP99Ns = h.P99
	}

	// Rebuild state from the changelog exactly as a restarted task would and
	// digest it: caching and batching are pure performance layers, so the
	// recovered state must not depend on them.
	restored := kv.NewStore()
	rcl, err := kv.NewChangelogStore(restored, broker, topic, 1, 0)
	if err != nil {
		return WindowStoreResult{}, err
	}
	if err := rcl.Restore(); err != nil {
		return WindowStoreResult{}, err
	}
	digest := fnv.New64a()
	for _, e := range restored.Range(nil, nil, 0) {
		digest.Write(e.Key)
		digest.Write(e.Value)
	}
	res.RestoredKeys = restored.Len()
	res.StateDigest = fmt.Sprintf("%016x", digest.Sum64())
	return res, nil
}

// fillWindowRow loads b with order i as one [ts, units, pid] row: orders
// are 10ms apart, units cycle mod 97, pids mod keys.
func fillWindowRow(b *operators.TupleBlock, i, keys int) {
	ts := int64(1_600_000_000_000 + i*10)
	b.Reset("orders", 0, 1)
	if len(b.Cols) == 0 {
		b.Cols = [][]any{make([]any, 1), make([]any, 1), make([]any, 1)}
	}
	b.Cols[0][0], b.Cols[1][0], b.Cols[2][0] = ts, int64(i%97), int64(i%keys)
	b.Ts = append(b.Ts, ts)
	b.Keys = append(b.Keys, nil)
	b.Offsets = append(b.Offsets, int64(i))
	b.SelAll()
}

// StoreTuningComparison is the cached-versus-baseline pair the ISSUE's
// acceptance bar measures: the same window workload with the state-store
// performance layer off (paper-faithful) and on.
type StoreTuningComparison struct {
	StoreCacheSize int               `json:"store_cache_size"`
	WriteBatchSize int               `json:"write_batch_size"`
	Baseline       WindowStoreResult `json:"baseline"`
	Cached         WindowStoreResult `json:"cached"`
	// Speedup is cached throughput over baseline throughput.
	Speedup float64 `json:"speedup"`
}

// storeTuningIterations is how many times each mode runs; the comparison
// keeps the fastest run per mode. GC pauses and scheduler preemption only
// ever slow a run down, so best-of-N converges on the workload's real cost
// the same way `go test -bench -count=N` plus benchstat's min does.
const storeTuningIterations = 5

// storeTuningMinTuples floors the comparison's run length. The 5-minute
// frame holds 30k tuples at the generator's 10ms spacing, so shorter runs
// spend most of their time filling the window; 200k tuples gives several
// window lengths of steady-state insert+expiry, which is what Figure 6
// actually measures, and is long enough for the throughput ratio to settle.
const storeTuningMinTuples = 200_000

// RunStoreTuning measures the comparison at the given scale. cacheSize and
// batchSize configure the tuned run; the baseline always runs with the cache
// off and write-through mirroring. The two modes alternate run-for-run so
// machine-wide drift (thermal, background load) lands on both sides evenly.
func RunStoreTuning(tuples, cacheSize, batchSize int) (StoreTuningComparison, error) {
	cfg := DefaultWindowStoreConfig()
	if tuples > 0 {
		cfg.Tuples = tuples
	}
	if cfg.Tuples < storeTuningMinTuples {
		cfg.Tuples = storeTuningMinTuples
	}
	if cacheSize <= 0 {
		cacheSize = 1024
	}
	if batchSize <= 0 {
		batchSize = kv.DefaultWriteBatchSize
	}
	tuned := cfg
	tuned.StoreCacheSize = cacheSize
	tuned.WriteBatchSize = batchSize
	var baseline, cached WindowStoreResult
	for i := 0; i < storeTuningIterations; i++ {
		b, err := RunWindowStore(cfg)
		if err != nil {
			return StoreTuningComparison{}, fmt.Errorf("bench: store tuning baseline: %w", err)
		}
		if b.Throughput > baseline.Throughput {
			baseline = b
		}
		c, err := RunWindowStore(tuned)
		if err != nil {
			return StoreTuningComparison{}, fmt.Errorf("bench: store tuning cached: %w", err)
		}
		if c.Throughput > cached.Throughput {
			cached = c
		}
	}
	return StoreTuningComparison{
		StoreCacheSize: cacheSize,
		WriteBatchSize: batchSize,
		Baseline:       baseline,
		Cached:         cached,
		Speedup:        cached.Throughput / baseline.Throughput,
	}, nil
}

// FormatStoreTuning renders the comparison for the terminal.
func FormatStoreTuning(c StoreTuningComparison) string {
	return fmt.Sprintf(`Sliding-window store tuning (cache %d entries, write batch %d)
  %-10s %14s %12s %12s %16s
  %-10s %14.0f %12d %12d %16d
  %-10s %14.0f %12d %12d %16d
  speedup: %.2fx
`,
		c.StoreCacheSize, c.WriteBatchSize,
		"mode", "tuples/sec", "base reads", "base writes", "changelog recs",
		"baseline", c.Baseline.Throughput, c.Baseline.StoreReads, c.Baseline.StoreWrites, c.Baseline.ChangelogRecords,
		"cached", c.Cached.Throughput, c.Cached.StoreReads, c.Cached.StoreWrites, c.Cached.ChangelogRecords,
		c.Speedup)
}
