package samzasql

// This file regenerates the paper's evaluation (§5) as Go benchmarks: one
// benchmark pair per figure (5a filter, 5b project, 5c join, 6 sliding
// window), each reporting job throughput in msgs/sec, plus ablation
// benchmarks for the design choices called out in DESIGN.md §4. Run with:
//
//	go test -bench=. -benchmem
//
// The cmd/samzasql-bench binary runs the same figures with the paper's full
// container sweep and prints the series side by side.

import (
	"fmt"
	"testing"

	"samzasql/internal/avro"
	"samzasql/internal/bench"
	"samzasql/internal/kv"
	"samzasql/internal/metrics"
	"samzasql/internal/operators"
	"samzasql/internal/serde"
	"samzasql/internal/sql/expr"
	"samzasql/internal/sql/types"
	"samzasql/internal/sql/validate"
	"samzasql/internal/workload"
)

// benchConfig sizes one measured job run inside a testing.B iteration.
func benchConfig(containers int) bench.Config {
	cfg := bench.DefaultConfig()
	cfg.Messages = 50_000
	cfg.Containers = containers
	return cfg
}

// skipLongBench gates the benchmarks that run full jobs behind -short, so
// `go test -race -short -bench .` (the Makefile's verify leg) stays fast.
func skipLongBench(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("skipping full-job benchmark sweep in -short mode")
	}
}

// runFigureBenchmark measures one (implementation, query, containers) cell.
func runFigureBenchmark(b *testing.B, impl, query string, containers int) {
	b.Helper()
	skipLongBench(b)
	cfg := benchConfig(containers)
	var total float64
	for i := 0; i < b.N; i++ {
		var (
			res bench.Result
			err error
		)
		if impl == "native" {
			res, err = bench.RunNative(query, cfg)
		} else {
			res, err = bench.RunSQL(query, cfg)
		}
		if err != nil {
			b.Fatal(err)
		}
		total += res.Throughput
	}
	b.ReportMetric(total/float64(b.N), "msgs/sec")
}

// --- Figure 5a: filter query throughput ---

func BenchmarkFigure5aFilterNative1(b *testing.B)   { runFigureBenchmark(b, "native", "filter", 1) }
func BenchmarkFigure5aFilterSamzaSQL1(b *testing.B) { runFigureBenchmark(b, "samzasql", "filter", 1) }
func BenchmarkFigure5aFilterNative4(b *testing.B)   { runFigureBenchmark(b, "native", "filter", 4) }
func BenchmarkFigure5aFilterSamzaSQL4(b *testing.B) { runFigureBenchmark(b, "samzasql", "filter", 4) }

// --- Figure 5b: project query throughput ---

func BenchmarkFigure5bProjectNative1(b *testing.B) { runFigureBenchmark(b, "native", "project", 1) }
func BenchmarkFigure5bProjectSamzaSQL1(b *testing.B) {
	runFigureBenchmark(b, "samzasql", "project", 1)
}
func BenchmarkFigure5bProjectNative4(b *testing.B) { runFigureBenchmark(b, "native", "project", 4) }
func BenchmarkFigure5bProjectSamzaSQL4(b *testing.B) {
	runFigureBenchmark(b, "samzasql", "project", 4)
}

// --- Figure 5c: stream-to-relation join throughput ---

func BenchmarkFigure5cJoinNative1(b *testing.B)   { runFigureBenchmark(b, "native", "join", 1) }
func BenchmarkFigure5cJoinSamzaSQL1(b *testing.B) { runFigureBenchmark(b, "samzasql", "join", 1) }
func BenchmarkFigure5cJoinNative4(b *testing.B)   { runFigureBenchmark(b, "native", "join", 4) }
func BenchmarkFigure5cJoinSamzaSQL4(b *testing.B) { runFigureBenchmark(b, "samzasql", "join", 4) }

// --- Figure 6: sliding window operator throughput ---

func BenchmarkFigure6SlidingWindowNative1(b *testing.B) {
	runFigureBenchmark(b, "native", "window", 1)
}
func BenchmarkFigure6SlidingWindowSamzaSQL1(b *testing.B) {
	runFigureBenchmark(b, "samzasql", "window", 1)
}
func BenchmarkFigure6SlidingWindowNative2(b *testing.B) {
	runFigureBenchmark(b, "native", "window", 2)
}
func BenchmarkFigure6SlidingWindowSamzaSQL2(b *testing.B) {
	runFigureBenchmark(b, "samzasql", "window", 2)
}

// --- Ablation 1 (DESIGN.md §4.1): tuple-as-array transformation ---
//
// Isolates Figure 4's AvroToArray/ArrayToAvro steps: the native filter path
// reads one field from the wire and forwards the original bytes; the
// SamzaSQL path decodes the record to a []any row and re-encodes it.

func BenchmarkAblationTupleTransformNativePath(b *testing.B) {
	codec := avro.MustCodec(workload.OrdersSchema())
	gen := workload.NewOrdersGen(workload.DefaultOrdersConfig())
	_, _, value, err := gen.Next()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		units, err := codec.ReadField(value, "units")
		if err != nil {
			b.Fatal(err)
		}
		if units.(int64) > 50 {
			_ = value // forwarded unchanged
		}
	}
}

func BenchmarkAblationTupleTransformSQLPath(b *testing.B) {
	codec := avro.MustCodec(workload.OrdersSchema())
	gen := workload.NewOrdersGen(workload.DefaultOrdersConfig())
	_, _, value, err := gen.Next()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := codec.DecodeRow(value, nil) // AvroToArray
		if err != nil {
			b.Fatal(err)
		}
		if row[3].(int64) > 50 {
			if _, err := codec.EncodeRow(row); err != nil { // ArrayToAvro
				b.Fatal(err)
			}
		}
	}
}

// --- Ablation 2 (DESIGN.md §4.2): join state serde ---
//
// The paper blames SamzaSQL's ~2x join slowdown on Kryo-based object
// deserialization in the KV cache versus the native job's Avro. Compare
// decode cost of one Products row under each serde (gob is the
// java-serialization-like worst case).

func productRowCodecs(b *testing.B) ([]byte, []byte, []byte, *avro.Codec) {
	b.Helper()
	row := []any{int64(42), "product-42", int64(2)}
	avroCodec := avro.MustCodec(workload.ProductsSchema())
	avroBytes, err := avroCodec.EncodeRow(row)
	if err != nil {
		b.Fatal(err)
	}
	objBytes, err := serde.ObjectSerde{}.Encode(row)
	if err != nil {
		b.Fatal(err)
	}
	gobBytes, err := serde.GobSerde{}.Encode(row)
	if err != nil {
		b.Fatal(err)
	}
	return avroBytes, objBytes, gobBytes, avroCodec
}

func BenchmarkAblationJoinSerdeAvro(b *testing.B) {
	avroBytes, _, _, codec := productRowCodecs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.DecodeRow(avroBytes, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationJoinSerdeObject(b *testing.B) {
	_, objBytes, _, _ := productRowCodecs(b)
	s := serde.ObjectSerde{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Decode(objBytes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationJoinSerdeGob(b *testing.B) {
	_, _, gobBytes, _ := productRowCodecs(b)
	s := serde.GobSerde{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Decode(gobBytes); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation 3 (DESIGN.md §4.3): operator router depth ---
//
// The paper notes the router adds little overhead next to message
// transformation; verify by chaining no-op filters.

func routerWithDepth(b *testing.B, depth int) operators.BlockEmit {
	b.Helper()
	chain := operators.BlockEmit(func(*operators.TupleBlock) error { return nil })
	for i := 0; i < depth; i++ {
		op, err := operators.NewFilterOp(&expr.Const{V: true, T: types.Boolean})
		if err != nil {
			b.Fatal(err)
		}
		next := chain
		chain = func(blk *operators.TupleBlock) error { return op.ProcessBlock(0, blk, next) }
	}
	return chain
}

// benchRouterDepth drives one-row blocks, so ns/op is the per-tuple cost of
// the chain's dispatch.
func benchRouterDepth(b *testing.B, depth int) {
	chain := routerWithDepth(b, depth)
	blk := &operators.TupleBlock{N: 1, Cols: [][]any{{int64(1)}, {int64(2)}}, Ts: []int64{1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.SelAll()
		if err := chain(blk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationRouterDepth1(b *testing.B)  { benchRouterDepth(b, 1) }
func BenchmarkAblationRouterDepth4(b *testing.B)  { benchRouterDepth(b, 4) }
func BenchmarkAblationRouterDepth16(b *testing.B) { benchRouterDepth(b, 16) }

// --- Ablation 4 (DESIGN.md §4.4): sliding-window store traffic ---
//
// Drives the full Algorithm 1 path over an uncached store (5-minute frame,
// 100 keys, 10ms apart) and reports the store operations per tuple. A
// one-row block costs each tuple a state read, a page Range, a tail-page
// Put and a state Put (~4 ops); a 256-row block pays those per distinct key
// per block, plus one Put and one Delete per 16-contribution page.

func BenchmarkAblationWindowStore(b *testing.B) {
	b.Run("block=1", func(b *testing.B) { benchWindowStoreTraffic(b, 1) })
	b.Run("block=256", func(b *testing.B) { benchWindowStoreTraffic(b, 256) })
}

func benchWindowStoreTraffic(b *testing.B, block int) {
	spec := &validate.BoundAnalytic{
		Fn:          "SUM",
		Arg:         &expr.ColRef{Idx: 1, Name: "units", T: types.Bigint},
		PartitionBy: []expr.Expr{&expr.ColRef{Idx: 2, Name: "pid", T: types.Bigint}},
		OrderBy:     &expr.ColRef{Idx: 0, Name: "ts", T: types.Timestamp},
		FrameMillis: 5 * 60 * 1000,
		T:           types.Bigint,
	}
	op, err := operators.NewSlidingWindowOp([]*validate.BoundAnalytic{spec})
	if err != nil {
		b.Fatal(err)
	}
	store := kv.NewStore()
	ctx := &operators.OpContext{
		Store:   func(string) kv.Store { return store },
		Metrics: metrics.NewRegistry(),
	}
	if err := op.Open(ctx); err != nil {
		b.Fatal(err)
	}
	emit := func(*operators.TupleBlock) error { return nil }
	blk := &operators.TupleBlock{Stream: "orders", Cols: [][]any{make([]any, block), make([]any, block), make([]any, block)}}
	b.ResetTimer()
	for i := 0; i < b.N; i += block {
		n := min(block, b.N-i)
		blk.N = n
		blk.Ts, blk.Keys, blk.Offsets = blk.Ts[:0], blk.Keys[:0], blk.Offsets[:0]
		for r := 0; r < n; r++ {
			t := i + r
			ts := int64(1_600_000_000_000 + t*10)
			blk.Cols[0][r], blk.Cols[1][r], blk.Cols[2][r] = ts, int64(t%100), int64(t%100)
			blk.Ts, blk.Keys, blk.Offsets = append(blk.Ts, ts), append(blk.Keys, nil), append(blk.Offsets, int64(t))
		}
		blk.SelAll()
		if err := op.ProcessBlock(0, blk, emit); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reads, writes := store.Stats()
	b.ReportMetric(float64(reads+writes)/float64(b.N), "store-ops/tuple")
}

// --- Sliding-window state-store layer: cached+batched vs. write-through ---
//
// Drives the SQL sliding-window operator (Algorithm 1) over the full store
// stack — skiplist, changelog mirror, instrumentation, optional LRU object
// cache — flushing every commit interval as the container does. The
// "cached-batched" variant must sustain at least 2x the throughput of the
// paper-faithful "uncached" baseline; `samzasql-bench -figure state -json`
// records the same comparison in BENCH_results.json.

func benchSlidingWindowStore(b *testing.B, cacheSize, batchSize int) {
	cfg := bench.DefaultWindowStoreConfig()
	cfg.Tuples = b.N
	cfg.StoreCacheSize = cacheSize
	cfg.WriteBatchSize = batchSize
	res, err := bench.RunWindowStore(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.Throughput, "tuples/sec")
	b.ReportMetric(float64(res.ChangelogRecords)/float64(b.N), "changelog-recs/tuple")
}

func BenchmarkSlidingWindow(b *testing.B) {
	b.Run("uncached", func(b *testing.B) { benchSlidingWindowStore(b, 0, 0) })
	b.Run("cached-batched", func(b *testing.B) {
		benchSlidingWindowStore(b, 1024, kv.DefaultWriteBatchSize)
	})
}

// --- Ablation 5 (DESIGN.md §4.5): partition-count scaling ---
//
// The paper's sublinear container scaling comes from fewer partitions per
// task as containers grow; sweep partition counts at fixed containers.

func benchPartitionScaling(b *testing.B, partitions int32) {
	skipLongBench(b)
	cfg := benchConfig(4)
	cfg.Partitions = partitions
	var total float64
	for i := 0; i < b.N; i++ {
		res, err := bench.RunSQL("filter", cfg)
		if err != nil {
			b.Fatal(err)
		}
		total += res.Throughput
	}
	b.ReportMetric(total/float64(b.N), "msgs/sec")
}

func BenchmarkAblationPartitionScaling8(b *testing.B)   { benchPartitionScaling(b, 8) }
func BenchmarkAblationPartitionScaling32(b *testing.B)  { benchPartitionScaling(b, 32) }
func BenchmarkAblationPartitionScaling128(b *testing.B) { benchPartitionScaling(b, 128) }

// --- sanity: the LOC table used in §5's usability claim ---

func BenchmarkUsabilityLOCTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.LOCTable()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal(fmt.Errorf("unexpected LOC rows: %d", len(rows)))
		}
	}
}
