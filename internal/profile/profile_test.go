package profile

import (
	"bytes"
	"context"
	"runtime"
	rm "runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"

	"samzasql/internal/metrics"
)

// protoWriter builds profile.proto bytes by hand for decoder tests.
type protoWriter struct{ buf bytes.Buffer }

func (w *protoWriter) varint(v uint64) {
	for v >= 0x80 {
		w.buf.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	w.buf.WriteByte(byte(v))
}

func (w *protoWriter) tag(num, wt int) { w.varint(uint64(num)<<3 | uint64(wt)) }

func (w *protoWriter) bytesField(num int, b []byte) {
	w.tag(num, wireBytes)
	w.varint(uint64(len(b)))
	w.buf.Write(b)
}

func (w *protoWriter) intField(num int, v int64) {
	w.tag(num, wireVarint)
	w.varint(uint64(v))
}

func (w *protoWriter) packed(num int, vals ...uint64) {
	var inner protoWriter
	for _, v := range vals {
		inner.varint(v)
	}
	w.bytesField(num, inner.buf.Bytes())
}

// buildTestProfile constructs a two-sample CPU-shaped profile:
//
//	main.leafA -> main.mid -> main.root   (value 100)
//	main.leafB -> main.root               (value 40)
func buildTestProfile() []byte {
	var p protoWriter
	// string_table: index 0 must be "".
	for _, s := range []string{"", "cpu", "nanoseconds", "main.leafA", "main.mid", "main.root", "main.leafB"} {
		p.bytesField(6, []byte(s))
	}
	var vt protoWriter
	vt.intField(1, 1) // type = "cpu"
	vt.intField(2, 2) // unit = "nanoseconds"
	p.bytesField(1, vt.buf.Bytes())
	// functions 1..4 name indices 3..6
	for id, name := range map[int64]int64{1: 3, 2: 4, 3: 5, 4: 6} {
		var f protoWriter
		f.intField(1, id)
		f.intField(2, name)
		p.bytesField(5, f.buf.Bytes())
	}
	// locations: one line each, location id == function id.
	for id := int64(1); id <= 4; id++ {
		var loc protoWriter
		loc.intField(1, id)
		var line protoWriter
		line.intField(1, id)
		loc.bytesField(4, line.buf.Bytes())
		p.bytesField(4, loc.buf.Bytes())
	}
	var s1 protoWriter
	s1.packed(1, 1, 2, 3) // leafA, mid, root (leaf first)
	s1.packed(2, 100)
	p.bytesField(2, s1.buf.Bytes())
	var s2 protoWriter
	s2.packed(1, 4, 3)
	s2.packed(2, 40)
	p.bytesField(2, s2.buf.Bytes())
	p.intField(9, 12345)  // time_nanos
	p.intField(10, 67890) // duration_nanos
	return p.buf.Bytes()
}

func statFor(stats []FuncStat, name string) (FuncStat, bool) {
	for _, s := range stats {
		if s.Name == name {
			return s, true
		}
	}
	return FuncStat{}, false
}

func TestParseAndFoldHandBuilt(t *testing.T) {
	prof, err := Parse(buildTestProfile())
	if err != nil {
		t.Fatal(err)
	}
	if prof.TimeNanos != 12345 || prof.DurationNanos != 67890 {
		t.Fatalf("time/duration = %d/%d", prof.TimeNanos, prof.DurationNanos)
	}
	idx := prof.ValueIndex("cpu")
	if idx != 0 {
		t.Fatalf("ValueIndex(cpu) = %d", idx)
	}
	stats := prof.Fold(idx)
	want := map[string]FuncStat{
		"main.leafA": {Flat: 100, Cum: 100},
		"main.mid":   {Flat: 0, Cum: 100},
		"main.root":  {Flat: 0, Cum: 140},
		"main.leafB": {Flat: 40, Cum: 40},
	}
	if len(stats) != len(want) {
		t.Fatalf("got %d functions, want %d: %+v", len(stats), len(want), stats)
	}
	for name, w := range want {
		got, ok := statFor(stats, name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if got.Flat != w.Flat || got.Cum != w.Cum {
			t.Errorf("%s: flat/cum = %d/%d, want %d/%d", name, got.Flat, got.Cum, w.Flat, w.Cum)
		}
	}
	// Sorted by flat descending.
	if stats[0].Name != "main.leafA" || stats[1].Name != "main.leafB" {
		t.Errorf("sort order wrong: %+v", stats)
	}
}

func TestFoldRecursionCountsCumOnce(t *testing.T) {
	var p protoWriter
	for _, s := range []string{"", "cpu", "nanoseconds", "main.rec"} {
		p.bytesField(6, []byte(s))
	}
	var vt protoWriter
	vt.intField(1, 1)
	vt.intField(2, 2)
	p.bytesField(1, vt.buf.Bytes())
	var f protoWriter
	f.intField(1, 1)
	f.intField(2, 3)
	p.bytesField(5, f.buf.Bytes())
	var loc protoWriter
	loc.intField(1, 1)
	var line protoWriter
	line.intField(1, 1)
	loc.bytesField(4, line.buf.Bytes())
	p.bytesField(4, loc.buf.Bytes())
	var s1 protoWriter
	s1.packed(1, 1, 1, 1) // rec -> rec -> rec
	s1.packed(2, 7)
	p.bytesField(2, s1.buf.Bytes())
	prof, err := Parse(p.buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	stats := prof.Fold(0)
	got, ok := statFor(stats, "main.rec")
	if !ok || got.Flat != 7 || got.Cum != 7 {
		t.Fatalf("recursive fold = %+v (ok=%v), want flat=7 cum=7", got, ok)
	}
}

func TestParseTruncatedAndGarbage(t *testing.T) {
	if _, err := Parse([]byte{0x0a}); err == nil {
		t.Error("truncated input parsed without error")
	}
	full := buildTestProfile()
	if _, err := Parse(full[:len(full)-3]); err == nil {
		t.Error("truncated profile parsed without error")
	}
	if _, err := Parse([]byte{0x1f, 0x8b, 0x00}); err == nil {
		t.Error("bad gzip header parsed without error")
	}
}

func TestDeltaAndMerge(t *testing.T) {
	prev := []FuncStat{{Name: "a", Flat: 10, Cum: 20}, {Name: "b", Flat: 5, Cum: 5}}
	cur := []FuncStat{{Name: "a", Flat: 30, Cum: 45}, {Name: "b", Flat: 5, Cum: 5}, {Name: "c", Flat: 2, Cum: 2}}
	d := Delta(cur, prev)
	if got, ok := statFor(d, "a"); !ok || got.Flat != 20 || got.Cum != 25 {
		t.Errorf("delta a = %+v ok=%v", got, ok)
	}
	if _, ok := statFor(d, "b"); ok {
		t.Error("unchanged function b should drop out of the delta")
	}
	if got, ok := statFor(d, "c"); !ok || got.Flat != 2 {
		t.Errorf("delta c = %+v ok=%v", got, ok)
	}
	m := Merge(
		[]FuncStat{{Name: "x", Flat: 1, Cum: 2}},
		[]FuncStat{{Name: "x", Flat: 3, Cum: 4}, {Name: "y", Flat: 9, Cum: 9}},
	)
	if m[0].Name != "y" {
		t.Errorf("merge sort: %+v", m)
	}
	if got, _ := statFor(m, "x"); got.Flat != 4 || got.Cum != 6 {
		t.Errorf("merge x = %+v", got)
	}
}

// burnCPU spins long enough for the CPU sampler (100Hz) to catch it.
//
//go:noinline
func burnCPU(until time.Time) int64 {
	var acc int64
	for time.Now().Before(until) {
		for i := 0; i < 1000; i++ {
			acc += int64(i * i)
		}
	}
	return acc
}

// TestCaptureCPUAgainstRuntime is the decoder's integration check: a real
// runtime/pprof capture over a busy spin loop must decode, fold, and
// attribute samples to this test's functions.
func TestCaptureCPUAgainstRuntime(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping 300ms CPU capture")
	}
	p := New(Config{Window: 300 * time.Millisecond}, true)
	done := make(chan int64, 1)
	go func() { done <- burnCPU(time.Now().Add(400 * time.Millisecond)) }()
	stats, err := p.CaptureCPU(context.Background(), 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if len(stats) == 0 {
		t.Fatal("capture over a spin loop folded zero functions")
	}
	found := false
	for _, s := range stats {
		if strings.Contains(s.Name, "burnCPU") {
			found = true
			if s.Flat <= 0 {
				t.Errorf("burnCPU flat = %d, want > 0", s.Flat)
			}
		}
	}
	if !found {
		t.Errorf("burnCPU not attributed; top: %+v", Truncate(stats, 5))
	}
}

// TestConcurrentCapturesSerialize pins the process-global capture mutex:
// two concurrent captures must both succeed (taking turns) instead of the
// second failing on StartCPUProfile.
func TestConcurrentCapturesSerialize(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping CPU captures")
	}
	p := New(Config{}, true)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.CaptureCPU(context.Background(), 50*time.Millisecond)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("capture %d: %v", i, err)
		}
	}
}

func TestCaptureHeapDeltaAndGoroutines(t *testing.T) {
	p := New(Config{TopN: 32}, true)
	if _, err := p.CaptureHeapDelta(); err != nil {
		t.Fatal(err)
	}
	// Allocate attributably between captures.
	sink := make([][]byte, 0, 4096)
	for i := 0; i < 4096; i++ {
		sink = append(sink, make([]byte, 1024))
	}
	runtime.KeepAlive(sink)
	// The allocs profile is published when a GC cycle completes; force one
	// so the allocation above is in the second capture.
	runtime.GC()
	delta, err := p.CaptureHeapDelta()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range delta {
		total += s.Flat
	}
	if total < 1<<20 {
		t.Errorf("heap delta flat total = %d bytes, want >= 1MiB after 4MiB of allocation", total)
	}
	if len(delta) > 32 {
		t.Errorf("TopN not applied: %d entries", len(delta))
	}

	gor, err := p.CaptureGoroutines()
	if err != nil {
		t.Fatal(err)
	}
	var count int64
	for _, s := range gor {
		count += s.Flat
	}
	if count == 0 {
		t.Error("goroutine profile folded zero goroutines")
	}
}

func TestDisabledProfilerRefusesCapture(t *testing.T) {
	p := New(Config{}, false)
	if p.Enabled() {
		t.Fatal("disabled profiler reports Enabled")
	}
	if _, err := p.Capture(context.Background()); err == nil {
		t.Fatal("disabled profiler captured")
	}
	var nilP *Profiler
	if nilP.Enabled() {
		t.Fatal("nil profiler reports Enabled")
	}
}

func TestConfigNormalize(t *testing.T) {
	c := Config{}.normalize()
	if c.Interval != DefaultInterval || c.Window != DefaultWindow || c.TopN != DefaultTopN {
		t.Fatalf("defaults: %+v", c)
	}
	c = Config{Interval: 100 * time.Millisecond, Window: time.Second}.normalize()
	if c.Window != 100*time.Millisecond {
		t.Fatalf("window not clamped to interval: %+v", c)
	}
}

func TestRuntimeCollector(t *testing.T) {
	reg := metrics.NewRegistry()
	c := NewCollector(reg)
	c.Refresh()
	// Force GC activity and allocations between refreshes so the deltas
	// are non-trivial.
	sink := make([][]byte, 0, 1024)
	for i := 0; i < 1024; i++ {
		sink = append(sink, make([]byte, 4096))
	}
	runtime.KeepAlive(sink)
	runtime.GC()
	runtime.GC()
	c.Refresh()
	snap := reg.Snapshot()
	if snap.Gauges[RuntimeGoroutines] <= 0 {
		t.Errorf("%s = %d", RuntimeGoroutines, snap.Gauges[RuntimeGoroutines])
	}
	if snap.Gauges[RuntimeHeapLive] <= 0 {
		t.Errorf("%s = %d", RuntimeHeapLive, snap.Gauges[RuntimeHeapLive])
	}
	if snap.Counters[RuntimeGCCycles] <= 0 {
		t.Errorf("%s = %d after two forced GCs", RuntimeGCCycles, snap.Counters[RuntimeGCCycles])
	}
	if h, ok := snap.Histograms[RuntimeGCPause]; !ok || h.Count == 0 {
		t.Errorf("%s histogram empty after forced GCs", RuntimeGCPause)
	}
	if snap.Gauges[RuntimeGCLastPause] <= 0 {
		t.Errorf("%s = %d", RuntimeGCLastPause, snap.Gauges[RuntimeGCLastPause])
	}
}

// TestRuntimeCollectorReplayCap pins the scaling: a huge synthetic count
// delta must not replay more than histReplayCap observations.
func TestRuntimeCollectorReplayCap(t *testing.T) {
	reg := metrics.NewRegistry()
	c := NewCollector(reg)
	h := reg.Histogram("replay-test")
	src := &rm.Float64Histogram{
		Counts:  []uint64{1 << 20, 1 << 20},
		Buckets: []float64{0, 1e-6, 1e-3},
	}
	var prev []uint64
	c.replayHist(src, &prev, h)
	if got := h.Count(); got > histReplayCap+2 {
		t.Fatalf("replayed %d observations, cap is %d", got, histReplayCap)
	}
	if h.Count() == 0 {
		t.Fatal("replay produced no observations")
	}
}
