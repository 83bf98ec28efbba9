package operators

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"samzasql/internal/kafka"
	"samzasql/internal/kv"
	"samzasql/internal/metrics"
	"samzasql/internal/sql/validate"
)

// winRow is one [ts, units, pid] input row of the window tests.
type winRow struct{ ts, units, pid int64 }

// windowRows generates n rows over keys partitions with out-of-order
// timestamps (up to ±jitter ms around a 10ms step) rounded to multiples of
// 20ms so many of them tie, and units in [-50, 450] so some values box.
func windowRows(rng *rand.Rand, n, keys int, jitter int64) []winRow {
	rows := make([]winRow, n)
	for i := range rows {
		ts := 1_000_000 + int64(i)*10 + rng.Int63n(2*jitter+1) - jitter
		rows[i] = winRow{ts: ts / 20 * 20, units: rng.Int63n(501) - 50, pid: int64(rng.Intn(keys))}
	}
	return rows
}

// fillRows loads b with rows[from:to] from stream "in", partition 0; a
// row's offset is its index.
func fillRows(b *TupleBlock, rows []winRow, from, to int) {
	n := to - from
	b.Reset("in", 0, n)
	b.sizeCols(3, n)
	for k, r := range rows[from:to] {
		b.Cols[0][k], b.Cols[1][k], b.Cols[2][k] = r.ts, r.units, r.pid
		b.Ts = append(b.Ts, r.ts)
		b.Keys = append(b.Keys, nil)
		b.Offsets = append(b.Offsets, int64(from+k))
	}
	b.SelAll()
}

// refWindow is the brute-force reference for one OVER call: every key
// keeps its whole history with an evicted flag, the frame's eviction rule
// is applied at each tuple with plain loops over that history, and the
// aggregate is recomputed from scratch over what is left.
func refWindow(spec *validate.BoundAnalytic, rows []winRow) []any {
	type entry struct {
		ts, v   int64
		evicted bool
	}
	hist := map[int64][]entry{}
	out := make([]any, len(rows))
	for i, r := range rows {
		h := append(hist[r.pid], entry{ts: r.ts, v: r.units})
		hist[r.pid] = h
		switch {
		case spec.Unbounded:
		case spec.IsRows:
			for {
				live, oldest := 0, -1
				for j := range h {
					if h[j].evicted {
						continue
					}
					live++
					if oldest < 0 || h[j].ts < h[oldest].ts {
						oldest = j // the first of equal timestamps arrived first
					}
				}
				if int64(live) <= spec.FrameRows+1 {
					break
				}
				h[oldest].evicted = true
			}
		default:
			for j := range h {
				if h[j].ts < r.ts-spec.FrameMillis {
					h[j].evicted = true
				}
			}
		}
		var n, sum, lo, hi int64
		for _, e := range h {
			if e.evicted {
				continue
			}
			if n == 0 || e.v < lo {
				lo = e.v
			}
			if n == 0 || e.v > hi {
				hi = e.v
			}
			n++
			sum += e.v
		}
		switch spec.Fn {
		case "COUNT":
			out[i] = n
		case "SUM":
			out[i] = sum
		case "AVG":
			out[i] = float64(sum) / float64(n)
		case "MIN":
			out[i] = lo
		case "MAX":
			out[i] = hi
		}
	}
	return out
}

// digestStore hashes every key and value of s in key order.
func digestStore(s kv.Store) string {
	h := fnv.New64a()
	for _, e := range s.Range(nil, nil, 0) {
		h.Write(e.Key)
		h.Write([]byte{0})
		h.Write(e.Value)
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x/%d", h.Sum64(), s.Len())
}

// windowFrames are the frames the differential test covers.
func windowFrames() map[string]func(fn string) *validate.BoundAnalytic {
	return map[string]func(fn string) *validate.BoundAnalytic{
		"range=0":         func(fn string) *validate.BoundAnalytic { return slidingSpec(fn, 0, 0, false) },
		"range=150":       func(fn string) *validate.BoundAnalytic { return slidingSpec(fn, 150, 0, false) },
		"range=2000":      func(fn string) *validate.BoundAnalytic { return slidingSpec(fn, 2000, 0, false) },
		"rows=0":          func(fn string) *validate.BoundAnalytic { return rowsSpec(fn, 0) },
		"rows=3":          func(fn string) *validate.BoundAnalytic { return slidingSpec(fn, 0, 3, false) },
		"rows=40":         func(fn string) *validate.BoundAnalytic { return slidingSpec(fn, 0, 40, false) },
		"range-unbounded": func(fn string) *validate.BoundAnalytic { return slidingSpec(fn, 0, 0, true) },
		"rows-unbounded": func(fn string) *validate.BoundAnalytic {
			s := rowsSpec(fn, 0)
			s.Unbounded = true
			return s
		},
	}
}

// rowsSpec is a ROWS frame that may be 0 rows preceding, which
// slidingSpec would read as RANGE.
func rowsSpec(fn string, rows int64) *validate.BoundAnalytic {
	s := slidingSpec(fn, 0, rows, false)
	s.IsRows = true
	return s
}

// TestSlidingWindowMatchesBruteForce runs SUM, COUNT, AVG, MIN and MAX as
// one operator's five OVER calls against the brute-force reference, for
// every frame, at block sizes that put page boundaries inside and between
// blocks, over a plain store, a CachedStore that holds every state and one
// small enough to evict states between blocks. The stored state must also
// be byte-identical at every block size and in every store mode.
func TestSlidingWindowMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(0x51d1))
	rows := windowRows(rng, 400, 4, 60)
	fns := []string{"SUM", "COUNT", "AVG", "MIN", "MAX"}
	blockSizes := []int{1, 7, 16, 17, 256, 2 + rng.Intn(60)}
	stores := []struct {
		name  string
		cache int
	}{{"plain", 0}, {"cached", 1 << 12}, {"cached-evicting", 3}}
	for frame, mk := range windowFrames() {
		t.Run(frame, func(t *testing.T) {
			var calls []*validate.BoundAnalytic
			var want [][]any
			for _, fn := range fns {
				spec := mk(fn)
				calls = append(calls, spec)
				want = append(want, refWindow(spec, rows))
			}
			refDigest := ""
			for _, st := range stores {
				for _, bs := range blockSizes {
					label := fmt.Sprintf("%s block=%d", st.name, bs)
					base := kv.NewStore()
					var store kv.Store = base
					if st.cache > 0 {
						store = kv.NewCachedStore(base, st.cache, 5)
					}
					op, err := NewSlidingWindowOp(calls)
					if err != nil {
						t.Fatal(err)
					}
					if err := op.Open(&OpContext{Store: func(string) kv.Store { return store }, Metrics: metrics.NewRegistry()}); err != nil {
						t.Fatal(err)
					}
					var got [][]any
					emit := func(b *TupleBlock) error {
						for _, r := range b.Sel {
							vals := make([]any, len(fns))
							for c := range fns {
								vals[c] = b.Cols[3+c][r]
							}
							got = append(got, vals)
						}
						return nil
					}
					b := &TupleBlock{}
					for from := 0; from < len(rows); from += bs {
						fillRows(b, rows, from, min(from+bs, len(rows)))
						if err := op.ProcessBlock(0, b, emit); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
					}
					if len(got) != len(rows) {
						t.Fatalf("%s: %d output rows, want %d", label, len(got), len(rows))
					}
					for i := range rows {
						for c, fn := range fns {
							if fmt.Sprint(got[i][c]) != fmt.Sprint(want[c][i]) {
								t.Fatalf("%s: row %d %+v: %s = %v, reference %v", label, i, rows[i], fn, got[i][c], want[c][i])
							}
						}
					}
					if f, ok := store.(kv.Flushable); ok {
						if err := f.Flush(); err != nil {
							t.Fatal(err)
						}
					}
					d := digestStore(base)
					if refDigest == "" {
						refDigest = d
					} else if d != refDigest {
						t.Fatalf("%s: stored state %s differs from the first run's %s", label, d, refDigest)
					}
				}
			}
		})
	}
}

// errCrash is what crashStore panics with.
var errCrash = fmt.Errorf("injected crash")

// The kinds of changelog produce a crash can land on: the write that fills
// a batch (a page Put, an 's' Put or a dead-page Delete) or a commit flush.
const (
	pagePut = iota
	statePut
	pageDelete
	commitFlush
)

// crashStore sits directly above the changelog store and panics, instead
// of letting the crashAt-th changelog produce happen (counting from 1; 0
// never crashes), modelling a task killed there: the records of the batch
// being produced, and any later ones, never reach the changelog topic.
// kinds records the kind of every produce it saw.
type crashStore struct {
	*kv.ChangelogStore
	// batch is the changelog store's write-batch size.
	batch   int
	crashAt int
	kinds   []int
}

func (s *crashStore) produce(kind int) {
	s.kinds = append(s.kinds, kind)
	if len(s.kinds) == s.crashAt {
		panic(errCrash)
	}
}

func (s *crashStore) Put(key, value []byte) {
	if s.Pending()+1 >= s.batch {
		kind := pagePut
		if key[0] == 's' {
			kind = statePut
		}
		s.produce(kind)
	}
	s.ChangelogStore.Put(key, value)
}

func (s *crashStore) Delete(key []byte) bool {
	if s.Pending()+1 >= s.batch {
		s.produce(pageDelete)
	}
	return s.ChangelogStore.Delete(key)
}

func (s *crashStore) Flush() error {
	if s.Pending() > 0 {
		s.produce(commitFlush)
	}
	return s.ChangelogStore.Flush()
}

// crashRun is one window job over a changelog topic.
type crashRun struct {
	broker *kafka.Broker
	calls  []*validate.BoundAnalytic
	rows   []winRow
	block  int
	// cached selects the write-behind stack — a CachedStore of cacheSize
	// states over a changelog batching batch records, flushed every commit
	// blocks — instead of the write-through one.
	cached           bool
	cacheSize, batch int
	commit           int
	// checkpoint is the offset after the last successful commit: the
	// offset a restarted task resumes from at the latest.
	checkpoint int
	// out collects each emitted row's values by offset.
	out map[int64][][]any
}

const crashTopic = "window-changelog"

// open restores a fresh store from the changelog topic and opens a fresh
// operator over it, on a crashStore that crashes at its crashAt-th
// produce.
func (r *crashRun) open(t *testing.T, crashAt int) (*SlidingWindowOp, *crashStore) {
	t.Helper()
	cl, err := kv.NewChangelogStore(kv.NewStore(), r.broker, crashTopic, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Restore(); err != nil {
		t.Fatal(err)
	}
	cs := &crashStore{ChangelogStore: cl, batch: 1, crashAt: crashAt}
	var store kv.Store = cs
	if r.cached {
		cs.batch = r.batch
		store = kv.NewCachedStore(cs, r.cacheSize, r.batch)
	}
	cl.SetWriteBatchSize(cs.batch) // 1: write-through, the exactly-once configuration
	op, err := NewSlidingWindowOp(r.calls)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(&OpContext{Store: func(string) kv.Store { return store }, Metrics: metrics.NewRegistry()}); err != nil {
		t.Fatal(err)
	}
	return op, cs
}

// feed processes rows from offset from on in blocks of r.block, committing
// (flushing the store) every r.commit blocks and at the end. It returns the
// first offset of the block that crashed — processing it or at the commit
// after it — or -1 when none did.
func (r *crashRun) feed(t *testing.T, op *SlidingWindowOp, from int) (crashed int) {
	t.Helper()
	emit := func(b *TupleBlock) error {
		for _, k := range b.Sel {
			vals := make([]any, len(r.calls))
			for c := range r.calls {
				vals[c] = b.Cols[3+c][k]
			}
			off := b.Offsets[k]
			r.out[off] = append(r.out[off], vals)
		}
		return nil
	}
	b := &TupleBlock{}
	for n := 1; from < len(r.rows); from, n = from+r.block, n+1 {
		to := min(from+r.block, len(r.rows))
		fillRows(b, r.rows, from, to)
		var err error
		if func() (crashed bool) {
			defer func() {
				if p := recover(); p != nil {
					if p != errCrash {
						panic(p)
					}
					crashed = true
				}
			}()
			if err = op.ProcessBlock(0, b, emit); err != nil {
				return false
			}
			if n%r.commit == 0 || to == len(r.rows) {
				if err = op.store.(kv.Flushable).Flush(); err == nil {
					r.checkpoint = to
				}
			}
			return false
		}() {
			return from
		}
		if err != nil {
			t.Fatalf("block at %d: %v", from, err)
		}
	}
	return -1
}

// restored rebuilds a store from the changelog topic.
func (r *crashRun) restored(t *testing.T) kv.Store {
	t.Helper()
	s := kv.NewStore()
	cl, err := kv.NewChangelogStore(s, r.broker, crashTopic, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Restore(); err != nil {
		t.Fatal(err)
	}
	return s
}

// appliedRows returns the rows among rows[from:to] that the changelog's
// state for OVER call 0 has applied.
func (r *crashRun) appliedRows(t *testing.T, from, to int) map[int]bool {
	t.Helper()
	op, err := NewSlidingWindowOp(r.calls)
	if err != nil {
		t.Fatal(err)
	}
	s := r.restored(t)
	src := op.sources.keyFor("in", 0)
	applied := map[int]bool{}
	for i := from; i < to; i++ {
		pk, err := encodeGroupKey(op.obj, []any{r.rows[i].pid})
		if err != nil {
			t.Fatal(err)
		}
		v, ok := s.Get(appendStateKey(nil, 0, pk))
		ws, err := op.decodeCallState(op.calls[0], v, ok)
		if err != nil {
			t.Fatal(err)
		}
		if ws.offsets.seen(src, int64(i)) {
			applied[i] = true
		}
	}
	return applied
}

// TestSlidingWindowCrashSweep crashes the window operator at a seeded
// changelog produce, restores a fresh store from the changelog topic, opens
// a fresh operator and replays from a seeded offset at or before the last
// commit. Seeds 1–90 run the write-through stack, where every store write
// is its own produce, and crash on a page Put, an 's' Put or a dead-page
// Delete in turn. Seeds 91–390 run a CachedStore over a changelog batching
// 5 records, committed every 3 blocks — the cache holding 2 entries, so it
// evicts states mid-block, or (two seeds in three) 64, so states stay dirty
// across blocks — and crash at any produce: one a write fills, or a
// commit's. In both, the restored state must end byte-identical to an
// uninterrupted run's, and every row emitted must carry the uninterrupted
// run's values.
//
// Every row is emitted, with one exception: each 's' row is its key's
// commit point, so a crash between two (call, key) state rows of one block
// leaves the rows already applied to the durable state — call 0's offset
// vector records them — applied but never emitted. Only those rows of the
// crashed block may be missing. Write-through emits no row twice; the
// write-behind stack re-emits rows after the last commit whose state the
// crash lost. Run one seed with -run 'TestSlidingWindowCrashSweep/seed=N$'.
func TestSlidingWindowCrashSweep(t *testing.T) {
	for seed := 1; seed <= 390; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			cached := seed > 90
			calls := []*validate.BoundAnalytic{slidingSpec("SUM", 150, 0, false)}
			block := 1
			if cached || (seed/3)%2 == 1 {
				block = 1 + rng.Intn(40)
				if rng.Intn(2) == 0 {
					calls = append(calls, rowsSpec("MAX", 5))
				}
			}
			rows := windowRows(rng, 200, 3, 60)
			newRun := func() *crashRun {
				r := &crashRun{broker: kafka.NewBroker(), calls: calls, rows: rows, block: block, commit: 1, out: map[int64][][]any{}}
				if cached {
					r.cached, r.cacheSize, r.batch, r.commit = true, []int{2, 64, 64}[seed%3], 5, 3
				}
				return r
			}

			clean := newRun()
			op, cs := clean.open(t, 0)
			clean.feed(t, op, 0)
			wantDigest := digestStore(clean.restored(t))

			// The crash point: a seeded produce, of this seed's kind on the
			// write-through stack.
			var points []int
			for i, k := range cs.kinds {
				if cached || k == seed%3 {
					points = append(points, i+1)
				}
			}
			crashAt := points[rng.Intn(len(points))]
			run := newRun()
			op, _ = run.open(t, crashAt)
			crashed := run.feed(t, op, 0)
			if crashed < 0 {
				t.Fatalf("produce %d of %d never crashed", crashAt, len(cs.kinds))
			}
			end := min(crashed+block, len(rows))
			lost := run.appliedRows(t, crashed, end)
			ckpt, resume := run.checkpoint, crashed
			if cached {
				resume = ckpt
			}
			replayFrom := rng.Intn(resume + 1)
			op, _ = run.open(t, 0)
			if run.feed(t, op, replayFrom) >= 0 {
				t.Fatal("replay crashed")
			}
			t.Logf("block %d, %d calls, cached %v: crashed at produce %d of %d (kind %d), in the block at %d; %d of its rows applied; replayed from %d",
				block, len(calls), cached, crashAt, len(cs.kinds), cs.kinds[crashAt-1], crashed, len(lost), replayFrom)

			for i := range rows {
				got, want := run.out[int64(i)], clean.out[int64(i)][0]
				switch {
				case len(got) == 0 && !lost[i]:
					t.Fatalf("row %d never emitted", i)
				case len(got) > 1 && !(cached && i >= ckpt && i < end):
					t.Fatalf("row %d emitted %d times", i, len(got))
				}
				for _, g := range got {
					if fmt.Sprint(g) != fmt.Sprint(want) {
						t.Fatalf("row %d emitted %v, uninterrupted run %v", i, g, want)
					}
				}
			}
			if got := digestStore(run.restored(t)); got != wantDigest {
				t.Fatalf("restored state %s, uninterrupted run %s", got, wantDigest)
			}
		})
	}
}

// countStore counts the calls made into the store below it.
type countStore struct {
	kv.Store
	gets, writes, ranges int
}

func (s *countStore) Get(key []byte) ([]byte, bool) { s.gets++; return s.Store.Get(key) }
func (s *countStore) Put(key, value []byte)         { s.writes++; s.Store.Put(key, value) }
func (s *countStore) Delete(key []byte) bool        { s.writes++; return s.Store.Delete(key) }
func (s *countStore) Range(start, end []byte, limit int) []kv.Entry {
	s.ranges++
	return s.Store.Range(start, end, limit)
}

// TestSlidingWindowStoreTraffic pins the page layout's store cost: 256-row
// blocks over 4 keys, after warm-up, make about one write per key per page
// filled, not three per row. With the cache (flushed after every block, as
// if each block were a commit) a warm key makes no Range call at all;
// without it each block makes one Range per distinct key.
func TestSlidingWindowStoreTraffic(t *testing.T) {
	const (
		block  = 256
		parts  = 4
		blocks = 40
	)
	for _, cached := range []bool{true, false} {
		t.Run(fmt.Sprintf("cached=%v", cached), func(t *testing.T) {
			op, err := NewSlidingWindowOp([]*validate.BoundAnalytic{slidingSpec("SUM", 1000, 0, false)})
			if err != nil {
				t.Fatal(err)
			}
			cs := &countStore{Store: kv.NewStore()}
			var store kv.Store = cs
			if cached {
				store = kv.NewCachedStore(cs, 1<<12, 0)
			}
			if err := op.Open(&OpContext{Store: func(string) kv.Store { return store }, Metrics: metrics.NewRegistry()}); err != nil {
				t.Fatal(err)
			}
			b := &TupleBlock{}
			emit := func(*TupleBlock) error { return nil }
			ts, off := int64(1_600_000_000_000), int64(0)
			for i := 0; i < blocks; i++ {
				if i == 4 { // warm: every key resident, the window full
					*cs = countStore{Store: cs.Store}
				}
				fillWindowBlock(b, block, parts, 16, ts, off, 10)
				ts += block * 10
				off += block
				if err := op.ProcessBlock(0, b, emit); err != nil {
					t.Fatal(err)
				}
				if f, ok := store.(kv.Flushable); ok {
					if err := f.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			rows := float64((blocks - 4) * block)
			t.Logf("per row: %.3f writes, %.4f ranges, %.4f gets", float64(cs.writes)/rows, float64(cs.ranges)/rows, float64(cs.gets)/rows)
			if w := float64(cs.writes) / rows; w > 0.2 {
				t.Errorf("%.3f store writes per row, want <= 0.2", w)
			}
			wantRanges := 0
			if !cached {
				wantRanges = (blocks - 4) * parts
			}
			if cs.ranges != wantRanges {
				t.Errorf("%d Range calls over %d blocks, want %d", cs.ranges, blocks-4, wantRanges)
			}
		})
	}
}

// TestSlidingWindowPagesFollowLiveSet keeps one contribution live for the
// whole run (a far-future timestamp a RANGE frame never passes) while
// thousands of others expire behind it: the dead pages after it must be
// deleted, and the resident state must track only the pages still stored,
// not one entry per page ever written.
func TestSlidingWindowPagesFollowLiveSet(t *testing.T) {
	op, err := NewSlidingWindowOp([]*validate.BoundAnalytic{slidingSpec("SUM", 100, 0, false)})
	if err != nil {
		t.Fatal(err)
	}
	base := kv.NewStore()
	cached := kv.NewCachedStore(base, 1<<10, 0)
	if err := op.Open(&OpContext{Store: func(string) kv.Store { return cached }, Metrics: metrics.NewRegistry()}); err != nil {
		t.Fatal(err)
	}
	rows := []winRow{{ts: 1 << 50, units: 1, pid: 7}}
	for i := 1; i < 4000; i++ {
		rows = append(rows, winRow{ts: 1_000_000 + int64(i)*10, units: 1, pid: 7})
	}
	b := &TupleBlock{}
	emit := func(*TupleBlock) error { return nil }
	for from := 0; from < len(rows); from += 37 {
		fillRows(b, rows, from, min(from+37, len(rows)))
		if err := op.ProcessBlock(0, b, emit); err != nil {
			t.Fatal(err)
		}
	}
	if err := cached.Flush(); err != nil {
		t.Fatal(err)
	}
	stored := len(base.Range([]byte{'m'}, []byte{'n'}, 0))
	pk, err := encodeGroupKey(op.obj, []any{int64(7)})
	if err != nil {
		t.Fatal(err)
	}
	obj, ok := cached.GetObject(appendStateKey(nil, 0, pk))
	if !ok {
		t.Fatal("window state not resident")
	}
	ws := obj.(*windowState)
	// The sticky contribution's page, up to two pages of the 100ms frame
	// (~11 contributions) and the tail page.
	if stored > 4 || len(ws.pages) != stored {
		t.Fatalf("%d page rows stored, %d tracked, %d live contributions", stored, len(ws.pages), ws.count)
	}
}
