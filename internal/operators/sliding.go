package operators

import (
	"encoding/binary"
	"fmt"

	"samzasql/internal/kv"
	"samzasql/internal/serde"
	"samzasql/internal/sql/expr"
	"samzasql/internal/sql/validate"
)

// SlidingStoreName is the task store backing the sliding window operator.
const SlidingStoreName = "samzasql-window"

// SlidingWindowOp implements Algorithm 1 (§4.3): for each tuple it records
// the message's window contribution, advances the window bounds, purges
// expired contributions while adjusting aggregate values, folds in the
// current tuple, and emits the input row extended with the latest aggregate
// values downstream.
//
// All state lives in the task's key-value store so Samza's changelog
// snapshot/restore makes the operator fault-tolerant, and per-stream offset
// markers make re-delivered messages no-ops (exactly-once output, §4.3).
// Per call idx and partition key pk the store holds:
//
//   - 's' idx pk: [accSnapshot, count, offsetVector, next], where next is
//     the arrival index the key's next contribution will get;
//   - 'm' idx len(pk) pk page: the contributions with arrival indices
//     page*pageSize .. page*pageSize+pageSize-1, in arrival order. A page's
//     final bytes depend only on the input, never on block boundaries.
//
// A block loads each distinct key once (one batched 's' read plus one Range
// over its pages, replayed through the eviction rule to rebuild the live
// set), folds the key's rows in memory, and writes in a fixed order: each
// page the block fills as it fills, the tail page right before the 's' row
// (the state's encoder writes it), and — after the block's output is
// emitted — a Delete for every full page with no live contribution left.
// Every crash point restores a consistent state: page entries at or past
// next are ignored on load, and a dead page left behind is found dead on
// the next load and deleted then. Each 's' row is its key's commit point,
// so output stays exactly-once across a crash inside a block only when the
// block commits one 's' row; a crash between two keys' (or two calls') rows
// leaves the saved ones' rows applied but never emitted. UNBOUNDED frames
// never evict, so they keep no pages at all.
//
// When the job enables the store cache (JobSpec.StoreCacheSize), the
// decoded windowState — live set included — stays resident in the cache:
// a cache-hit key pays no 's' decode, no page Range and no replay, and its
// 's' row is encoded only at commit flush or eviction. The cache writes
// rows back in its own order, so page rows bypass it (ObjectCache.Uncached)
// and reach the changelog when written: a full page at once, the tail page
// when the cache encodes the 's' row — right before that row, once per
// commit however many blocks appended to it. Two kinds of save also write
// the 's' row below the cache at once. One that drops dead pages does, so
// the page Deletes that follow land after a row that no longer counts
// them. With several OVER calls every save of call 0 does: call 0's offset
// vectors decide which rows a replay emits, and the other calls report
// their current value for a row they have already applied, so no call's
// durable state may run ahead of call 0's. The cache entry holds the same
// object, so its own later write-back is that state or a newer one.
type SlidingWindowOp struct {
	calls []*analyticState
	store kv.Store
	// cache is non-nil when the task store supports object caching.
	cache    kv.ObjectCache
	encState kv.ObjectEncoder
	obj      serde.ObjectSerde
	sources  sourceKeys
	// direct is the store whose writes reach the changelog at once, where
	// page rows go: the store under the cache when there is one, else the
	// task store itself.
	direct kv.Store

	// Scratch buffers (tasks are single-goroutine; every store layer copies
	// keys and values it retains, so reuse is safe): sbuf holds the state
	// key, kbuf a page key, pbuf/ebuf the page Range bounds.
	sbuf, kbuf, pbuf, ebuf []byte
	// delKeys holds the block's dead page keys back to back, delEnds where
	// each ends; they are deleted after the block's output is emitted.
	delKeys []byte
	delEnds []int
	// spare holds window states released after an uncached block, so the
	// next block's loads reuse their buffers instead of regrowing them.
	spare []*windowState

	// Block-path scratch (block_stateful.go): the output block, the gather
	// row, per-row group keys, per-row replay flags, the per-block state map
	// keyed by state-key string, and the batched-read slices.
	outBlock   TupleBlock
	rowScratch []any
	blkPks     [][]byte
	blkReplay  []bool
	blkStates  map[string]*windowState
	blkKeys    [][]byte
	blkMiss    [][]byte
	blkVals    [][]byte
	blkObjs    []any
	blkOks     []bool
}

// pageSize is how many contributions one page row holds.
const pageSize = 16

// contribution is one retained window contribution: its ORDER BY
// timestamp, its arrival index within the key, and the aggregate input.
type contribution struct {
	ts, idx int64
	v       any
}

// pageCount is one stored page row and its live contributions; live is -1
// once the page is queued for deletion.
type pageCount struct {
	page int64
	live int32
}

// windowState is one window partition's decoded state. Its encoded form is
// the [accSnapshot, count, offsetVector, next] 's' row; the live set and
// page bookkeeping are rebuilt from the page rows on load.
type windowState struct {
	acc Accumulator
	// count is the number of retained contributions (all of them for an
	// UNBOUNDED frame).
	count   int64
	offsets offsetVector
	// next is the arrival index of the key's next contribution.
	next int64
	// live[head:] is the live set, ordered by (ts, arrival index); eviction
	// always removes a prefix of it.
	live []contribution
	head int
	// pages lists the key's page rows that exist, in page order, with the
	// number of live contributions each holds. It stays proportional to the
	// live set: a long-lived contribution keeps its own page, not the
	// deleted ones after it.
	pages []pageCount
	// tail holds the encoded contributions of the partial page
	// next/pageSize; tailDirty marks it appended to since its last Put.
	tail      []byte
	tailDirty bool
	// key is the state's 's' row key ('s' idx pk), which names its pages.
	key []byte
	// dead lists full pages whose last live contribution was evicted; they
	// are deleted after the next 's' write.
	dead []int64
	// dirty marks block-path modification; set while a block is in flight so
	// the state is written back once per key per block, cleared on save. Not
	// part of the encoded form.
	dirty bool
}

type analyticState struct {
	spec      *validate.BoundAnalytic
	partEvals []expr.Evaluator
	orderEval expr.Evaluator
	argEval   expr.Evaluator // nil for COUNT(*)
	// newAcc builds a fresh accumulator for this call, resolved once at
	// construction so per-tuple state decodes stay off the UDAF registry lock.
	newAcc func() Accumulator
	idx    byte
	// partVals is the per-tuple partition-value scratch (tasks are
	// single-goroutine, so one buffer per call suffices).
	partVals []any
	// pkMemo caches encoded group keys for the common single-int64
	// partition column (PARTITION BY productId), skipping the per-tuple
	// ObjectSerde encode. Bounded: cardinality past pkMemoCap falls back to
	// encoding.
	pkMemo map[int64][]byte
}

// pkMemoCap bounds the group-key memo; the window state itself holds one row
// per group, so the memo never exceeds the state's own key cardinality until
// this cap.
const pkMemoCap = 1 << 16

// groupKey returns the encoded partition key for the tuple's partition
// values, memoized for single-int64 partitions.
func (c *analyticState) groupKey(g serde.ObjectSerde) ([]byte, error) {
	if len(c.partVals) == 1 {
		if v, ok := c.partVals[0].(int64); ok {
			if pk, ok := c.pkMemo[v]; ok {
				return pk, nil
			}
			pk, err := encodeGroupKey(g, c.partVals)
			if err != nil {
				return nil, err
			}
			if c.pkMemo == nil {
				c.pkMemo = make(map[int64][]byte)
			}
			if len(c.pkMemo) < pkMemoCap {
				c.pkMemo[v] = pk
			}
			return pk, nil
		}
	}
	return encodeGroupKey(g, c.partVals)
}

// NewSlidingWindowOp compiles the analytic calls.
func NewSlidingWindowOp(calls []*validate.BoundAnalytic) (*SlidingWindowOp, error) {
	if len(calls) > 255 {
		return nil, fmt.Errorf("operators: too many analytic calls (%d)", len(calls))
	}
	op := &SlidingWindowOp{}
	for i, c := range calls {
		st := &analyticState{spec: c, idx: byte(i)}
		for _, p := range c.PartitionBy {
			ev, err := expr.Compile(p)
			if err != nil {
				return nil, err
			}
			st.partEvals = append(st.partEvals, ev)
		}
		ev, err := expr.Compile(c.OrderBy)
		if err != nil {
			return nil, err
		}
		st.orderEval = ev
		if c.Arg != nil {
			ae, err := expr.Compile(c.Arg)
			if err != nil {
				return nil, err
			}
			st.argEval = ae
		}
		ctor, err := AccumCtorFor(c.Fn)
		if err != nil {
			return nil, err
		}
		st.newAcc = ctor
		op.calls = append(op.calls, st)
	}
	return op, nil
}

// Open implements Operator.
func (o *SlidingWindowOp) Open(ctx *OpContext) error {
	o.store = ctx.Store(SlidingStoreName)
	o.direct = o.store
	if c, ok := o.store.(kv.ObjectCache); ok {
		o.cache = c
		o.direct = c.Uncached()
		// Bound once: a method value allocates, and the encoder is handed to
		// the cache on every state save.
		o.encState = o.encodeState
	}
	return nil
}

// encodeState encodes the 's' row, first writing the tail page when it was
// appended to since its last write, so no 's' row reaches the store before
// the contributions it counts. It is also the deferred ObjectEncoder for
// cached window state: the cache invokes it at commit flush or eviction, so
// a partition rewritten N times per interval is encoded, and its tail page
// written, once.
func (o *SlidingWindowOp) encodeState(obj any) ([]byte, error) {
	ws := obj.(*windowState)
	if ws.tailDirty {
		o.putPage(ws.key[1], ws.key[2:], ws.next/pageSize, ws.tail)
		ws.tailDirty = false
	}
	return o.obj.Encode([]any{ws.acc.Snapshot(), ws.count, []any(ws.offsets), ws.next})
}

// foldTuple applies one tuple's contribution to a loaded window state:
// Algorithm 1 steps 2–5 (record the contribution, purge expired ones, fold,
// rebuild non-invertible aggregates), all in memory. A page the tuple fills
// is written at once; the partial tail page, the 's' row and dead-page
// deletes wait for the block's write-back.
//
//samzasql:hotpath
func (o *SlidingWindowOp) foldTuple(c *analyticState, ws *windowState, pk []byte, ts int64, arg any) error {
	if c.spec.Unbounded {
		// Nothing is ever purged, so no contribution is kept.
		ws.count++
		ws.next++
		return ws.acc.Add(arg)
	}

	// 2. Record the contribution in the key's tail page.
	var err error
	ws.tail, err = o.appendContribution(ws.tail, ts, arg)
	if err != nil {
		return err
	}
	idx := ws.next
	ws.next++
	ws.tailDirty = true
	if ws.next%pageSize == 0 {
		//samzasql:ignore hotpath-blocking -- the task store mutex is per-task single-writer and uncontended by design; skiplist access under it is the state-access contract
		o.putPage(c.idx, pk, idx/pageSize, ws.tail)
		ws.tail = ws.tail[:0]
		ws.tailDirty = false
	}

	// 3. Purge expired contributions, adjusting aggregate values.
	evicted := ws.admit(c.spec, contribution{ts: ts, idx: idx, v: arg})
	rebuild := false
	for _, e := range ws.live[ws.head-evicted : ws.head] {
		if !ws.acc.Invertible() {
			rebuild = true
			break
		}
		if err := ws.acc.Remove(e.v); err != nil {
			return err
		}
	}
	// 5. Non-invertible aggregates (MIN/MAX, non-invertible UDAFs) rebuild
	// from the in-memory live set after a purge, which includes the current
	// tuple when it is live; otherwise 4. fold the current tuple in.
	if !rebuild {
		return ws.acc.Add(arg)
	}
	fresh := c.newAcc()
	for _, e := range ws.live[ws.head:] {
		if err := fresh.Add(e.v); err != nil {
			return err
		}
	}
	ws.acc = fresh
	return nil
}

// admit inserts e, the key's newest arrival, into the live set and applies
// the frame's eviction rule at e: RANGE drops contributions with
// ts < e.ts - frame, ROWS keeps the FrameRows+1 largest by (ts, arrival
// index). It returns how many were evicted; they are live[head-n:head]
// until the next admit. Load replays the pages through the same rule.
//
//samzasql:hotpath
func (ws *windowState) admit(spec *validate.BoundAnalytic, e contribution) int {
	if ws.head > pageSize && 2*ws.head >= len(ws.live) {
		n := copy(ws.live, ws.live[ws.head:])
		clear(ws.live[n:])
		ws.live = ws.live[:n]
		ws.head = 0
	}
	// e's arrival index is the largest yet, so it goes after every
	// contribution with ts <= e.ts.
	pos := len(ws.live)
	if pos > ws.head && ws.live[pos-1].ts > e.ts {
		lo, hi := ws.head, pos-1
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if ws.live[mid].ts > e.ts {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		pos = lo
	}
	ws.live = append(ws.live, e)
	if pos < len(ws.live)-1 {
		copy(ws.live[pos+1:], ws.live[pos:])
		ws.live[pos] = e
	}
	page := e.idx / pageSize
	if n := len(ws.pages); n == 0 || ws.pages[n-1].page != page {
		ws.pages = append(ws.pages, pageCount{page: page})
	}
	last := &ws.pages[len(ws.pages)-1]
	last.live++

	from := ws.head
	if spec.IsRows {
		for int64(len(ws.live)-ws.head) > spec.FrameRows+1 {
			ws.evictHead()
		}
	} else {
		cutoff := e.ts - spec.FrameMillis
		for ws.head < len(ws.live) && ws.live[ws.head].ts < cutoff {
			ws.evictHead()
		}
	}
	ws.count = int64(len(ws.live) - ws.head)
	// A page e completed with nothing live in it is dead at once.
	if (e.idx+1)%pageSize == 0 && last.live == 0 {
		ws.dead = append(ws.dead, page)
	}
	return ws.head - from
}

// evictHead evicts the oldest live contribution, noting its page as dead
// when it was the page's last live one and the page is full.
func (ws *windowState) evictHead() {
	page := ws.live[ws.head].idx / pageSize
	ws.head++
	pc := &ws.pages[ws.findPage(page)]
	pc.live--
	if pc.live == 0 && (page+1)*pageSize <= ws.next {
		ws.dead = append(ws.dead, page)
	}
}

// findPage returns the index of page in ws.pages, which must hold it.
func (ws *windowState) findPage(page int64) int {
	lo, hi := 0, len(ws.pages)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ws.pages[mid].page < page {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Contribution record codec: the overwhelmingly common int64 argument
// encodes as a fixed 17-byte record {1, ts, value}; other argument types
// write {0, uvarint length, ObjectSerde row [ts, value]}.
func (o *SlidingWindowOp) appendContribution(buf []byte, ts int64, arg any) ([]byte, error) {
	if v, ok := arg.(int64); ok {
		buf = append(buf, 1)
		buf = binary.BigEndian.AppendUint64(buf, uint64(ts))
		return binary.BigEndian.AppendUint64(buf, uint64(v)), nil
	}
	row, err := o.obj.Encode([]any{ts, arg})
	if err != nil {
		return buf, err
	}
	buf = binary.AppendUvarint(append(buf, 0), uint64(len(row)))
	return append(buf, row...), nil
}

// readContribution decodes the record at the start of page, returning its
// timestamp, value and length.
func (o *SlidingWindowOp) readContribution(page []byte) (ts int64, v any, n int, err error) {
	if len(page) >= 17 && page[0] == 1 {
		return int64(binary.BigEndian.Uint64(page[1:])), int64(binary.BigEndian.Uint64(page[9:])), 17, nil
	}
	if len(page) == 0 || page[0] != 0 {
		return 0, nil, 0, fmt.Errorf("operators: bad window contribution record (%d bytes left)", len(page))
	}
	ln, w := binary.Uvarint(page[1:])
	if w <= 0 || ln > uint64(len(page)-1-w) {
		return 0, nil, 0, fmt.Errorf("operators: bad window contribution length")
	}
	start := 1 + w
	end := start + int(ln)
	dec, err := o.obj.Decode(page[start:end])
	if err != nil {
		return 0, nil, 0, err
	}
	row := dec.([]any)
	if len(row) != 2 {
		return 0, nil, 0, fmt.Errorf("operators: window contribution row has %d fields", len(row))
	}
	t, ok := row[0].(int64)
	if !ok {
		return 0, nil, 0, fmt.Errorf("operators: window contribution timestamp is %T", row[0])
	}
	return t, row[1], end, nil
}

// appendPagePrefix appends "m" + callIdx + len(pk) + pk to buf; every page
// key of the partition is this prefix plus the 8-byte big-endian page
// index, so a Range over the prefix returns the pages in arrival order.
func appendPagePrefix(buf []byte, idx byte, pk []byte) []byte {
	buf = append(buf, 'm', idx)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(pk)))
	return append(buf, pk...)
}

func appendPageKey(buf []byte, idx byte, pk []byte, page int64) []byte {
	return binary.BigEndian.AppendUint64(appendPagePrefix(buf, idx, pk), uint64(page))
}

// putPage writes one page row.
func (o *SlidingWindowOp) putPage(idx byte, pk []byte, page int64, b []byte) {
	o.kbuf = appendPageKey(o.kbuf[:0], idx, pk, page)
	o.direct.Put(o.kbuf, b)
}

func appendStateKey(buf []byte, idx byte, pk []byte) []byte {
	buf = append(buf, 's', idx)
	return append(buf, pk...)
}

// decodeCallState builds a windowState from stored bytes; ok=false yields a
// fresh empty state. The live set is not loaded here (loadPages).
func (o *SlidingWindowOp) decodeCallState(c *analyticState, v []byte, ok bool) (*windowState, error) {
	ws := &windowState{acc: c.newAcc()}
	if n := len(o.spare); n > 0 {
		ws = o.spare[n-1]
		o.spare = o.spare[:n-1]
		*ws = windowState{acc: c.newAcc(), live: ws.live[:0], pages: ws.pages[:0], tail: ws.tail[:0], dead: ws.dead[:0]}
	}
	if ok {
		snap, err := o.obj.Decode(v)
		if err != nil {
			return nil, err
		}
		row := snap.([]any)
		if len(row) != 4 {
			return nil, fmt.Errorf("operators: window state has %d fields", len(row))
		}
		accSnap, ok := row[0].([]any)
		if !ok {
			return nil, fmt.Errorf("operators: window state snapshot is %T", row[0])
		}
		if err := ws.acc.Restore(accSnap); err != nil {
			return nil, err
		}
		ws.count, _ = row[1].(int64)
		vec, _ := row[2].([]any)
		ws.offsets = offsetVector(vec)
		ws.next, _ = row[3].(int64)
		if ws.next < 0 {
			return nil, fmt.Errorf("operators: window state next index %d", ws.next)
		}
	}
	return ws, nil
}

// loadPages rebuilds the live set of the bounded-frame state stored under
// sk ('s' idx pk) from its page rows: one Range over the key's pages,
// replayed in arrival order through the eviction rule. Entries at or past
// next (left by a crash mid-block) are ignored; pages found full and dead
// (left by a crash before their delete) are queued for deletion after the
// next 's' write.
func (o *SlidingWindowOp) loadPages(c *analyticState, sk []byte, ws *windowState) error {
	o.pbuf = appendPagePrefix(o.pbuf[:0], c.idx, sk[2:])
	o.ebuf = append(append(o.ebuf[:0], o.pbuf...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
	tailPage := ws.next / pageSize
	for _, e := range o.direct.Range(o.pbuf, o.ebuf, 0) {
		if len(e.Key) != len(o.pbuf)+8 {
			return fmt.Errorf("operators: bad window page key (%d bytes)", len(e.Key))
		}
		page := int64(binary.BigEndian.Uint64(e.Key[len(o.pbuf):]))
		if page < 0 || page > tailPage || (page == tailPage && ws.next%pageSize == 0) {
			continue // written past next by a block that never saved its state
		}
		idx := page * pageSize
		for b := e.Value; idx < ws.next && idx < (page+1)*pageSize; {
			ts, v, w, err := o.readContribution(b)
			if err != nil {
				return err
			}
			b = b[w:]
			ws.admit(c.spec, contribution{ts: ts, idx: idx, v: v})
			idx++
			if page == tailPage && idx == ws.next {
				ws.tail = append(ws.tail[:0], e.Value[:len(e.Value)-len(b)]...)
			}
		}
	}
	if ws.next%pageSize != 0 && len(ws.tail) == 0 {
		return fmt.Errorf("operators: window tail page %d is missing", tailPage)
	}
	if live := int64(len(ws.live) - ws.head); live != ws.count {
		return fmt.Errorf("operators: window state counts %d live contributions, its pages hold %d", ws.count, live)
	}
	return nil
}

// saveCallState persists the 's' row under sk ('s' idx pk) and queues the
// state's dead pages for the post-emit deletes. With the cache the object
// is stored as-is and encoding defers to flush/eviction — unless the save
// drops pages or is call 0's of several, which writes the row below the
// cache too (see SlidingWindowOp); without the cache the row is encoded and
// written at once.
func (o *SlidingWindowOp) saveCallState(c *analyticState, sk []byte, ws *windowState) error {
	dropped := o.queueDeadPages(c.idx, sk[2:], ws)
	if o.cache != nil {
		o.cache.PutObject(sk, ws, o.encState)
		if !dropped && (c.idx > 0 || len(o.calls) == 1) {
			return nil
		}
	}
	v, err := o.encodeState(ws)
	if err != nil {
		return err
	}
	o.direct.Put(sk, v)
	return nil
}

// queueDeadPages queues the delete of every page of ws found dead and drops
// it from ws.pages, reporting whether there was one.
func (o *SlidingWindowOp) queueDeadPages(idx byte, pk []byte, ws *windowState) bool {
	if len(ws.dead) == 0 {
		return false
	}
	for _, page := range ws.dead {
		if pc := &ws.pages[ws.findPage(page)]; pc.live == 0 {
			pc.live = -1
			o.delKeys = appendPageKey(o.delKeys, idx, pk, page)
			o.delEnds = append(o.delEnds, len(o.delKeys))
		}
	}
	ws.dead = ws.dead[:0]
	kept := ws.pages[:0]
	for _, pc := range ws.pages {
		if pc.live >= 0 {
			kept = append(kept, pc)
		}
	}
	dropped := len(kept) < len(ws.pages)
	ws.pages = kept
	return dropped
}

// deleteDeadPages deletes the page rows queued by this block's saves.
func (o *SlidingWindowOp) deleteDeadPages() {
	start := 0
	for _, end := range o.delEnds {
		o.direct.Delete(o.delKeys[start:end])
		start = end
	}
	o.delKeys, o.delEnds = o.delKeys[:0], o.delEnds[:0]
}
