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

// SlidingWindowOp implements Algorithm 1 (§4.3): on each tuple it saves the
// message into local storage, initializes/advances the window bounds, purges
// expired messages while adjusting aggregate values, folds in the current
// tuple, and emits the input row extended with the latest aggregate values
// downstream; the window state persists once per key per block.
//
// All state lives in the task's key-value store so Samza's changelog
// snapshot/restore makes the operator fault-tolerant, and per-stream offset
// markers make re-delivered messages no-ops (exactly-once output, §4.3).
// The heavy store read/write traffic per tuple is intrinsic — the paper
// measures sliding-window throughput as dominated by key-value access.
//
// When the job enables the store cache (JobSpec.StoreCacheSize), the
// per-partition window state rows ('s' keys) stay resident as decoded
// windowState objects: a cache-hit tuple pays no ObjectSerde decode on load
// and no encode on save (encoding defers to commit flush or eviction).
// Message contributions ('m' keys) are write-once and range-purged, which a
// point-read LRU cannot help, so they route to the uncached layer — that
// also keeps the hot path free of Range calls on the cache, which would
// force the write batch through early and destroy deduplication.
type SlidingWindowOp struct {
	calls []*analyticState
	store kv.Store
	// cache is non-nil when the task store supports object caching; msgStore
	// is then the layer underneath it for the write-once 'm' key space.
	cache    kv.ObjectCache
	msgStore kv.Store
	encState kv.ObjectEncoder
	obj      serde.ObjectSerde
	sources  sourceKeys

	// Per-tuple scratch buffers (tasks are single-goroutine; every store
	// layer copies keys and values it retains, so reuse is safe). sbuf holds
	// the state key, kbuf the message key, pbuf/ebuf the purge-scan bounds,
	// vbuf the encoded contribution.
	sbuf, kbuf, pbuf, ebuf, vbuf []byte

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

// windowState is one window partition's decoded state: the live accumulator,
// the retained-contribution count, and the per-source applied-offset vector
// that makes re-delivered messages no-ops. Its encoded form is the
// [accSnapshot, count, offsetVector] row decodeCallState reads.
type windowState struct {
	acc     Accumulator
	count   int64
	offsets offsetVector
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
	o.msgStore = o.store
	if c, ok := o.store.(kv.ObjectCache); ok {
		o.cache = c
		o.msgStore = c.Uncached()
		// Bound once: a method value allocates, and the encoder is handed to
		// the cache on every state save.
		o.encState = o.encodeState
	}
	return nil
}

// encodeState is the deferred ObjectEncoder for cached window state; the
// cache invokes it at commit flush or eviction, so a partition rewritten N
// times per interval is encoded once.
func (o *SlidingWindowOp) encodeState(obj any) ([]byte, error) {
	ws := obj.(*windowState)
	return o.obj.Encode([]any{ws.acc.Snapshot(), ws.count, []any(ws.offsets)})
}

// foldTuple applies one tuple's contribution to a loaded window state:
// Algorithm 1 steps 2–5 (save contribution, purge expired, fold, rebuild
// non-invertible aggregates). Replay detection and state persistence stay
// with the caller, which saves once per key per block.
//
//samzasql:hotpath
func (o *SlidingWindowOp) foldTuple(c *analyticState, ws *windowState, pk []byte, ts int64, arg any, offset int64) error {
	ws.count++

	// 2. Save the message's window contribution in the message store.
	var err error
	o.kbuf = appendMsgKey(o.kbuf[:0], c.idx, pk, ts, offset)
	o.vbuf, err = o.encodeContribution(o.vbuf[:0], ts, arg)
	if err != nil {
		return err
	}
	//samzasql:ignore hotpath-blocking -- the task store mutex is per-task single-writer and uncontended by design; skiplist access under it is the state-access contract
	o.msgStore.Put(o.kbuf, o.vbuf)

	// 3. Purge expired messages, adjusting aggregate values.
	rebuild := false
	o.pbuf = appendMsgPrefix(o.pbuf[:0], c.idx, pk)
	prefix := o.pbuf
	if !c.spec.Unbounded {
		if c.spec.IsRows {
			// Keep the last FrameRows+1 contributions.
			keep := c.spec.FrameRows + 1
			if ws.count > keep {
				//samzasql:ignore hotpath-blocking -- the task store mutex is per-task single-writer and uncontended by design; skiplist access under it is the state-access contract
				entries := o.msgStore.Range(prefix, prefixEnd(prefix), int(ws.count-keep))
				for _, e := range entries {
					//samzasql:ignore hotpath-blocking -- the task store mutex is per-task single-writer and uncontended by design; skiplist access under it is the state-access contract
					if err := o.dropEntry(ws.acc, e, &rebuild); err != nil {
						return err
					}
					ws.count--
				}
			}
		} else if cutoff := ts - c.spec.FrameMillis; cutoff > 0 {
			// RANGE frame: drop contributions older than ts - frame.
			// (cutoff <= 0 cannot match any Unix-milli timestamp, and a
			// negative value would wrap in the unsigned key encoding.)
			o.ebuf = appendMsgKey(o.ebuf[:0], c.idx, pk, cutoff, 0)
			//samzasql:ignore hotpath-blocking -- the task store mutex is per-task single-writer and uncontended by design; skiplist access under it is the state-access contract
			entries := o.msgStore.Range(prefix, o.ebuf, 0)
			for _, e := range entries {
				//samzasql:ignore hotpath-blocking -- the task store mutex is per-task single-writer and uncontended by design; skiplist access under it is the state-access contract
				if err := o.dropEntry(ws.acc, e, &rebuild); err != nil {
					return err
				}
				ws.count--
			}
		}
	}
	// 4. Fold in the current tuple.
	if err := ws.acc.Add(arg); err != nil {
		return err
	}
	// 5. Non-invertible aggregates (MIN/MAX, non-invertible UDAFs) rebuild
	// from the retained window after a purge.
	if rebuild && !ws.acc.Invertible() {
		fresh := c.newAcc()
		//samzasql:ignore hotpath-blocking -- the task store mutex is per-task single-writer and uncontended by design; skiplist access under it is the state-access contract
		for _, e := range o.msgStore.Range(prefix, prefixEnd(prefix), 0) {
			val, err := o.decodeContribution(e.Value)
			if err != nil {
				return err
			}
			if err := fresh.Add(val); err != nil {
				return err
			}
		}
		ws.acc = fresh
	}
	return nil
}

// dropEntry removes one expired message contribution.
func (o *SlidingWindowOp) dropEntry(acc Accumulator, e kv.Entry, rebuild *bool) error {
	val, err := o.decodeContribution(e.Value)
	if err != nil {
		return err
	}
	if acc.Invertible() {
		if err := acc.Remove(val); err != nil {
			return err
		}
	} else {
		*rebuild = true
	}
	o.msgStore.Delete(e.Key)
	return nil
}

// Contribution value codec: the overwhelmingly common int64 argument encodes
// as a fixed 17-byte record {1, ts, value}, skipping the ObjectSerde round
// trip each tuple pays on save and each purge pays on drop; other argument
// types wrap the ObjectSerde row [ts, value] behind a 0 marker.
func (o *SlidingWindowOp) encodeContribution(buf []byte, ts int64, arg any) ([]byte, error) {
	if v, ok := arg.(int64); ok {
		var b [8]byte
		buf = append(buf, 1)
		binary.BigEndian.PutUint64(b[:], uint64(ts))
		buf = append(buf, b[:]...)
		binary.BigEndian.PutUint64(b[:], uint64(v))
		return append(buf, b[:]...), nil
	}
	row, err := o.obj.Encode([]any{ts, arg})
	if err != nil {
		return nil, err
	}
	return append(append(buf, 0), row...), nil
}

// decodeContribution returns the aggregate input value of one stored
// contribution.
func (o *SlidingWindowOp) decodeContribution(v []byte) (any, error) {
	if len(v) == 17 && v[0] == 1 {
		return int64(binary.BigEndian.Uint64(v[9:])), nil
	}
	if len(v) == 0 || v[0] != 0 {
		return nil, fmt.Errorf("operators: bad window contribution encoding (%d bytes)", len(v))
	}
	contrib, err := o.obj.Decode(v[1:])
	if err != nil {
		return nil, err
	}
	return contrib.([]any)[1], nil
}

// appendMsgPrefix appends "m" + callIdx + len(pk) + pk to buf; fixed-width so
// ts ordering inside the prefix is the byte ordering. The append-style
// helpers let the hot path reuse per-operator scratch buffers.
func appendMsgPrefix(buf []byte, idx byte, pk []byte) []byte {
	buf = append(buf, 'm', idx)
	var l [2]byte
	binary.BigEndian.PutUint16(l[:], uint16(len(pk)))
	buf = append(buf, l[:]...)
	return append(buf, pk...)
}

func appendMsgKey(buf []byte, idx byte, pk []byte, ts, offset int64) []byte {
	buf = appendMsgPrefix(buf, idx, pk)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(ts))
	buf = append(buf, b[:]...)
	binary.BigEndian.PutUint64(b[:], uint64(offset))
	return append(buf, b[:]...)
}

// prefixEnd returns the smallest key greater than every key with prefix p.
func prefixEnd(p []byte) []byte {
	out := append([]byte(nil), p...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xff {
			out[i]++
			return out[:i+1]
		}
	}
	return nil // prefix is all 0xff: scan to the end
}

func appendStateKey(buf []byte, idx byte, pk []byte) []byte {
	buf = append(buf, 's', idx)
	return append(buf, pk...)
}

// decodeCallState builds a windowState from stored bytes; ok=false yields a
// fresh empty state.
func (o *SlidingWindowOp) decodeCallState(c *analyticState, v []byte, ok bool) (*windowState, error) {
	ws := &windowState{acc: c.newAcc()}
	if ok {
		snap, err := o.obj.Decode(v)
		if err != nil {
			return nil, err
		}
		row := snap.([]any)
		if len(row) != 3 {
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
	}
	return ws, nil
}

// saveCallState persists the window state under sk. With the cache the
// object is stored as-is and encoding defers to flush/eviction; without it
// the row is encoded and written on every save, the paper-faithful baseline.
func (o *SlidingWindowOp) saveCallState(sk []byte, ws *windowState) error {
	if o.cache != nil {
		o.cache.PutObject(sk, ws, o.encState)
		return nil
	}
	v, err := o.encodeState(ws)
	if err != nil {
		return err
	}
	o.store.Put(sk, v)
	return nil
}
