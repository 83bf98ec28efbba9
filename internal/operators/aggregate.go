package operators

import (
	"encoding/binary"
	"fmt"

	"samzasql/internal/kv"
	"samzasql/internal/serde"
	"samzasql/internal/sql/expr"
	"samzasql/internal/sql/validate"
)

// AggStoreName is the task store the streaming aggregate operator uses.
const AggStoreName = "samzasql-agg"

// StreamAggregateOp implements grouped aggregation over streams (§4.3
// "Hopping and tumbling windows are implemented in the streaming aggregate
// operator"). Two emission modes:
//
//   - Windowed (HOP/TUMBLE in GROUP BY): per-window accumulators keyed by
//     (window end, group key) live in the task's key-value store; a window
//     emits when the event-time watermark passes its end, and tuples for
//     already-emitted windows are discarded — the paper's timeout-expiry
//     deviation from standard SQL semantics (§3).
//
//   - Unwindowed GROUP BY: the early-results policy — every input tuple
//     emits the group's updated aggregate row immediately (an insert stream
//     of partial results, §3.3).
//
// Replayed messages are detected via per-stream last-offset markers kept in
// the same store, giving deterministic output across failure and replay.
type StreamAggregateOp struct {
	keys   []expr.Expr
	window *validate.GroupWindow
	aggs   []*validate.BoundAgg

	keyEvals []expr.Evaluator
	tsEval   expr.Evaluator
	// argEvals and accumCtors are the aggregate argument evaluators and
	// accumulator constructors, resolved once at construction and shared by
	// every AccumSet the state decode path builds.
	argEvals   []expr.Evaluator
	accumCtors []func() Accumulator

	store     kv.Store
	obj       serde.ObjectSerde
	watermark int64
	sources   sourceKeys

	// Block-path scratch (block_stateful.go): the output block, the gather
	// row, per-row group key values/bytes/timestamps, the per-block state
	// map, and the batched-read slices.
	outBlock   TupleBlock
	rowScratch []any
	keyScratch []any
	blkKb      [][]byte
	blkTs      []int64
	blkKeyVals []any
	blkWk      []byte
	blkStates  map[string]*aggBlockState
	blkKeys    [][]byte
	blkVals    [][]byte
	blkOks     []bool
}

// aggBlockState is one group's (or one (window, group)'s) state while a
// block is in flight: loaded once per block, written back once when dirty.
type aggBlockState struct {
	set     *AccumSet
	offsets offsetVector
	dirty   bool
}

// NewStreamAggregateOp builds the operator from the bound query pieces.
func NewStreamAggregateOp(keys []expr.Expr, window *validate.GroupWindow, aggs []*validate.BoundAgg) (*StreamAggregateOp, error) {
	op := &StreamAggregateOp{keys: keys, window: window, aggs: aggs}
	for _, k := range keys {
		ev, err := expr.Compile(k)
		if err != nil {
			return nil, err
		}
		op.keyEvals = append(op.keyEvals, ev)
	}
	if window != nil {
		ev, err := expr.Compile(window.Ts)
		if err != nil {
			return nil, err
		}
		op.tsEval = ev
	}
	evals, err := CompileAggArgs(aggs)
	if err != nil {
		return nil, err
	}
	op.argEvals = evals
	ctors, err := AccumCtors(aggs)
	if err != nil {
		return nil, err
	}
	op.accumCtors = ctors
	return op, nil
}

// Open implements Operator.
func (o *StreamAggregateOp) Open(ctx *OpContext) error {
	o.store = ctx.Store(AggStoreName)
	if v, ok := o.store.Get([]byte("wm")); ok && len(v) == 8 {
		o.watermark = int64(binary.BigEndian.Uint64(v))
	}
	return nil
}

// nextBoundary returns the smallest e > ts with e ≡ align (mod every).
func nextBoundary(ts, every, align int64) int64 {
	base := ts - align
	k := base / every
	e := k*every + align
	for e <= ts {
		e += every
	}
	return e
}

// advanceWatermark appends every stored window whose end is <= the new
// watermark to out, stamped with its end and the given source offset, then
// persists the watermark.
func (o *StreamAggregateOp) advanceWatermark(ts int64, out *TupleBlock, offset int64) error {
	// Window store keys are "w:"+bigendian(end)+keyBytes, so a range scan
	// up to the new watermark finds exactly the closed windows in end
	// order — deterministic emission.
	start := []byte("w:")
	end := append([]byte("w:"), u64be(uint64(ts)+1)...)
	closed := o.store.Range(start, end, 0)
	for _, e := range closed {
		winEnd := int64(binary.BigEndian.Uint64(e.Key[2:10]))
		keyVals, set, err := o.decodeEntry(e)
		if err != nil {
			return err
		}
		set.SetWindow(winEnd-o.window.RetainMillis, winEnd)
		row := append(append([]any(nil), keyVals...), set.Values()...)
		out.appendRow(row, winEnd, e.Key, offset)
		o.store.Delete(e.Key)
	}
	o.watermark = ts
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(ts))
	o.store.Put([]byte("wm"), buf[:])
	return nil
}

func u64be(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// FlushFinal emits every window still open as one block. The bounded
// (table-mode) executor calls this at end of input, where "the history of
// the stream up to the point of execution" (§3.3) is complete and all
// windows close.
func (o *StreamAggregateOp) FlushFinal(emit BlockEmit) error {
	if o.window == nil {
		return nil // unwindowed groups already emitted their latest rows
	}
	out := &o.outBlock
	out.resetOut(&TupleBlock{}, len(o.keyEvals)+len(o.aggs))
	if err := o.advanceWatermark(int64(1)<<62, out, 0); err != nil {
		return err
	}
	out.finishOut()
	return emit(out)
}

// encodeKey builds the store key "w:" + windowEnd + object(groupKey).
func (o *StreamAggregateOp) encodeKey(windowEnd int64, keyVals []any) ([]byte, error) {
	kb, err := o.obj.Encode(keyVals)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, 10+len(kb))
	out = append(out, 'w', ':')
	out = append(out, u64be(uint64(windowEnd))...)
	return append(out, kb...), nil
}

func (o *StreamAggregateOp) decodeEntry(e kv.Entry) ([]any, *AccumSet, error) {
	kv, err := o.obj.Decode(e.Key[10:])
	if err != nil {
		return nil, nil, err
	}
	keyVals := kv.([]any)
	set := NewAccumSetWith(o.aggs, o.argEvals, o.accumCtors)
	snap, err := o.obj.Decode(e.Value)
	if err != nil {
		return nil, nil, err
	}
	row := snap.([]any)
	if len(row) != 2 {
		return nil, nil, fmt.Errorf("operators: aggregate state has %d fields", len(row))
	}
	snaps, ok := row[1].([]any)
	if !ok {
		return nil, nil, fmt.Errorf("operators: aggregate snapshots are %T", row[1])
	}
	if err := set.RestoreInto(snaps); err != nil {
		return nil, nil, err
	}
	return keyVals, set, nil
}

// decodeSet builds the accumulator set and offset vector from stored state
// bytes; ok=false yields a fresh empty set.
func (o *StreamAggregateOp) decodeSet(v []byte, ok bool) (*AccumSet, offsetVector, error) {
	set := NewAccumSetWith(o.aggs, o.argEvals, o.accumCtors)
	if !ok {
		return set, nil, nil
	}
	snap, err := o.obj.Decode(v)
	if err != nil {
		return nil, nil, err
	}
	row := snap.([]any)
	if len(row) != 2 {
		return nil, nil, fmt.Errorf("operators: aggregate state has %d fields", len(row))
	}
	snaps, ok := row[1].([]any)
	if !ok {
		return nil, nil, fmt.Errorf("operators: aggregate snapshots are %T", row[1])
	}
	if err := set.RestoreInto(snaps); err != nil {
		return nil, nil, err
	}
	vec, _ := row[0].([]any)
	return set, offsetVector(vec), nil
}

func (o *StreamAggregateOp) saveSet(storeKey []byte, set *AccumSet, offsets offsetVector) error {
	row := []any{[]any(offsets), set.Snapshot()}
	v, err := o.obj.Encode(row)
	if err != nil {
		return err
	}
	o.store.Put(storeKey, v)
	return nil
}

// encodeGroupKey produces stable key bytes for a value tuple; shared by the
// join and sliding-window operators.
func encodeGroupKey(g serde.ObjectSerde, vals []any) ([]byte, error) {
	return g.Encode(vals)
}
