package operators

import (
	"encoding/binary"
	"fmt"

	"samzasql/internal/kv"
	"samzasql/internal/serde"
	"samzasql/internal/sql/expr"
	"samzasql/internal/sql/validate"
)

// JoinStoreName is the task store backing join state.
const JoinStoreName = "samzasql-join"

// Side indexes for join inputs.
const (
	LeftSide  = 0
	RightSide = 1
)

// StreamRelationJoinOp implements stream-to-relation joins (§4.4): the
// relation arrives as a bootstrapped changelog whose latest row per key is
// cached in the task's local store; stream tuples then look the key up and
// emit joined rows. Rows are (de)serialized with the generic object serde — the Go
// analog of the Kryo object serde the paper's prototype used, whose
// deserialization cost is the main reason SamzaSQL joins ran ~2x slower
// than native jobs (§5.1).
type StreamRelationJoinOp struct {
	// StreamIsLeft records which side of the combined row the stream
	// occupies.
	StreamIsLeft bool
	leftArity    int
	rightArity   int

	keyEval  expr.Evaluator // stream-side key over combined row
	relKey   expr.Evaluator // relation-side key over combined row
	residual expr.Evaluator // full ON condition over combined row

	store *storeView
	// cache, when the task store supports it, memoizes decoded relation rows
	// so repeated probes of a hot key skip the object-serde decode the paper
	// blames for the ~2x SQL join slowdown (§5.1). encRow re-encodes a
	// cached row when a relation update defers its serialization.
	cache  kv.ObjectCache
	encRow kv.ObjectEncoder

	// Block-path scratch (block_stateful.go): the output block, the gather
	// and combined-row scratch, per-row relation keys, the per-block
	// resolved-relation map, and the batched-read slices.
	outBlock   TupleBlock
	rowScratch []any
	cmbScratch []any
	blkRks     [][]byte
	blkRel     map[string][]any
	blkKeys    [][]byte
	blkVals    [][]byte
	blkObjs    []any
	blkOks     []bool
}

// NewStreamRelationJoinOp builds the operator. info's LeftKey/RightKey are
// bound over the combined row.
func NewStreamRelationJoinOp(info *validate.JoinInfo, leftArity, rightArity int, streamIsLeft bool) (*StreamRelationJoinOp, error) {
	op := &StreamRelationJoinOp{
		StreamIsLeft: streamIsLeft,
		leftArity:    leftArity,
		rightArity:   rightArity,
	}
	var streamKey, relKey expr.Expr
	if streamIsLeft {
		streamKey, relKey = info.LeftKey, info.RightKey
	} else {
		streamKey, relKey = info.RightKey, info.LeftKey
	}
	var err error
	if op.keyEval, err = expr.Compile(streamKey); err != nil {
		return nil, err
	}
	if op.relKey, err = expr.Compile(relKey); err != nil {
		return nil, err
	}
	if op.residual, err = expr.Compile(info.On); err != nil {
		return nil, err
	}
	return op, nil
}

// Open implements Operator.
func (o *StreamRelationJoinOp) Open(ctx *OpContext) error {
	o.store = &storeView{raw: ctx.Store(JoinStoreName)}
	if c, ok := o.store.raw.(kv.ObjectCache); ok {
		o.cache = c
		o.encRow = o.store.obj.Encode // bound once; handed to the cache per update
	}
	return nil
}

// processRelationRow caches the latest relation row under its join key.
func (o *StreamRelationJoinOp) processRelationRow(row []any) error {
	combined := o.combineInto(nil, row)
	kval, err := o.relKey(combined)
	if err != nil {
		return fmt.Errorf("operators: relation join key: %w", err)
	}
	key, err := encodeGroupKey(o.store.obj, []any{kval})
	if err != nil {
		return err
	}
	rk := append([]byte("r:"), key...)
	if o.cache != nil {
		// Keep the decoded row resident; serialization defers to commit
		// flush, so a relation key updated many times per interval encodes
		// (and reaches the changelog) once. The cache retains row, so the
		// caller must hand over an owned slice, never reused scratch.
		o.cache.PutObject(rk, row, o.encRow)
		return nil
	}
	// The paper's prototype stores the row via a generic object serde
	// (Kryo there, the tagged object serde here).
	val, err := o.store.obj.Encode(row)
	if err != nil {
		return err
	}
	o.store.raw.Put(rk, val)
	return nil
}

// storeView pairs a raw store with the generic object serde (the paper's
// Kryo analog) used for join state values.
type storeView struct {
	raw kv.Store
	obj serde.ObjectSerde
}

// StreamStreamJoinOp implements windowed stream-to-stream joins (§3.8.1):
// each side's recent tuples are retained in the local store keyed by
// (join key, timestamp, offset); an arriving tuple probes the opposite
// side's window, evaluates the full ON condition over the combined row, and
// emits matches. Tuples older than the window fall out of state as the
// event-time watermark advances.
type StreamStreamJoinOp struct {
	info       *validate.JoinInfo
	leftArity  int
	rightArity int

	leftKey, rightKey expr.Evaluator // over combined row
	residual          expr.Evaluator

	store     *storeView
	watermark [2]int64

	// Block-path scratch (block_stateful.go). blkSink is the output-block
	// append bound once in Open (a per-block closure would escape in the hot
	// path); blkTs/blkKey/blkOff carry the current row's attributes into it.
	outBlock   TupleBlock
	rowScratch []any
	blkSink    func(full []any) error
	blkTs      int64
	blkOff     int64
	blkKey     []byte
}

// NewStreamStreamJoinOp builds the operator.
func NewStreamStreamJoinOp(info *validate.JoinInfo, leftArity, rightArity int) (*StreamStreamJoinOp, error) {
	op := &StreamStreamJoinOp{info: info, leftArity: leftArity, rightArity: rightArity}
	var err error
	if op.leftKey, err = expr.Compile(info.LeftKey); err != nil {
		return nil, err
	}
	if op.rightKey, err = expr.Compile(info.RightKey); err != nil {
		return nil, err
	}
	if op.residual, err = expr.Compile(info.On); err != nil {
		return nil, err
	}
	return op, nil
}

// Open implements Operator.
func (o *StreamStreamJoinOp) Open(ctx *OpContext) error {
	o.store = &storeView{raw: ctx.Store(JoinStoreName)}
	// Windowed side state is write-once and probed/purged with per-tuple
	// range scans; an LRU point cache cannot help it, and ranging through
	// the cache would flush the write batch on every probe. Bypass it.
	if c, ok := o.store.raw.(kv.ObjectCache); ok {
		o.store.raw = c.Uncached()
	}
	o.blkSink = func(full []any) error {
		o.outBlock.appendRow(full, o.blkTs, o.blkKey, o.blkOff)
		return nil
	}
	return nil
}

// processOne is the row-level join step: store the tuple on its own side,
// probe the opposite side's window, hand every match (a freshly combined
// row the sink may retain) to sink, then purge. State access stays
// range-based per tuple — write-once windowed side state cannot use the
// point cache or the batched point reads.
func (o *StreamStreamJoinOp) processOne(side int, row []any, ts, offset int64, sink func(full []any) error) error {
	if side != LeftSide && side != RightSide {
		return fmt.Errorf("operators: bad join side %d", side)
	}
	// Compute this side's join key over a half-filled combined row.
	var combined []any
	if side == LeftSide {
		combined = o.combineRows(row, nil)
	} else {
		combined = o.combineRows(nil, row)
	}
	keyEval := o.leftKey
	if side == RightSide {
		keyEval = o.rightKey
	}
	kvVal, err := keyEval(combined)
	if err != nil {
		return fmt.Errorf("operators: join key: %w", err)
	}
	pk, err := encodeGroupKey(o.store.obj, []any{kvVal})
	if err != nil {
		return err
	}

	// Store this tuple on its own side.
	myKey := o.sideKey(byte(side), pk, ts, offset)
	val, err := o.store.obj.Encode(row)
	if err != nil {
		return err
	}
	o.store.raw.Put(myKey, val)

	// Probe the other side within the time window.
	other := 1 - side
	w := o.info.WindowMillis
	loTs := ts - w
	if loTs < 0 {
		loTs = 0 // negative would wrap in the unsigned key encoding
	}
	lo := o.sideKey(byte(other), pk, loTs, 0)
	hi := o.sideKey(byte(other), pk, ts+w+1, 0)
	for _, e := range o.store.raw.Range(lo, hi, 0) {
		otherRowAny, err := o.store.obj.Decode(e.Value)
		if err != nil {
			return err
		}
		otherRow := otherRowAny.([]any)
		var full []any
		if side == LeftSide {
			full = o.combineRows(row, otherRow)
		} else {
			full = o.combineRows(otherRow, row)
		}
		v, err := o.residual(full)
		if err != nil {
			return fmt.Errorf("operators: join condition: %w", err)
		}
		if b, ok := v.(bool); ok && b {
			if err := sink(full); err != nil {
				return err
			}
		}
	}

	// Purge this side's tuples that can no longer match: anything older
	// than the opposite watermark minus the window.
	o.watermark[side] = maxI64(o.watermark[side], ts)
	cutoff := o.watermark[other] - w
	if cutoff > 0 {
		start := o.sidePrefix(byte(side), pk)
		end := o.sideKey(byte(side), pk, cutoff, 0)
		for _, e := range o.store.raw.Range(start, end, 0) {
			o.store.raw.Delete(e.Key)
		}
	}
	return nil
}

func (o *StreamStreamJoinOp) combineRows(left, right []any) []any {
	out := make([]any, o.leftArity+o.rightArity)
	copy(out, left)
	copy(out[o.leftArity:], right)
	return out
}

func (o *StreamStreamJoinOp) sidePrefix(side byte, pk []byte) []byte {
	out := make([]byte, 0, 4+len(pk))
	out = append(out, 'j', side)
	var l [2]byte
	binary.BigEndian.PutUint16(l[:], uint16(len(pk)))
	out = append(out, l[:]...)
	return append(out, pk...)
}

func (o *StreamStreamJoinOp) sideKey(side byte, pk []byte, ts, offset int64) []byte {
	out := o.sidePrefix(side, pk)
	out = append(out, u64be(uint64(ts))...)
	return append(out, u64be(uint64(offset))...)
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
