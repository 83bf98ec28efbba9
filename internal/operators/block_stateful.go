package operators

import (
	"encoding/binary"
	"fmt"

	"samzasql/internal/kv"
)

// Block paths for the stateful operators: sliding window, streaming
// aggregate, stream-relation join, stream-stream join. The shared scheme is
// per-block group clustering — evaluate key expressions columnarly over the
// block, encode each group/join key once per distinct key (adjacent equal
// keys are run-detected, the single-int64 memo catches repeats across
// runs), load every distinct key's state through one batched store read
// (kv.GetMany / ObjectCache.GetObjectMany), fold all of the key's rows, and
// write the state back once per key per block instead of once per tuple.
//
// Output rows are emitted in input-row order (window emissions in window-end
// order), so a program produces byte-identical output in the identical
// sequence at every block size, one-row blocks included — the property the
// batch-equivalence tests pin against an independent oracle.

// runEqual reports whether two consecutive key values are equal, for the
// scalar types worth run-detecting. Other types report comparable=false and
// fall back to per-row encoding.
func runEqual(a, b any) (eq, ok bool) {
	switch av := a.(type) {
	case int64:
		bv, ok := b.(int64)
		return ok && av == bv, true
	case string:
		bv, ok := b.(string)
		return ok && av == bv, true
	}
	return false, false
}

// ----- SlidingWindowOp -----

// ProcessBlock implements Operator: Algorithm 1 over a whole block.
// Per analytic call it clusters the block's rows by partition key, loads
// each distinct key's window state once (batched), folds the key's rows in
// offset order one tuple at a time (foldTuple), and persists each modified
// state once. The output block carries one row per selected input row —
// input columns plus one value column per call — with replayed rows
// (already-applied offsets) deselected: a replay emits nothing.
//
//samzasql:hotpath
func (o *SlidingWindowOp) ProcessBlock(_ int, b *TupleBlock, emit BlockEmit) error {
	nSel := len(b.Sel)
	inArity := len(b.Cols)
	arity := inArity + len(o.calls)
	out := &o.outBlock
	out.resetOut(b, arity)
	if nSel == 0 {
		out.finishOut()
		return emit(out)
	}
	out.N = nSel
	out.sizeCols(arity, nSel)
	for k, r := range b.Sel {
		for c := 0; c < inArity; c++ {
			out.Cols[c][k] = b.Cols[c][r]
		}
		out.Ts = append(out.Ts, b.Ts[r])
		out.Keys = append(out.Keys, b.Keys[r])
		out.Offsets = append(out.Offsets, b.Offsets[r])
	}
	if cap(o.rowScratch) < inArity {
		o.rowScratch = make([]any, inArity)
	}
	row := o.rowScratch[:inArity]
	replay := o.blkReplay[:0]
	for k := 0; k < nSel; k++ {
		replay = append(replay, false)
	}
	src := o.sources.keyFor(b.Stream, b.Partition)
	for ci, call := range o.calls {
		if err := o.processCallBlock(call, b, out.Cols[inArity+ci], replay, ci == 0, src, row); err != nil {
			return err
		}
	}
	o.blkReplay = replay
	// Replayed rows (detected on call 0) are deselected rather than
	// compacted; downstream stages honor Sel.
	sel := out.Sel[:0]
	for k := 0; k < nSel; k++ {
		if !replay[k] {
			sel = append(sel, k)
		}
	}
	out.Sel = sel
	return emit(out)
}

// processCallBlock runs one analytic call over the block: columnar key
// evaluation with run detection, one batched state load per distinct key,
// in-order folding, one write-back per modified key.
//
//samzasql:hotpath
func (o *SlidingWindowOp) processCallBlock(c *analyticState, b *TupleBlock, outCol []any, replay []bool, first bool, src string, row []any) error {
	if c.partVals == nil {
		c.partVals = make([]any, len(c.partEvals))
	}
	// Pass 1: encoded partition key per selected row. Adjacent rows with the
	// same single-column key reuse the previous encoding; the group-key memo
	// catches non-adjacent repeats of int64 keys.
	pks := o.blkPks[:0]
	var prevPk []byte
	var prevVal any
	havePrev := false
	for _, r := range b.Sel {
		row = b.gather(r, row)
		for i, ev := range c.partEvals {
			v, err := ev(row)
			if err != nil {
				return err
			}
			c.partVals[i] = v
		}
		if len(c.partVals) == 1 && havePrev {
			if eq, ok := runEqual(c.partVals[0], prevVal); ok && eq {
				pks = append(pks, prevPk)
				continue
			}
		}
		pk, err := c.groupKey(o.obj)
		if err != nil {
			return err
		}
		pks = append(pks, pk)
		if len(c.partVals) == 1 {
			if _, ok := runEqual(c.partVals[0], c.partVals[0]); ok {
				prevPk, prevVal, havePrev = pk, c.partVals[0], true
				continue
			}
		}
		havePrev = false
	}
	o.blkPks = pks

	// Pass 2: distinct state keys in first-touch order, then one batched
	// load through the cache/store stack.
	states := o.resetBlockStates()
	keys := o.blkKeys[:0]
	for _, pk := range pks {
		o.sbuf = appendStateKey(o.sbuf[:0], c.idx, pk)
		if _, ok := states[string(o.sbuf)]; ok {
			continue
		}
		sk := append([]byte(nil), o.sbuf...)
		states[string(sk)] = nil
		keys = append(keys, sk)
	}
	o.blkKeys = keys
	if err := o.loadStatesBatch(c, keys, states); err != nil {
		return err
	}

	// Pass 3: fold the rows in offset order against the block-resident
	// states, with no per-tuple load or save.
	for k, r := range b.Sel {
		o.sbuf = appendStateKey(o.sbuf[:0], c.idx, pks[k])
		ws := states[string(o.sbuf)]
		offset := b.Offsets[r]
		if ws.offsets.seen(src, offset) {
			if first {
				replay[k] = true
			}
			outCol[k] = ws.acc.Value()
			continue
		}
		row = b.gather(r, row)
		ov, err := c.orderEval(row)
		if err != nil {
			return err
		}
		ts, ok := ov.(int64)
		if !ok {
			return fmt.Errorf("operators: ORDER BY value is %T", ov)
		}
		var arg any = int64(1)
		if c.argEval != nil {
			arg, err = c.argEval(row)
			if err != nil {
				return err
			}
		}
		if err := o.foldTuple(c, ws, pks[k], ts, arg, offset); err != nil {
			return err
		}
		ws.offsets = ws.offsets.update(src, offset)
		ws.dirty = true
		outCol[k] = ws.acc.Value()
	}

	// Write back once per modified key, in first-touch order (deterministic
	// changelog content for a given input).
	for _, sk := range keys {
		ws := states[string(sk)]
		if !ws.dirty {
			continue
		}
		ws.dirty = false
		//samzasql:ignore hotpath-blocking -- the task store mutex is per-task single-writer and uncontended by design; skiplist access under it is the state-access contract
		if err := o.saveCallState(sk, ws); err != nil {
			return err
		}
	}
	return nil
}

// resetBlockStates returns the cleared per-block state map; the map itself
// allocates once per operator, outside the hot path.
func (o *SlidingWindowOp) resetBlockStates() map[string]*windowState {
	if o.blkStates == nil {
		o.blkStates = make(map[string]*windowState)
	}
	for k := range o.blkStates {
		delete(o.blkStates, k)
	}
	return o.blkStates
}

// loadStatesBatch fills the block state map for the distinct state keys:
// cache-resident decoded states come from one GetObjectMany, everything
// else from one batched byte read (which, over a CachedStore, also caches
// the entries as a point Get would).
func (o *SlidingWindowOp) loadStatesBatch(c *analyticState, keys [][]byte, states map[string]*windowState) error {
	miss := keys
	if o.cache != nil {
		objs := o.blkObjs[:0]
		oks := o.blkOks[:0]
		for range keys {
			objs = append(objs, nil)
			oks = append(oks, false)
		}
		o.cache.GetObjectMany(keys, objs, oks)
		miss = o.blkMiss[:0]
		for i, k := range keys {
			if oks[i] {
				states[string(k)] = objs[i].(*windowState)
			} else {
				miss = append(miss, k)
			}
		}
		o.blkMiss = miss
		o.blkObjs = objs[:0]
	}
	if len(miss) > 0 {
		vals := o.blkVals[:0]
		oks := o.blkOks[:0]
		for range miss {
			vals = append(vals, nil)
			oks = append(oks, false)
		}
		kv.GetMany(o.store, miss, vals, oks)
		for j, k := range miss {
			ws, err := o.decodeCallState(c, vals[j], oks[j])
			if err != nil {
				return err
			}
			if o.cache != nil {
				o.cache.CacheObject(k, ws)
			}
			states[string(k)] = ws
		}
		o.blkVals, o.blkOks = vals[:0], oks[:0]
	}
	// Clear dirty flags: cached state objects are shared with earlier
	// blocks and may carry stale marks.
	for _, k := range keys {
		states[string(k)].dirty = false
	}
	return nil
}

// ----- StreamAggregateOp -----

// appendWindowKey assembles the store key "w:" + bigendian(end) + kb from
// pre-encoded group-key bytes, letting the block path encode the group part
// once per distinct key instead of once per (row, boundary).
func appendWindowKey(buf []byte, end int64, kb []byte) []byte {
	var e [8]byte
	binary.BigEndian.PutUint64(e[:], uint64(end))
	buf = append(buf, 'w', ':')
	buf = append(buf, e[:]...)
	return append(buf, kb...)
}

// ProcessBlock implements Operator for the streaming aggregate. Both
// modes cluster the block by group key and load each distinct key's
// accumulator set through one batched read. Unwindowed groups emit their
// updated row per input tuple (early results), in input order; windowed
// groups buffer contributions against a locally advancing watermark and
// emit every closed window once, in window-end order — the same sequence
// per-tuple watermark advances would produce.
//
//samzasql:hotpath
func (o *StreamAggregateOp) ProcessBlock(_ int, b *TupleBlock, emit BlockEmit) error {
	out := &o.outBlock
	out.resetOut(b, len(o.keyEvals)+len(o.aggs))
	if len(b.Sel) > 0 {
		var err error
		if o.window == nil {
			//samzasql:ignore hotpath-blocking -- the task store mutex is per-task single-writer and uncontended by design; skiplist access under it is the state-access contract
			err = o.processUnwindowedBlock(b, out)
		} else {
			//samzasql:ignore hotpath-blocking -- the task store mutex is per-task single-writer and uncontended by design; skiplist access under it is the state-access contract
			err = o.processWindowedBlock(b, out)
		}
		if err != nil {
			return err
		}
	}
	out.finishOut()
	return emit(out)
}

// blockScratch sizes the gather row and group-key scratch for the block.
func (o *StreamAggregateOp) blockScratch(b *TupleBlock) []any {
	if cap(o.rowScratch) < len(b.Cols) {
		o.rowScratch = make([]any, len(b.Cols))
	}
	if cap(o.keyScratch) < len(o.keyEvals)+len(o.aggs) {
		o.keyScratch = make([]any, len(o.keyEvals)+len(o.aggs))
	}
	return o.rowScratch[:len(b.Cols)]
}

// loadAggStates batch-reads the distinct store keys into the block state
// map (first-touch order in keys).
func (o *StreamAggregateOp) loadAggStates(keys [][]byte, states map[string]*aggBlockState) error {
	if len(keys) == 0 {
		return nil
	}
	vals := o.blkVals[:0]
	oks := o.blkOks[:0]
	for range keys {
		vals = append(vals, nil)
		oks = append(oks, false)
	}
	kv.GetMany(o.store, keys, vals, oks)
	for i, k := range keys {
		set, offsets, err := o.decodeSet(vals[i], oks[i])
		if err != nil {
			return err
		}
		states[string(k)] = &aggBlockState{set: set, offsets: offsets}
	}
	o.blkVals, o.blkOks = vals[:0], oks[:0]
	return nil
}

func (o *StreamAggregateOp) resetBlockStates() map[string]*aggBlockState {
	states := o.blkStates
	if states == nil {
		states = make(map[string]*aggBlockState)
		o.blkStates = states
	}
	for k := range states {
		delete(states, k)
	}
	return states
}

func (o *StreamAggregateOp) processUnwindowedBlock(b *TupleBlock, out *TupleBlock) error {
	row := o.blockScratch(b)
	nk := len(o.keyEvals)
	keyVals := o.keyScratch[:nk]

	// Pass 1: per-row store keys (run-detected) plus the flat key-value
	// arena emission reads back, and the distinct-key list.
	states := o.resetBlockStates()
	kbs := o.blkKb[:0]
	keyArena := o.blkKeyVals[:0]
	keys := o.blkKeys[:0]
	var prevKey []byte
	var prevVal any
	havePrev := false
	for _, r := range b.Sel {
		row = b.gather(r, row)
		for i, ev := range o.keyEvals {
			v, err := ev(row)
			if err != nil {
				return fmt.Errorf("operators: group key: %w", err)
			}
			keyVals[i] = v
		}
		keyArena = append(keyArena, keyVals...)
		if nk == 1 && havePrev {
			if eq, ok := runEqual(keyVals[0], prevVal); ok && eq {
				kbs = append(kbs, prevKey)
				continue
			}
		}
		sk, err := o.encodeKey(0, keyVals)
		if err != nil {
			return err
		}
		kbs = append(kbs, sk)
		if nk == 1 {
			if _, ok := runEqual(keyVals[0], keyVals[0]); ok {
				prevKey, prevVal, havePrev = sk, keyVals[0], true
			} else {
				havePrev = false
			}
		}
		if _, ok := states[string(sk)]; !ok {
			states[string(sk)] = nil
			keys = append(keys, sk)
		}
	}
	o.blkKb, o.blkKeyVals, o.blkKeys = kbs, keyArena, keys

	// Pass 2: one batched load for every distinct group.
	if err := o.loadAggStates(keys, states); err != nil {
		return err
	}

	// Pass 3: fold in input order, emitting each group's updated row per
	// tuple (early-results policy), state written back once per group.
	src := o.sources.keyFor(b.Stream, b.Partition)
	outRow := o.keyScratch[:nk+len(o.aggs)]
	for k, r := range b.Sel {
		st := states[string(kbs[k])]
		offset := b.Offsets[r]
		if st.offsets.seen(src, offset) {
			continue
		}
		row = b.gather(r, row)
		if err := st.set.Add(row); err != nil {
			return err
		}
		st.offsets = st.offsets.update(src, offset)
		st.dirty = true
		copy(outRow[:nk], keyArena[k*nk:(k+1)*nk])
		copy(outRow[nk:], st.set.Values())
		out.appendRow(outRow, b.Ts[r], kbs[k], offset)
	}
	for _, sk := range keys {
		st := states[string(sk)]
		if !st.dirty {
			continue
		}
		st.dirty = false
		if err := o.saveSet(sk, st.set, st.offsets); err != nil {
			return err
		}
	}
	return nil
}

func (o *StreamAggregateOp) processWindowedBlock(b *TupleBlock, out *TupleBlock) error {
	row := o.blockScratch(b)
	nk := len(o.keyEvals)
	keyVals := o.keyScratch[:nk]
	emitEvery := o.window.EmitMillis
	retain := o.window.RetainMillis
	align := o.window.AlignMillis

	// Pass 1: per-row group-key bytes (run-detected) and window timestamps,
	// plus the candidate (window end, group) store keys — every boundary
	// past the block-start watermark. Rows a later (local) watermark will
	// drop contribute unused loads, never wrong state.
	states := o.resetBlockStates()
	kbs := o.blkKb[:0]
	tss := o.blkTs[:0]
	keys := o.blkKeys[:0]
	var prevKb []byte
	var prevVal any
	havePrev := false
	for _, r := range b.Sel {
		row = b.gather(r, row)
		for i, ev := range o.keyEvals {
			v, err := ev(row)
			if err != nil {
				return fmt.Errorf("operators: group key: %w", err)
			}
			keyVals[i] = v
		}
		tsv, err := o.tsEval(row)
		if err != nil {
			return fmt.Errorf("operators: window timestamp: %w", err)
		}
		ts, ok := tsv.(int64)
		if !ok {
			return fmt.Errorf("operators: window timestamp is %T", tsv)
		}
		tss = append(tss, ts)
		reused := false
		if nk == 1 && havePrev {
			if eq, ok := runEqual(keyVals[0], prevVal); ok && eq {
				kbs = append(kbs, prevKb)
				reused = true
			}
		}
		if !reused {
			kb, err := o.obj.Encode(keyVals)
			if err != nil {
				return err
			}
			kbs = append(kbs, kb)
			if nk == 1 {
				if _, ok := runEqual(keyVals[0], keyVals[0]); ok {
					prevKb, prevVal, havePrev = kb, keyVals[0], true
				} else {
					havePrev = false
				}
			}
		}
		kb := kbs[len(kbs)-1]
		for e := nextBoundary(ts, emitEvery, align); e <= ts+retain; e += emitEvery {
			if e <= o.watermark {
				continue
			}
			o.blkWk = appendWindowKey(o.blkWk[:0], e, kb)
			if _, ok := states[string(o.blkWk)]; ok {
				continue
			}
			sk := append([]byte(nil), o.blkWk...)
			states[string(sk)] = nil
			keys = append(keys, sk)
		}
	}
	o.blkKb, o.blkTs, o.blkKeys = kbs, tss, keys

	// Pass 2: one batched load for every candidate window state.
	if err := o.loadAggStates(keys, states); err != nil {
		return err
	}

	// Pass 3: fold contributions against a locally advancing watermark —
	// the same drop decisions a tuple-by-tuple advance makes.
	src := o.sources.keyFor(b.Stream, b.Partition)
	wmLocal := o.watermark
	for k, r := range b.Sel {
		ts := tss[k]
		offset := b.Offsets[r]
		row = b.gather(r, row)
		for e := nextBoundary(ts, emitEvery, align); e <= ts+retain; e += emitEvery {
			if e <= wmLocal {
				continue // window already closed; late contribution dropped
			}
			o.blkWk = appendWindowKey(o.blkWk[:0], e, kbs[k])
			st := states[string(o.blkWk)]
			if st.offsets.seen(src, offset) {
				continue
			}
			st.set.SetWindow(e-retain, e)
			if err := st.set.Add(row); err != nil {
				return err
			}
			st.offsets = st.offsets.update(src, offset)
			st.dirty = true
		}
		if ts > wmLocal {
			wmLocal = ts
		}
	}

	// Write the dirty window states through, then close every window the
	// block's watermark passed with one advance. Deferring the advance to
	// the block boundary emits the identical window set in the identical
	// (end-order) sequence: contributions to a window past the local
	// watermark were dropped above, exactly as a mid-block advance would
	// have dropped them.
	for _, sk := range keys {
		st := states[string(sk)]
		if !st.dirty {
			continue
		}
		st.dirty = false
		if err := o.saveSet(sk, st.set, st.offsets); err != nil {
			return err
		}
	}
	if wmLocal > o.watermark {
		return o.advanceWatermark(wmLocal, out, b.Offsets[b.Sel[len(b.Sel)-1]])
	}
	return nil
}

// ----- StreamRelationJoinOp -----

// combineInto lays out the combined row in operator scratch with the stream
// side in its SQL position; appendRow and the compiled evaluators copy or
// read values, so the scratch is safe to reuse per row.
func (o *StreamRelationJoinOp) combineInto(streamRow, relRow []any) []any {
	arity := o.leftArity + o.rightArity
	if cap(o.cmbScratch) < arity {
		o.cmbScratch = make([]any, arity)
	}
	out := o.cmbScratch[:arity]
	for i := range out {
		out[i] = nil
	}
	if o.StreamIsLeft {
		copy(out, streamRow)
		copy(out[o.leftArity:], relRow)
	} else {
		copy(out, relRow)
		copy(out[o.leftArity:], streamRow)
	}
	return out
}

// ProcessBlock implements Operator. Relation-side blocks update the
// cached relation row per tuple and emit nothing.
// Stream-side blocks evaluate the join key columnarly, resolve every
// distinct key with one batched read (decoded-object cache first, then
// bytes), and emit the matching combined rows in input order.
//
//samzasql:hotpath
func (o *StreamRelationJoinOp) ProcessBlock(side int, b *TupleBlock, emit BlockEmit) error {
	if cap(o.rowScratch) < len(b.Cols) {
		o.rowScratch = make([]any, len(b.Cols))
	}
	row := o.rowScratch[:len(b.Cols)]
	if side == RightSide {
		for _, r := range b.Sel {
			row = b.gather(r, row)
			relRow := row
			if o.cache != nil {
				// The cache retains the row; hand over an owned copy.
				relRow = append([]any(nil), row...)
			}
			//samzasql:ignore hotpath-blocking -- the task store mutex is per-task single-writer and uncontended by design; skiplist access under it is the state-access contract
			if err := o.processRelationRow(relRow); err != nil {
				return err
			}
		}
		return nil
	}
	out := &o.outBlock
	out.resetOut(b, o.leftArity+o.rightArity)
	if len(b.Sel) == 0 {
		out.finishOut()
		return emit(out)
	}

	// Pass 1: per-row relation keys with run detection, distinct keys in
	// first-touch order.
	rel := o.resetRelMap()
	rks := o.blkRks[:0]
	keys := o.blkKeys[:0]
	var prevRk []byte
	var prevVal any
	havePrev := false
	for _, r := range b.Sel {
		row = b.gather(r, row)
		probe := o.combineInto(row, nil)
		kval, err := o.keyEval(probe)
		if err != nil {
			return fmt.Errorf("operators: stream join key: %w", err)
		}
		if havePrev {
			if eq, ok := runEqual(kval, prevVal); ok && eq {
				rks = append(rks, prevRk)
				continue
			}
		}
		key, err := encodeGroupKey(o.store.obj, []any{kval})
		if err != nil {
			return err
		}
		rk := append([]byte("r:"), key...)
		rks = append(rks, rk)
		if _, ok := runEqual(kval, kval); ok {
			prevRk, prevVal, havePrev = rk, kval, true
		} else {
			havePrev = false
		}
		if _, ok := rel[string(rk)]; !ok {
			rel[string(rk)] = nil
			keys = append(keys, rk)
		}
	}
	o.blkRks, o.blkKeys = rks, keys

	// Pass 2: resolve every distinct key with one batched read. A key that
	// stays nil has no relation row — the inner join drops its rows.
	if err := o.resolveRelBatch(keys, rel); err != nil {
		return err
	}

	// Pass 3: combine, apply the residual, emit matches in input order.
	for k, r := range b.Sel {
		relRow := rel[string(rks[k])]
		if relRow == nil {
			continue
		}
		row = b.gather(r, row)
		combined := o.combineInto(row, relRow)
		v, err := o.residual(combined)
		if err != nil {
			return fmt.Errorf("operators: join condition: %w", err)
		}
		if bl, ok := v.(bool); !ok || !bl {
			continue
		}
		out.appendRow(combined, b.Ts[r], b.Keys[r], b.Offsets[r])
	}
	out.finishOut()
	return emit(out)
}

// resetRelMap returns the cleared per-block resolved-relation map; the map
// itself allocates once per operator, outside the hot path.
func (o *StreamRelationJoinOp) resetRelMap() map[string][]any {
	if o.blkRel == nil {
		o.blkRel = make(map[string][]any)
	}
	for k := range o.blkRel {
		delete(o.blkRel, k)
	}
	return o.blkRel
}

// resolveRelBatch fills rel for the distinct relation keys: decoded rows
// from one GetObjectMany when the cache is on, everything else through one
// batched byte read plus decode (memoized in the cache).
func (o *StreamRelationJoinOp) resolveRelBatch(keys [][]byte, rel map[string][]any) error {
	miss := keys
	if o.cache != nil {
		objs := o.blkObjs[:0]
		oks := o.blkOks[:0]
		for range keys {
			objs = append(objs, nil)
			oks = append(oks, false)
		}
		o.cache.GetObjectMany(keys, objs, oks)
		miss = miss[:0:0]
		for i, k := range keys {
			if oks[i] {
				rel[string(k)] = objs[i].([]any)
			} else {
				miss = append(miss, k)
			}
		}
		o.blkObjs = objs[:0]
	}
	if len(miss) == 0 {
		return nil
	}
	vals := o.blkVals[:0]
	oks := o.blkOks[:0]
	for range miss {
		vals = append(vals, nil)
		oks = append(oks, false)
	}
	kv.GetMany(o.store.raw, miss, vals, oks)
	for j, k := range miss {
		if !oks[j] {
			continue // no relation row: rel entry stays nil
		}
		relRowAny, err := o.store.obj.Decode(vals[j])
		if err != nil {
			return fmt.Errorf("operators: relation row decode: %w", err)
		}
		relRow := relRowAny.([]any)
		if o.cache != nil {
			o.cache.CacheObject(k, relRow)
		}
		rel[string(k)] = relRow
	}
	o.blkVals, o.blkOks = vals[:0], oks[:0]
	return nil
}

// ----- StreamStreamJoinOp -----

// ProcessBlock implements Operator: the windowed side state stays
// range-probed per tuple (write-once keys a point cache or batched point
// read cannot serve), but the block path amortizes dispatch and
// instrumentation and assembles all matches into one output block, emitted
// in probe order.
//
//samzasql:hotpath
func (o *StreamStreamJoinOp) ProcessBlock(side int, b *TupleBlock, emit BlockEmit) error {
	out := &o.outBlock
	out.resetOut(b, o.leftArity+o.rightArity)
	if cap(o.rowScratch) < len(b.Cols) {
		o.rowScratch = make([]any, len(b.Cols))
	}
	row := o.rowScratch[:len(b.Cols)]
	for _, r := range b.Sel {
		row = b.gather(r, row)
		o.blkTs, o.blkKey, o.blkOff = b.Ts[r], b.Keys[r], b.Offsets[r]
		//samzasql:ignore hotpath-blocking -- the task store mutex is per-task single-writer and uncontended by design; skiplist access under it is the state-access contract
		if err := o.processOne(side, row, o.blkTs, o.blkOff, o.blkSink); err != nil {
			return err
		}
	}
	out.finishOut()
	return emit(out)
}
