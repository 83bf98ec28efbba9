package physical

import (
	"time"

	"samzasql/internal/avro"
	"samzasql/internal/kafka"
	"samzasql/internal/metrics"
	"samzasql/internal/operators"
	"samzasql/internal/samza"
	"samzasql/internal/sql/catalog"
	"samzasql/internal/sql/expr"
	"samzasql/internal/sql/plan"
	"samzasql/internal/trace"
)

// The fast path implements the paper's fifth future-work item (§7): "a
// SamzaSQL specific code generation framework which avoids AvroToArray and
// ArrayToAvro steps in message processing flow (Figure 4) by generating
// expressions that directly work on [a] SamzaSQL specific message
// abstraction ... and moving [the] stream insert operator to other
// operators". For filter/project-only plans over a single scan:
//
//   - filter predicates evaluate over a sparse row holding only the
//     referenced columns, decoded in one pass over the wire bytes;
//   - identity projections forward the original message bytes unchanged;
//   - column-subset projections copy the fields' raw encodings into the
//     output message without materializing values.
//
// The scan, filter, project and insert operators of Figure 4 fuse into one
// per-message function. Enable with Options.FastPath; the
// BenchmarkAblationFastPath benches measure the recovered throughput.

// fastProgram is the fused handler: per-message via handle, per-block via
// handleBlock. Three output modes, cheapest first: identity forwards input
// bytes unchanged; extent projection (projectNames/projIdx) byte-copies
// column encodings without materializing values; computed projection
// (projEvals) evaluates compiled expressions over the sparse row and
// re-encodes — the generalization that lets arbitrary filter/project/
// scalar pipelines compile to the kernel instead of falling back.
type fastProgram struct {
	codec *avro.Codec
	// cond is nil for pure projections; wanted marks the columns the
	// condition and any computed projections read.
	cond   expr.Evaluator
	wanted []bool
	// identity forwards input bytes; projectNames/projIdx select the extent
	// copy mode; projEvals selects the computed mode.
	identity     bool
	projectNames []string
	projIdx      []int
	projEvals    []expr.Evaluator
	outCodec     *avro.Codec

	send operators.Sender
	// sendBatch, when bound, lets handleBlock flush a whole block's output
	// in one producer call; without it batches fall back to handle.
	sendBatch operators.BatchSender
	// scratch is the reusable sparse row; outScratch the computed output row.
	scratch    []any
	outScratch []any
	topic      string
	target     string

	// Block-path arenas: outgoing message headers, (envIdx, start, end)
	// triplets locating each encoded row in the block slab, the field
	// extent scratch for extent projection, and the slab high-water mark
	// used to pre-size the next block's slab.
	msgScratch []kafka.Message
	offScratch []int
	extScratch []int
	slabHint   int

	// Observability handles for the fused stage, bound by fastBinder at
	// Router.Open (nil without a metrics registry). The whole fused
	// scan/filter/project/insert chain reports as one "fastpath" operator.
	lat      *metrics.Histogram
	out      *metrics.Counter
	bytesIn  *metrics.Counter
	bytesOut *metrics.Counter
	// act is the task's tracing cursor (nil without one); sampled messages
	// record the fused chain as a single "operator.fastpath" span.
	act *trace.Active
}

// fastBinder registers the fused handler with the router purely for the
// Open lifecycle, so its metric handles bind from the task's registry like
// any other operator's.
type fastBinder struct {
	fp *fastProgram
}

// Open implements operators.Operator.
func (b *fastBinder) Open(ctx *operators.OpContext) error {
	if ctx.Metrics != nil {
		b.fp.lat = ctx.Metrics.Histogram("operator.fastpath.process-ns")
		b.fp.out = ctx.Metrics.Counter("operator.fastpath.out")
		b.fp.bytesIn = ctx.Metrics.Counter(operators.SerdeBytesInMetric)
		b.fp.bytesOut = ctx.Metrics.Counter(operators.SerdeBytesOutMetric)
	}
	b.fp.act = ctx.Trace
	return nil
}

// ProcessBlock implements operators.Operator; the fused path never routes
// blocks through it.
func (b *fastBinder) ProcessBlock(_ int, blk *operators.TupleBlock, emit operators.BlockEmit) error {
	return emit(blk)
}

// tryFastPath recognizes Project(Filter?(Scan)) shapes and compiles the
// fused handler. Column-reference projections compile to the byte-copy
// modes (identity / extent projection); any other scalar projection
// compiles to per-output expression evaluators over the sparse row —
// arbitrary filter/project/scalar pipelines take the kernel, and only
// aggregates, joins, sliding windows and repartitions fall back to the
// general operator router. Returns false for those.
func (p *Program) tryFastPath(body plan.Node, target string) (bool, error) {
	proj, ok := body.(*plan.Project)
	if !ok {
		return false, nil
	}
	inner := proj.Input
	var filt *plan.Filter
	if f, ok := inner.(*plan.Filter); ok {
		filt = f
		inner = f.Input
	}
	scan, ok := inner.(*plan.Scan)
	if !ok {
		return false, nil
	}
	// Classify the projections: all plain column references select the
	// byte-copy modes; anything else selects the computed mode.
	colIdx := make([]int, len(proj.Exprs))
	allCols := true
	for i, e := range proj.Exprs {
		if c, ok := e.(*expr.ColRef); ok {
			colIdx[i] = c.Idx
		} else {
			allCols = false
		}
	}
	arity := scan.Object.Row.Arity()
	identity := allCols && len(colIdx) == arity
	if identity {
		for i, idx := range colIdx {
			if idx != i {
				identity = false
			}
		}
	}

	schema, err := catalog.AvroSchemaFor(scan.Object)
	if err != nil {
		return false, err
	}
	codec, err := avro.NewCodec(schema)
	if err != nil {
		return false, err
	}
	fp := &fastProgram{
		codec:    codec,
		identity: identity,
		topic:    scan.Object.Topic,
		target:   target,
		scratch:  make([]any, arity),
	}
	wanted := make([]bool, arity)
	colsOK := true
	markCols := func(e expr.Expr) {
		walkCols(e, func(c *expr.ColRef) {
			if c.Idx < 0 || c.Idx >= arity {
				colsOK = false
				return
			}
			wanted[c.Idx] = true
		})
	}
	if filt != nil {
		markCols(filt.Cond)
		if !colsOK {
			return false, nil
		}
		ev, err := expr.Compile(filt.Cond)
		if err != nil {
			return false, err
		}
		fp.cond = ev
		fp.wanted = wanted
	}
	switch {
	case identity:
		fp.outCodec = codec
	case allCols:
		names := make([]string, len(colIdx))
		idxs := make([]int, len(colIdx))
		fields := make([]avro.Field, len(colIdx))
		for i, idx := range colIdx {
			if idx < 0 || idx >= arity {
				return false, nil
			}
			names[i] = schema.Fields[idx].Name
			idxs[i] = idx
			fields[i] = avro.F(proj.Names[i], schema.Fields[idx].Schema)
		}
		out, err := avro.NewCodec(avro.Record("Output", fields...))
		if err != nil {
			return false, err
		}
		fp.projectNames = names
		fp.projIdx = idxs
		fp.outCodec = out
	default:
		// Computed projection: compile each output expression over the
		// sparse row and re-encode with the same codec the general path
		// would use, so outputs stay byte-identical across paths.
		evals := make([]expr.Evaluator, len(proj.Exprs))
		for i, e := range proj.Exprs {
			markCols(e)
			ev, err := expr.Compile(e)
			if err != nil {
				// An expression the compiler cannot close over (a yet-
				// unsupported node) is not an error: the general router
				// handles it.
				return false, nil
			}
			evals[i] = ev
		}
		if !colsOK {
			return false, nil
		}
		out, err := codecFor("Output", proj.Row(), true)
		if err != nil {
			return false, err
		}
		fp.wanted = wanted
		fp.projEvals = evals
		fp.outScratch = make([]any, len(evals))
		fp.outCodec = out
	}

	p.fast = fp
	p.Stages = append(p.Stages, "fastpath")
	p.Router.Register(&fastBinder{fp: fp})
	p.Inputs = []*Input{{
		Topic: scan.Object.Topic,
		Scan:  &operators.ScanOp{Codec: codec, TsIdx: tsIdxOf(scan.Object), Stream: scan.Object.Topic},
	}}
	p.Streaming = scan.Streaming
	p.OutputTopic = target
	p.OutputRow = proj.Row()
	p.OutputCodec = fp.outCodec
	return true, nil
}

func tsIdxOf(o *catalog.Object) int {
	if o.TimestampCol == "" {
		return -1
	}
	return o.Row.Index(o.TimestampCol)
}

// handle processes one raw message through the fused path. Metric handles
// are pre-bound and the timing is two monotonic clock reads plus lock-free
// atomics, keeping the fused path at 0 allocs/op with instrumentation on.
func (f *fastProgram) handle(value, key []byte, ts int64, partition int32) error {
	start := time.Now()
	// Sampled messages bracket the fused chain in one span; the send runs
	// inside it, so an outgoing trace context parents here.
	if f.act.Sampled() {
		defer f.closeSpan(start)
		f.act.Begin("operator.fastpath", start.UnixNano())
	}
	if f.bytesIn != nil {
		f.bytesIn.Add(int64(len(value)))
	}
	var row []any
	if f.cond != nil || f.projEvals != nil {
		var err error
		row, err = f.codec.ReadFields(value, f.wanted, f.scratch)
		if err != nil {
			return err
		}
	}
	if f.cond != nil {
		v, err := f.cond(row)
		if err != nil {
			return err
		}
		if b, ok := v.(bool); !ok || !b {
			if f.lat != nil {
				f.lat.Observe(time.Since(start).Nanoseconds())
			}
			return nil
		}
	}
	out := value
	switch {
	case f.identity:
	case f.projEvals != nil:
		for i, ev := range f.projEvals {
			v, err := ev(row)
			if err != nil {
				return err
			}
			f.outScratch[i] = v
		}
		var err error
		out, err = f.outCodec.EncodeRow(f.outScratch)
		if err != nil {
			return err
		}
	default:
		var err error
		out, err = f.codec.ProjectFields(value, f.projectNames, f.outCodec)
		if err != nil {
			return err
		}
	}
	err := f.send(f.target, partition, key, out, ts)
	if err == nil && f.out != nil {
		f.out.Inc()
		f.bytesOut.Add(int64(len(out)))
	}
	if f.lat != nil {
		f.lat.Observe(time.Since(start).Nanoseconds())
	}
	return err
}

// closeSpan ends the fused stage's trace span, anchored to the same
// monotonic start as the latency observation.
func (f *fastProgram) closeSpan(start time.Time) {
	f.act.End(start.UnixNano() + time.Since(start).Nanoseconds())
}

// handleBlock runs the fused kernel over one polled batch: one sparse
// decode + condition evaluation per row, all surviving outputs encoded
// into a single per-block slab (freshly allocated, because the broker
// retains sent value slices; identity mode forwards the input bytes and
// allocates nothing), flushed through one batched send. Metrics observe
// once per block. Without a batch sender bound, the batch degrades to the
// per-message handler.
//
//samzasql:hotpath
func (f *fastProgram) handleBlock(envs []samza.IncomingMessageEnvelope, act *trace.Active, pollNs int64) error {
	if f.sendBatch == nil {
		for i := range envs {
			env := &envs[i]
			if env.Trace.Sampled {
				act.StartMessage(env.Trace, pollNs, time.Now().UnixNano())
			}
			if err := f.handle(env.Value, env.Key, env.Timestamp, env.Partition); err != nil {
				return err
			}
			if env.Trace.Sampled {
				act.FinishMessage(time.Now().UnixNano())
			}
		}
		return nil
	}
	start := time.Now()
	sampled := 0
	var bytesIn, bytesOut int64
	var slab []byte
	if !f.identity {
		slab = make([]byte, 0, f.slabHint)
	}
	msgs := f.msgScratch[:0]
	offs := f.offScratch[:0]
	ext := f.extScratch
	for i := range envs {
		env := &envs[i]
		if env.Trace.Sampled {
			sampled++
		}
		value := env.Value
		bytesIn += int64(len(value))
		var row []any
		if f.cond != nil || f.projEvals != nil {
			var err error
			row, err = f.codec.ReadFields(value, f.wanted, f.scratch)
			if err != nil {
				return err
			}
		}
		if f.cond != nil {
			v, err := f.cond(row)
			if err != nil {
				return err
			}
			if b, ok := v.(bool); !ok || !b {
				continue
			}
		}
		switch {
		case f.identity:
			// Forwarded bytes are broker-owned already; no slab needed.
			msgs = append(msgs, kafka.Message{
				Partition: env.Partition, Key: env.Key, Value: value, Timestamp: env.Timestamp,
			})
			bytesOut += int64(len(value))
		case f.projEvals != nil:
			for j, ev := range f.projEvals {
				v, err := ev(row)
				if err != nil {
					return err
				}
				f.outScratch[j] = v
			}
			pos := len(slab)
			var err error
			slab, err = f.outCodec.AppendEncodeRow(slab, f.outScratch)
			if err != nil {
				return err
			}
			offs = append(offs, i, pos, len(slab))
		default:
			var err error
			ext, err = f.codec.FieldExtents(value, ext)
			if err != nil {
				return err
			}
			pos := len(slab)
			for _, idx := range f.projIdx {
				slab = append(slab, value[ext[2*idx]:ext[2*idx+1]]...)
			}
			offs = append(offs, i, pos, len(slab))
		}
	}
	// Slab modes build their messages only after the slab stops growing:
	// append may have reallocated it mid-block.
	for k := 0; k+2 < len(offs); k += 3 {
		env := &envs[offs[k]]
		s, e := offs[k+1], offs[k+2]
		msgs = append(msgs, kafka.Message{
			Partition: env.Partition, Key: env.Key, Value: slab[s:e:e], Timestamp: env.Timestamp,
		})
	}
	f.msgScratch = msgs
	f.offScratch = offs
	f.extScratch = ext
	if len(slab) > f.slabHint {
		f.slabHint = len(slab)
	}
	if !f.identity {
		bytesOut = int64(len(slab))
	}
	if len(msgs) > 0 {
		if err := f.sendBatch(f.target, msgs); err != nil {
			return err
		}
	}
	if f.out != nil {
		f.out.Add(int64(len(msgs)))
		f.bytesIn.Add(bytesIn)
		f.bytesOut.Add(bytesOut)
	}
	d := time.Since(start).Nanoseconds()
	if f.lat != nil {
		f.lat.Observe(d)
	}
	if sampled > 0 {
		f.replayBlockTrace(envs, act, pollNs, start.UnixNano(), start.UnixNano()+d, int64(len(envs)))
	}
	return nil
}

// replayBlockTrace gives each sampled message of a completed kernel block
// its trace tree: produce/poll/process plus one batch-level
// "operator.fastpath" span carrying the block's row count.
func (f *fastProgram) replayBlockTrace(envs []samza.IncomingMessageEnvelope, act *trace.Active, pollNs, startNs, endNs, rows int64) {
	for i := range envs {
		if !envs[i].Trace.Sampled {
			continue
		}
		act.StartMessage(envs[i].Trace, pollNs, startNs)
		act.StageRows("operator.fastpath", startNs, endNs, rows)
		act.FinishMessage(endNs)
	}
}

// walkCols visits the column references of a bound expression.
func walkCols(e expr.Expr, fn func(*expr.ColRef)) {
	switch n := e.(type) {
	case *expr.ColRef:
		fn(n)
	case *expr.Binary:
		walkCols(n.L, fn)
		walkCols(n.R, fn)
	case *expr.Not:
		walkCols(n.X, fn)
	case *expr.Neg:
		walkCols(n.X, fn)
	case *expr.IsNull:
		walkCols(n.X, fn)
	case *expr.Cast:
		walkCols(n.X, fn)
	case *expr.Call:
		for _, a := range n.Args {
			walkCols(a, fn)
		}
	case *expr.FloorTime:
		walkCols(n.X, fn)
	case *expr.Case:
		for _, w := range n.Whens {
			walkCols(w.When, fn)
			walkCols(w.Then, fn)
		}
		if n.Else != nil {
			walkCols(n.Else, fn)
		}
	case *expr.Like:
		walkCols(n.X, fn)
		walkCols(n.Pattern, fn)
	case *expr.InList:
		walkCols(n.X, fn)
		for _, i := range n.List {
			walkCols(i, fn)
		}
	}
}
