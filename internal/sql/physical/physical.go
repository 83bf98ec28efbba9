// Package physical lowers a logical plan to a SamzaSQL program: the scan /
// operator / insert chain (Figure 4) compiled as one block chain per input
// topic, the input stream set with bootstrap flags, and the store
// declarations the Samza job needs. It is the second half of the paper's two-step planning (§4.2):
// the same compilation runs in the shell (to derive the job configuration)
// and inside each SamzaSQL task at initialization (to build operators).
package physical

import (
	"fmt"

	"samzasql/internal/avro"
	"samzasql/internal/operators"
	"samzasql/internal/samza"
	"samzasql/internal/sql/catalog"
	"samzasql/internal/sql/expr"
	"samzasql/internal/sql/plan"
	"samzasql/internal/sql/types"
)

// Input describes one source stream of the program.
type Input struct {
	Topic string
	// Bootstrap marks relation changelogs consumed before stream input.
	Bootstrap bool
	// Scan decodes messages from this topic.
	Scan *operators.ScanOp
}

// Program is a compiled query ready to run inside a task (or the bounded
// local executor).
type Program struct {
	Inputs      []*Input
	Router      *operators.Router
	OutputTopic string
	OutputCodec *avro.Codec
	OutputRow   *types.RowType
	// Stores lists the task-local stores the operators need.
	Stores []samza.StoreSpec
	// Repartitions lists the re-keying stages the engine must run as
	// upstream jobs before the main job (§7 future work 1).
	Repartitions []*RepartitionSpec
	// Streaming reports whether any scan is unbounded.
	Streaming bool
	// Stages lists the instrumented stage names in compile order, the keys
	// under which the registry holds "operator.<stage>.*" metrics — what EXPLAIN ANALYZE
	// walks to annotate the plan with live counts and latencies.
	Stages []string
	// insert is the sink operator; its sender is bound via SetSender.
	insert *operators.InsertOp
	// aggregate is non-nil when the plan aggregates; the bounded executor
	// uses FlushAggregate at end of input. aggDownstream is the compiled
	// block chain above the aggregate (having filter, projection, insert).
	aggregate     *operators.StreamAggregateOp
	aggDownstream operators.BlockEmit
	// stageSeq numbers repeated operator kinds during compilation so every
	// instrumented stage gets a unique metric name.
	stageSeq map[string]int

	// entries maps each input topic to its compiled block chain, scan
	// first (see block.go): build threads a BlockEmit from the insert down
	// to every scan, so every topic a plan consumes gets one.
	entries map[string]operators.BlockEmit
	// blockArena and btrace are the task-owned reusable block and stage-span
	// log RouteBatch drives the chain with; oneEnv is the reused envelope
	// RouteMessage wraps a single message in.
	blockArena operators.TupleBlock
	btrace     operators.BlockTrace
	oneEnv     [1]samza.IncomingMessageEnvelope
}

// instrument wraps op for per-operator latency/output metrics and registers
// the wrapper with the router (the wrapper forwards Open to op). The first
// stage of a kind is named after the kind; repeats get "#n" suffixes.
func (p *Program) instrument(kind string, op operators.Operator) *operators.Instrumented {
	if p.stageSeq == nil {
		p.stageSeq = map[string]int{}
	}
	n := p.stageSeq[kind]
	p.stageSeq[kind]++
	name := kind
	if n > 0 {
		name = fmt.Sprintf("%s#%d", kind, n)
	}
	inst := operators.NewInstrumented(name, op)
	p.Stages = append(p.Stages, name)
	p.Router.Register(inst)
	return inst
}

// FlushAggregate closes all open windows, passing them as one block through
// the post-aggregate chain. No-op for plans without aggregation.
func (p *Program) FlushAggregate() error {
	if p.aggregate == nil {
		return nil
	}
	return p.aggregate.FlushFinal(p.aggDownstream)
}

// SetSender binds the output sink to a message collector.
func (p *Program) SetSender(s operators.Sender) {
	p.insert.Send = s
}

// SetBatchSender binds the output sink's batched path. Nil unbinds it; the
// insert then sends each row through the sender SetSender bound.
func (p *Program) SetBatchSender(bs operators.BatchSender) {
	p.insert.SendBatch = bs
}

// Aggregate exposes the aggregate operator (nil when the plan has none).
func (p *Program) Aggregate() *operators.StreamAggregateOp { return p.aggregate }

// Options is the compilation option set CompileWithOptions takes.
type Options struct {
	// FastPath has no effect: every plan runs the block chain. The field is
	// kept only because the frozen perfbench module names it.
	FastPath bool
}

// CompileWithOptions is Compile: no Options field changes what it builds.
func CompileWithOptions(root plan.Node, defaultOutput string, _ Options) (*Program, error) {
	return Compile(root, defaultOutput)
}

// Compile lowers the plan. defaultOutput names the output topic for plain
// SELECTs (INSERT INTO plans carry their own target).
func Compile(root plan.Node, defaultOutput string) (*Program, error) {
	prog := &Program{Router: operators.NewRouter()}

	target := defaultOutput
	body := root
	if ins, ok := root.(*plan.Insert); ok {
		target = ins.Target
		body = ins.Input
	}
	if target == "" {
		return nil, fmt.Errorf("physical: no output topic for query")
	}
	outRow := body.Row()
	outCodec, err := codecFor("Output", outRow, true)
	if err != nil {
		return nil, err
	}
	prog.OutputTopic = target
	prog.OutputRow = outRow
	prog.OutputCodec = outCodec
	prog.insert = &operators.InsertOp{Codec: outCodec, Target: target}
	insInst := prog.instrument("insert", prog.insert)
	// The insert emits each block it sent, so the counting emit built here
	// gives "operator.insert.out" = messages actually produced.
	if err := prog.build(body, stage(insInst, 0, func(*operators.TupleBlock) error { return nil })); err != nil {
		return nil, err
	}
	// Aggregate outputs partition by group key (tuples carry it); other
	// plans preserve the source partition.
	if prog.aggregate != nil {
		prog.insert.KeyByTupleKey = true
	}
	return prog, nil
}

// stage wraps one instrumented operator as a block chain stage feeding
// down on the given input side.
func stage(inst *operators.Instrumented, side int, down operators.BlockEmit) operators.BlockEmit {
	emitTo := inst.WrapBlockEmit(down)
	return func(b *operators.TupleBlock) error {
		return inst.ProcessBlock(side, b, emitTo)
	}
}

// build wires the plan node's operator and recurses to its inputs. down
// receives the node's output blocks.
func (p *Program) build(n plan.Node, down operators.BlockEmit) error {
	switch t := n.(type) {
	case *plan.Scan:
		return p.buildScan(t, down)
	case *plan.Filter:
		op, err := operators.NewFilterOp(t.Cond)
		if err != nil {
			return err
		}
		return p.build(t.Input, stage(p.instrument("filter", op), 0, down))
	case *plan.Project:
		tsIdx := -1
		for i, c := range t.Row().Columns {
			if c.Type == types.Timestamp {
				tsIdx = i
				break
			}
		}
		op, err := operators.NewProjectOp(t.Exprs, tsIdx)
		if err != nil {
			return err
		}
		// SELECT *: every expression is its own input column, in order, so
		// the block passes through without re-evaluation or compaction.
		if identity := t.Exprs != nil && len(t.Exprs) == t.Input.Row().Arity(); identity {
			for i, e := range t.Exprs {
				c, ok := e.(*expr.ColRef)
				if !ok || c.Idx != i {
					identity = false
					break
				}
			}
			op.Identity = identity
		}
		return p.build(t.Input, stage(p.instrument("project", op), 0, down))
	case *plan.Aggregate:
		op, err := operators.NewStreamAggregateOp(t.Keys, t.Window, t.Aggs)
		if err != nil {
			return err
		}
		inst := p.instrument("aggregate", op)
		p.aggregate = op
		// Flushes go through the counting emit too, so final-window rows
		// show up in "operator.aggregate.out".
		p.aggDownstream = inst.WrapBlockEmit(down)
		p.addStore(operators.AggStoreName)
		return p.build(t.Input, stage(inst, 0, down))
	case *plan.Analytic:
		op, err := operators.NewSlidingWindowOp(t.Calls)
		if err != nil {
			return err
		}
		p.addStore(operators.SlidingStoreName)
		return p.build(t.Input, stage(p.instrument("sliding-window", op), 0, down))
	case *plan.Join:
		return p.buildJoin(t, down)
	case *plan.Insert:
		return fmt.Errorf("physical: nested INSERT is not supported")
	default:
		return fmt.Errorf("physical: unsupported plan node %T", n)
	}
}

func (p *Program) buildScan(s *plan.Scan, down operators.BlockEmit) error {
	codec, err := catalog.AvroSchemaFor(s.Object)
	if err != nil {
		return err
	}
	c, err := avro.NewCodec(codec)
	if err != nil {
		return err
	}
	tsIdx := -1
	if s.Object.TimestampCol != "" {
		tsIdx = s.Object.Row.Index(s.Object.TimestampCol)
	}
	// A scan marked for repartitioning reads the re-keyed intermediate
	// topic instead of the source; the engine runs the re-keying stage.
	topic := s.Object.Topic
	if s.RepartitionCol != "" {
		var err error
		topic, err = p.planRepartition(s.Object, s.RepartitionCol)
		if err != nil {
			return err
		}
	}
	scan := &operators.ScanOp{Codec: c, TsIdx: tsIdx, Stream: topic}
	p.Router.Register(scan)
	for _, in := range p.Inputs {
		if in.Topic == topic {
			return fmt.Errorf("physical: topic %q appears twice in one query (self-joins need an intermediate stream)", in.Topic)
		}
	}
	p.Inputs = append(p.Inputs, &Input{
		Topic:     topic,
		Bootstrap: s.Bootstrap,
		Scan:      scan,
	})
	if s.Streaming {
		p.Streaming = true
	}
	if p.entries == nil {
		p.entries = map[string]operators.BlockEmit{}
	}
	p.entries[topic] = func(b *operators.TupleBlock) error {
		return scan.ProcessBlock(0, b, down)
	}
	return nil
}

func (p *Program) buildJoin(j *plan.Join, down operators.BlockEmit) error {
	leftArity := j.Left.Row().Arity()
	rightArity := j.Right.Row().Arity()

	// Classify: a bootstrap scan below either side marks a
	// stream-to-relation join.
	leftBoot := hasBootstrapScan(j.Left)
	rightBoot := hasBootstrapScan(j.Right)

	p.addStore(operators.JoinStoreName)
	switch {
	case leftBoot || rightBoot:
		streamIsLeft := rightBoot
		op, err := operators.NewStreamRelationJoinOp(j.Info, leftArity, rightArity, streamIsLeft)
		if err != nil {
			return err
		}
		inst := p.instrument("stream-relation-join", op)
		// Stream side feeds LeftSide, relation changelog feeds RightSide.
		streamIn := stage(inst, operators.LeftSide, down)
		relIn := stage(inst, operators.RightSide, down)
		if streamIsLeft {
			if err := p.build(j.Left, streamIn); err != nil {
				return err
			}
			return p.build(j.Right, relIn)
		}
		if err := p.build(j.Left, relIn); err != nil {
			return err
		}
		return p.build(j.Right, streamIn)
	default:
		op, err := operators.NewStreamStreamJoinOp(j.Info, leftArity, rightArity)
		if err != nil {
			return err
		}
		inst := p.instrument("stream-stream-join", op)
		if err := p.build(j.Left, stage(inst, operators.LeftSide, down)); err != nil {
			return err
		}
		return p.build(j.Right, stage(inst, operators.RightSide, down))
	}
}

func hasBootstrapScan(n plan.Node) bool {
	if s, ok := n.(*plan.Scan); ok {
		return s.Bootstrap
	}
	for _, c := range n.Inputs() {
		if hasBootstrapScan(c) {
			return true
		}
	}
	return false
}

func (p *Program) addStore(name string) {
	for _, s := range p.Stores {
		if s.Name == name {
			return
		}
	}
	p.Stores = append(p.Stores, samza.StoreSpec{Name: name, Changelog: true})
}

// codecFor builds an Avro codec for a row type. nullable makes every field
// optional (aggregate outputs can be NULL).
func codecFor(name string, row *types.RowType, nullable bool) (*avro.Codec, error) {
	fields := make([]avro.Field, 0, row.Arity())
	for _, col := range row.Columns {
		var fs *avro.Schema
		switch col.Type {
		case types.Bigint, types.Timestamp, types.Interval:
			fs = avro.Long()
		case types.Double:
			fs = avro.Double()
		case types.Varchar:
			fs = avro.String()
		case types.Boolean:
			fs = avro.Boolean()
		case types.Null, types.AnyType:
			fs = avro.String().AsNullable()
		default:
			return nil, fmt.Errorf("physical: unmappable output type %s for column %q", col.Type, col.Name)
		}
		if nullable && !fs.Nullable {
			fs = fs.AsNullable()
		}
		fields = append(fields, avro.F(col.Name, fs))
	}
	return avro.NewCodec(avro.Record(name, fields...))
}

// RouteMessage drives one raw message from topic through the program as a
// one-row block through RouteBatch. Callers that have messages one at a time
// (relation bootstrap outside a container, tests) use it.
func (p *Program) RouteMessage(topic string, value, key []byte, msgTs int64, partition int32, offset int64) error {
	p.oneEnv[0] = samza.IncomingMessageEnvelope{
		Stream: topic, Partition: partition, Offset: offset,
		Key: key, Value: value, Timestamp: msgTs,
	}
	return p.RouteBatch(p.oneEnv[:], nil, 0)
}
