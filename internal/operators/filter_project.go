package operators

import (
	"fmt"

	"samzasql/internal/sql/expr"
)

// FilterOp drops tuples whose condition is not TRUE (NULL filters out, per
// SQL semantics).
type FilterOp struct {
	cond expr.Evaluator
	// rowScratch is ProcessBlock's reusable gather row.
	rowScratch []any
}

// NewFilterOp compiles the condition.
func NewFilterOp(cond expr.Expr) (*FilterOp, error) {
	ev, err := expr.Compile(cond)
	if err != nil {
		return nil, err
	}
	return &FilterOp{cond: ev}, nil
}

// Open implements Operator.
func (*FilterOp) Open(*OpContext) error { return nil }

// ProcessBlock implements Operator for FilterOp: it evaluates the
// condition over each selected row and refines the selection vector in
// place — rows are never copied or compacted.
//
//samzasql:hotpath
func (f *FilterOp) ProcessBlock(_ int, b *TupleBlock, emit BlockEmit) error {
	if cap(f.rowScratch) < len(b.Cols) {
		f.rowScratch = make([]any, len(b.Cols))
	}
	row := f.rowScratch[:len(b.Cols)]
	sel := b.Sel[:0]
	for _, r := range b.Sel {
		row = b.gather(r, row)
		v, err := f.cond(row)
		if err != nil {
			return fmt.Errorf("operators: filter: %w", err)
		}
		if keep, ok := v.(bool); ok && keep {
			sel = append(sel, r)
		}
	}
	b.Sel = sel
	return emit(b)
}

// ProjectOp computes the output expressions of a projection. When the
// output row type carries a timestamp column (TsIdx >= 0), the produced
// tuple's event time is refreshed from it so downstream windows keep
// working (§3.4's recommendation to preserve timestamps).
type ProjectOp struct {
	evals []expr.Evaluator
	// TsIdx is the output timestamp column, or -1.
	TsIdx int
	// Identity marks a projection whose expressions are the input columns in
	// order (SELECT *): the block path then passes blocks through unchanged
	// instead of re-evaluating column references and compacting.
	Identity bool

	// Block-path arenas: the gather row and the operator-owned output block
	// ProcessBlock compacts selected rows into.
	rowScratch []any
	outBlock   TupleBlock
}

// NewProjectOp compiles the projections.
func NewProjectOp(exprs []expr.Expr, tsIdx int) (*ProjectOp, error) {
	evals := make([]expr.Evaluator, len(exprs))
	for i, e := range exprs {
		ev, err := expr.Compile(e)
		if err != nil {
			return nil, err
		}
		evals[i] = ev
	}
	return &ProjectOp{evals: evals, TsIdx: tsIdx}, nil
}

// Open implements Operator.
func (*ProjectOp) Open(*OpContext) error { return nil }

// ProcessBlock implements Operator for ProjectOp: it evaluates the
// output expressions over the selected rows into an operator-owned output
// block (compacting the selection), refreshing event timestamps from the
// output timestamp column when one is declared.
//
//samzasql:hotpath
func (p *ProjectOp) ProcessBlock(_ int, b *TupleBlock, emit BlockEmit) error {
	if p.Identity {
		// SELECT *: every expression is its own input column, so the block
		// passes through untouched — selection, columns and raw encodings
		// intact. The out counter still sees len(Sel) via WrapBlockEmit.
		// Only the timestamp refresh is applied, for when the projection's
		// timestamp column differs from the scan's.
		if p.TsIdx >= 0 && p.TsIdx < len(b.Cols) {
			for _, r := range b.Sel {
				if t, ok := b.Cols[p.TsIdx][r].(int64); ok {
					b.Ts[r] = t
				}
			}
		}
		return emit(b)
	}
	if cap(p.rowScratch) < len(b.Cols) {
		p.rowScratch = make([]any, len(b.Cols))
	}
	row := p.rowScratch[:len(b.Cols)]
	out := &p.outBlock
	n := len(b.Sel)
	out.Stream = b.Stream
	out.Partition = b.Partition
	out.N = n
	out.sizeCols(len(p.evals), n)
	out.Ts = out.Ts[:0]
	out.Keys = out.Keys[:0]
	out.Offsets = out.Offsets[:0]
	out.Raw = out.Raw[:0]
	out.Trace = b.Trace
	for k, r := range b.Sel {
		row = b.gather(r, row)
		ts := b.Ts[r]
		for c, ev := range p.evals {
			v, err := ev(row)
			if err != nil {
				return fmt.Errorf("operators: project: %w", err)
			}
			out.Cols[c][k] = v
		}
		if p.TsIdx >= 0 && p.TsIdx < len(p.evals) {
			if t, ok := out.Cols[p.TsIdx][k].(int64); ok {
				ts = t
			}
		}
		out.Ts = append(out.Ts, ts)
		out.Keys = append(out.Keys, b.Keys[r])
		out.Offsets = append(out.Offsets, b.Offsets[r])
	}
	out.SelAll()
	return emit(out)
}
