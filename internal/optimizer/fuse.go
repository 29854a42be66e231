// Map-pipeline fusion: compile a stream's Project/Filter/map-UDF chain into
// one schema-specialized batch kernel instead of interpreting it stage by
// stage (the Tupleware direction — compile the workflow, don't interpret
// it). A fused kernel processes a whole map split as a columnar batch:
//
//   - Projections compile away entirely: they only remap column references,
//     so no row is ever materialized between stages.
//   - Filters compact a selection vector in place, with type-specialized
//     comparison fast paths for the numeric and string column kinds that
//     replicate value.Compare exactly.
//   - Non-exploding map UDFs write their outputs into pooled, row-indexed
//     column buffers (internal/data.Col) drawn from the mr arenas; argument
//     slices are reused across rows (no workload UDF retains them — the
//     fuzz oracle would catch one that did).
//
// Rows materialize exactly once, in the final loop over the surviving
// selection, and only then reach the job's boundary emitter. Anything the
// compiler can't prove fusable (exploding UDFs, unknown operator or
// predicate shapes, schema disagreements) falls back to the row-at-a-time
// interpreter, per job at compile time; such fallbacks are never errors and
// are counted in the mr_fused_* family. At run time a fused job never
// leaves its kernel: a UDF that breaks its declared shape fails the task
// with udf.ErrContract (udf.CheckMap), exactly as it does on the
// interpreter.
package optimizer

import (
	"strings"

	"opportune/internal/data"
	"opportune/internal/expr"
	"opportune/internal/mr"
	"opportune/internal/plan"
	"opportune/internal/udf"
	"opportune/internal/value"
)

// colRef names where a virtual column lives during fused execution: a
// source-row column (src >= 0) or a fused-UDF output buffer (buf >= 0).
// Projection is just re-labeling these.
type colRef struct {
	src int
	buf int
}

// readRef resolves a colRef for row index i of the batch.
func readRef(rows []data.Row, bufs []*data.Col, r colRef, i int32) value.V {
	if r.src >= 0 {
		return rows[i][r.src]
	}
	return bufs[r.buf].Get(int(i))
}

// fusedFilter is one compiled filter stage. Exactly one of the comparison
// configs is active, chosen by kind; compilation resolved columns and
// pre-split the literal so the batch loop does no per-row dispatch beyond
// the value's own kind.
type fusedFilter struct {
	kind expr.Kind

	// KindCmp: ref op lit. numLit/strLit pre-classify the literal so the
	// kernel can take the float64/string fast path when the column value's
	// kind permits (both replicate value.Compare bit-for-bit).
	ref    colRef
	op     expr.CmpOp
	lit    value.V
	numLit bool
	litF   float64
	strLit bool
	litS   string

	// ltOK/eqOK/gtOK precompute expr.Holds for the three comparison
	// outcomes, letting the fast paths compact branch-free: the row index
	// is stored unconditionally and the write cursor advances by the
	// verdict bit, so the selectivity of the predicate never feeds a
	// data-dependent branch (the SIMD-friendly predicate layout).
	ltOK, eqOK, gtOK bool

	// KindAttrEq: ref == ref2.
	ref2 colRef

	// KindOpaque: fn(argRefs...).
	fn      expr.OpaqueFn
	argRefs []colRef
}

// fusedUDF is one compiled non-exploding map-UDF stage: gather argRefs,
// call the UDF, scatter its single output row into outBufs at the row's
// index. A zero-row return deselects the row (a filtering UDF); any other
// shape than zero or one row of len(outBufs) values fails the task
// (udf.CheckMap).
type fusedUDF struct {
	d       *udf.Descriptor
	params  []value.V
	argRefs []colRef
	outBufs []int
}

// fusedStage is one executable stage: exactly one of filter/udf is set
// (projections compiled away into the reference maps).
type fusedStage struct {
	filter *fusedFilter
	udf    *fusedUDF
}

// fusedProg is one stream's fused program: the stage sequence, the output
// column references (the boundary-input schema), and how many UDF output
// buffers a batch needs.
type fusedProg struct {
	stages []fusedStage
	outs   []colRef
	nBufs  int
}

// identityProg is the fused form of a bare scan stream (no operators): the
// batch materializes source rows unchanged.
func identityProg(width int) *fusedProg {
	outs := make([]colRef, width)
	for i := range outs {
		outs[i] = colRef{src: i, buf: -1}
	}
	return &fusedProg{outs: outs}
}

// buildFused compiles a stream's operator chain into a fused program. On
// any unfusable construct it returns (nil, reason) with reason one of the
// mr.Fuse* taxonomy — falling back is a classification, never an error.
func (o *Optimizer) buildFused(st stream) (*fusedProg, string) {
	cols := st.srcCols
	refs := make([]colRef, len(cols))
	for i := range refs {
		refs[i] = colRef{src: i, buf: -1}
	}
	p := &fusedProg{}
	for _, op := range st.ops {
		switch op.Kind {
		case plan.KindProject:
			next := make([]colRef, len(op.Cols))
			for i, c := range op.Cols {
				ix, ok := indexOf(cols, c)
				if !ok {
					return nil, mr.FuseSchemaMismatch
				}
				next[i] = refs[ix]
			}
			refs = next

		case plan.KindFilter:
			f, ok := o.buildFusedFilter(op.Pred, cols, refs)
			if !ok {
				return nil, mr.FuseUnsupportedOp
			}
			p.stages = append(p.stages, fusedStage{filter: f})

		case plan.KindUDF:
			d, ok := o.Cat.UDFs.Get(op.UDFName)
			if !ok || d.Kind != udf.KindMap {
				return nil, mr.FuseUnsupportedOp
			}
			if d.Explode {
				// Exploding UDFs emit several tagged rows per input; the
				// chain is inherently row-oriented.
				return nil, mr.FuseExplodeUDF
			}
			u := &fusedUDF{d: d, params: op.UDFParams}
			for _, c := range op.UDFArgs {
				ix, ok := indexOf(cols, c)
				if !ok {
					return nil, mr.FuseSchemaMismatch
				}
				u.argRefs = append(u.argRefs, refs[ix])
			}
			for range d.OutNames {
				u.outBufs = append(u.outBufs, p.nBufs)
				refs = append(refs, colRef{src: -1, buf: p.nBufs})
				p.nBufs++
			}
			p.stages = append(p.stages, fusedStage{udf: u})

		case plan.KindJoin:
			return nil, mr.FuseProbe

		default:
			return nil, mr.FuseUnsupportedOp
		}
		if len(op.OutCols) != len(refs) {
			// The annotated schema disagrees with what we derived; the
			// interpreter (which validates widths at emit time) is the safe
			// path.
			return nil, mr.FuseSchemaMismatch
		}
		cols = op.OutCols
	}
	p.outs = refs
	return p, ""
}

// buildFusedFilter compiles one predicate against the current reference
// map, mirroring expr.Evaluator.Compile's resolution rules.
func (o *Optimizer) buildFusedFilter(pr expr.Pred, cols []string, refs []colRef) (*fusedFilter, bool) {
	f := &fusedFilter{kind: pr.Kind}
	switch pr.Kind {
	case expr.KindCmp:
		ix, ok := indexOf(cols, pr.Attr)
		if !ok {
			return nil, false
		}
		f.ref = refs[ix]
		f.op = pr.Op
		f.lit = pr.Lit
		f.ltOK = expr.Holds(-1, pr.Op)
		f.eqOK = expr.Holds(0, pr.Op)
		f.gtOK = expr.Holds(1, pr.Op)
		if pr.Lit.IsNumeric() {
			f.numLit = true
			f.litF = pr.Lit.Float()
		} else if pr.Lit.Kind() == value.Str {
			f.strLit = true
			f.litS = pr.Lit.Str()
		}
	case expr.KindAttrEq:
		i1, ok1 := indexOf(cols, pr.Attr)
		i2, ok2 := indexOf(cols, pr.Attr2)
		if !ok1 || !ok2 {
			return nil, false
		}
		f.ref = refs[i1]
		f.ref2 = refs[i2]
	case expr.KindOpaque:
		fn, ok := o.Eval.Opaque(pr.Name)
		if !ok {
			return nil, false
		}
		f.fn = fn
		for _, a := range pr.Args {
			ix, ok := indexOf(cols, a)
			if !ok {
				return nil, false
			}
			f.argRefs = append(f.argRefs, refs[ix])
		}
	default:
		return nil, false
	}
	return f, true
}

// apply compacts the selection in place, keeping rows the predicate holds
// for. Semantics replicate expr.Evaluator.Compile exactly: comparisons with
// NULL are not true, numeric kinds compare by float64 (value.Compare's
// cross-numeric rule, so Int-vs-Int also goes through the float path), and
// strings compare lexicographically.
func (f *fusedFilter) apply(rows []data.Row, bufs []*data.Col, sel []int32, argBuf *[]value.V) []int32 {
	w := 0
	switch f.kind {
	case expr.KindCmp:
		for _, i := range sel {
			v := readRef(rows, bufs, f.ref, i)
			if f.numLit && v.IsNumeric() {
				// Branch-free float64 fast path (exact: Compare widens all
				// numeric pairs to float64, and NaN yields !lt && !gt — the
				// c==0 outcome, just as value.Compare reports it).
				vf := v.Float()
				lt, gt := vf < f.litF, vf > f.litF
				keep := (lt && f.ltOK) || (gt && f.gtOK) || (!lt && !gt && f.eqOK)
				sel[w] = i
				w += b2i(keep)
				continue
			}
			if v.IsNull() {
				continue
			}
			if f.strLit && v.Kind() == value.Str {
				c := strings.Compare(v.Str(), f.litS)
				keep := (c < 0 && f.ltOK) || (c > 0 && f.gtOK) || (c == 0 && f.eqOK)
				sel[w] = i
				w += b2i(keep)
				continue
			}
			if expr.Holds(value.Compare(v, f.lit), f.op) {
				sel[w] = i
				w++
			}
		}
	case expr.KindAttrEq:
		for _, i := range sel {
			a := readRef(rows, bufs, f.ref, i)
			b := readRef(rows, bufs, f.ref2, i)
			if a.IsNull() || b.IsNull() {
				continue
			}
			if value.Equal(a, b) {
				sel[w] = i
				w++
			}
		}
	case expr.KindOpaque:
		if cap(*argBuf) < len(f.argRefs) {
			*argBuf = make([]value.V, len(f.argRefs))
		}
		args := (*argBuf)[:len(f.argRefs)]
		for _, i := range sel {
			for k, r := range f.argRefs {
				args[k] = readRef(rows, bufs, r, i)
			}
			if f.fn(args) {
				sel[w] = i
				w++
			}
		}
	}
	return sel[:w]
}

// b2i is the branchless bool→int the compaction fast paths advance their
// write cursor by (the compiler lowers it to a flag materialization, not a
// jump).
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runFusedStages executes a fused program's stage sequence over one map
// split and returns the surviving selection plus the UDF output buffers
// (both pooled; the caller materializes rows from them and then calls
// releaseFusedBufs).
func runFusedStages(p *fusedProg, rows []data.Row) (sel []int32, bufs []*data.Col) {
	n := len(rows)
	sel = mr.GetSel(n)
	for i := 0; i < n; i++ {
		sel = append(sel, int32(i))
	}
	if p.nBufs > 0 {
		bufs = make([]*data.Col, p.nBufs)
		for i := range bufs {
			bufs[i] = mr.GetCol(n)
		}
	}
	var argBuf []value.V
	for si := range p.stages {
		stg := &p.stages[si]
		if stg.filter != nil {
			sel = stg.filter.apply(rows, bufs, sel, &argBuf)
			continue
		}
		u := stg.udf
		if cap(argBuf) < len(u.argRefs) {
			argBuf = make([]value.V, len(u.argRefs))
		}
		args := argBuf[:len(u.argRefs)]
		w := 0
		for _, i := range sel {
			for k, r := range u.argRefs {
				args[k] = readRef(rows, bufs, r, i)
			}
			outs := u.d.Map(args, u.params)
			u.d.CheckMap(outs)
			if len(outs) == 0 {
				continue // filtering UDF: the row drops out of the selection
			}
			for k, b := range u.outBufs {
				bufs[b].Set(int(i), outs[0][k])
			}
			sel[w] = i
			w++
		}
		sel = sel[:w]
	}
	return sel, bufs
}

// releaseFusedBufs returns a runFusedStages scratch set to the mr pools.
func releaseFusedBufs(sel []int32, bufs []*data.Col) {
	for _, c := range bufs {
		mr.PutCol(c)
	}
	mr.PutSel(sel)
}

// runFusedBatch executes a fused program over one map split, handing each
// surviving output row to sink in input-row order. A sink that keeps its
// rows (retain) gets them cut from one slab sized for the surviving
// selection — the split's single row allocation; a sink that builds its own
// record from the row is handed one scratch row, overwritten for the next.
func runFusedBatch(p *fusedProg, rows []data.Row, retain bool, sink func(data.Row)) {
	sel, bufs := runFusedStages(p, rows)
	width := len(p.outs)
	n := 1
	if retain {
		n = len(sel)
	}
	slab := make([]value.V, n*width)
	for _, i := range sel {
		out := slab[:width:width]
		if retain {
			slab = slab[width:]
		}
		for k, r := range p.outs {
			out[k] = readRef(rows, bufs, r, i)
		}
		sink(out)
	}
	releaseFusedBufs(sel, bufs)
}
