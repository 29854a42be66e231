// Map-pipeline fusion: compile a stream's Project/Filter/map-UDF/probe
// chain into one schema-specialized batch kernel instead of interpreting it
// stage by stage (the Tupleware direction — compile the workflow, don't
// interpret it). A fused kernel processes a whole map split as a columnar
// batch:
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
//   - An index probe (an append's delta join, DESIGN §5.15) ends a segment:
//     each match becomes a row of the next segment as two pooled indices,
//     the probing row and the stored position, and the indexed side's chain
//     runs over those. A joined value is read only where a later stage, the
//     boundary or the cross fold reads it.
//
// Rows materialize at most once, in the final loop over the surviving
// selection, and only then reach the job's boundary emitter — a group-by's
// cross fold (fusereduce.go) reads the selection without building any.
// Anything the compiler can't prove fusable (exploding UDFs, unknown
// operator or predicate shapes, schema disagreements) falls back to the
// row-at-a-time interpreter, per job at compile time; such fallbacks are
// never errors and are counted in the mr_fused_* family. At run time a fused job never
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

// colRef names where a virtual column lives during fused execution, in the
// row space of segment lvl: a column of that segment's base row (src >= 0:
// the split row in segment 0, the stored row a probe matched in a later
// one) or a fused-UDF output buffer (buf >= 0). Projection is just
// re-labeling these.
type colRef struct {
	src int
	buf int
	lvl int
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

// fusedProbe is one compiled index probe (a delta join, DESIGN §5.15): it
// ends a segment. Each surviving row whose key is not null looks it up in
// the task's k-th index, once, in selection order; its matches become the
// next segment's rows.
type fusedProbe struct {
	k   int // index into mr.TaskCtx.Probes
	key colRef
}

// fusedStage is one executable stage: exactly one of filter/udf/probe is
// set (projections compiled away into the reference maps).
type fusedStage struct {
	filter *fusedFilter
	udf    *fusedUDF
	probe  *fusedProbe
}

// fusedProg is one stream's fused program: the stage sequence, the output
// column references (the boundary-input schema), the segment each UDF
// output buffer belongs to (one buffer per UDF output column), and the
// probes compiled so far (the segment being compiled).
type fusedProg struct {
	stages []fusedStage
	outs   []colRef
	bufLvl []int
	lvl    int
}

// buildFused compiles a stream's operator chain into a fused program (a
// bare scan's is the identity); k is the job's index of the stream's first
// probe. On any unfusable construct it returns (nil, reason) with reason one
// of the mr.Fuse* taxonomy — falling back is a classification, never an
// error.
func (o *Optimizer) buildFused(st stream, k int) (*fusedProg, string) {
	p := &fusedProg{}
	outs, reason := o.fuseChain(p, st, &k)
	if reason != "" {
		return nil, reason
	}
	p.outs = outs
	return p, ""
}

// fuseChain compiles one operator chain over the base rows of the segment
// being compiled into p's stages and returns its output references. A probe
// join opens the next segment: the indexed side's chain compiles over the
// stored rows the probe matched, and the join's output is the two sides'
// references side by side in the shuffle join's layout — no joined row is
// ever built.
func (o *Optimizer) fuseChain(p *fusedProg, st stream, k *int) ([]colRef, string) {
	cols := st.srcCols
	refs := make([]colRef, len(cols))
	for i := range refs {
		refs[i] = colRef{src: i, buf: -1, lvl: p.lvl}
	}
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
				u.outBufs = append(u.outBufs, len(p.bufLvl))
				refs = append(refs, colRef{src: -1, buf: len(p.bufLvl), lvl: p.lvl})
				p.bufLvl = append(p.bufLvl, p.lvl)
			}
			p.stages = append(p.stages, fusedStage{udf: u})

		case plan.KindJoin:
			pj, ok := o.probeOf(op)
			if !ok {
				return nil, mr.FuseUnsupportedOp
			}
			ix, ok := indexOf(cols, pj.key)
			if !ok {
				return nil, mr.FuseSchemaMismatch
			}
			p.stages = append(p.stages, fusedStage{probe: &fusedProbe{k: *k, key: refs[ix]}})
			*k++
			p.lvl++
			other, reason := o.fuseChain(p, pj.other, k)
			if reason != "" {
				return nil, reason
			}
			l, r := refs, other
			if pj.delta == 1 {
				l, r = other, refs
			}
			refs = append([]colRef(nil), l...)
			for _, ix := range keptRight(op.OutCols, len(op.Inputs[0].OutCols), op.Inputs[1].OutCols) {
				if ix < 0 {
					return nil, mr.FuseSchemaMismatch
				}
				refs = append(refs, r[ix])
			}

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
	return refs, ""
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

// fusedBatch is one map split's fused execution state: the split, the
// surviving selection, the UDF output buffers, and one match set per probe
// run so far. Selection indices and buffer slots address the current
// segment's row space: the split's rows in segment 0, a probe's matches in
// the segment it opens. Everything but the split is pooled (release).
type fusedBatch struct {
	rows []data.Row
	sel  []int32
	bufs []*data.Col
	segs []probeSeg // segment s >= 1 is segs[s-1]
}

// probeSeg is one probe's matches, in lookup order: match m joins row
// from[m] of the previous segment with the stored row at pos[m] of the
// probe's index.
type probeSeg struct {
	probe     *mr.Probe
	from, pos []int32
}

// read resolves a column of row i of the current segment. A column of an
// earlier segment is reached through the probes' from vectors, and a stored
// column through its match's position: a value is read only when something
// reads it.
func (b *fusedBatch) read(r colRef, i int32) value.V {
	for lvl := len(b.segs); lvl > r.lvl; lvl-- {
		i = b.segs[lvl-1].from[i]
	}
	switch {
	case r.buf >= 0:
		return b.bufs[r.buf].Get(int(i))
	case r.lvl == 0:
		return b.rows[i][r.src]
	}
	s := &b.segs[r.lvl-1]
	return s.probe.Row(s.pos[i])[r.src]
}

// apply compacts the selection in place, keeping rows the predicate holds
// for. Semantics replicate expr.Evaluator.Compile exactly: comparisons with
// NULL are not true, numeric kinds compare by float64 (value.Compare's
// cross-numeric rule, so Int-vs-Int also goes through the float path), and
// strings compare lexicographically.
func (f *fusedFilter) apply(b *fusedBatch, argBuf *[]value.V) {
	sel := b.sel
	w := 0
	switch f.kind {
	case expr.KindCmp:
		for _, i := range sel {
			v := b.read(f.ref, i)
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
			x, y := b.read(f.ref, i), b.read(f.ref2, i)
			if x.IsNull() || y.IsNull() {
				continue
			}
			if value.Equal(x, y) {
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
				args[k] = b.read(r, i)
			}
			if f.fn(args) {
				sel[w] = i
				w++
			}
		}
	}
	b.sel = sel[:w]
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

// call runs one UDF stage over the selection, scattering each output row
// into the stage's buffers and dropping the rows the UDF filters out.
func (u *fusedUDF) call(b *fusedBatch, argBuf *[]value.V) {
	if cap(*argBuf) < len(u.argRefs) {
		*argBuf = make([]value.V, len(u.argRefs))
	}
	args := (*argBuf)[:len(u.argRefs)]
	w := 0
	for _, i := range b.sel {
		for k, r := range u.argRefs {
			args[k] = b.read(r, i)
		}
		outs := u.d.Map(args, u.params)
		u.d.CheckMap(outs)
		if len(outs) == 0 {
			continue // filtering UDF: the row drops out of the selection
		}
		for k, c := range u.outBufs {
			b.bufs[c].Set(int(i), outs[0][k])
		}
		b.sel[w] = i
		w++
	}
	b.sel = b.sel[:w]
}

// run opens the next segment: each selected row with a non-null key looks
// it up once, in selection order — the lookups, and so the probed rows and
// bytes, are the interpreter's — and every match becomes a row of the new
// segment, recorded as two indices and nothing else.
func (fp *fusedProbe) run(b *fusedBatch, probes []*mr.Probe) {
	probe := probes[fp.k]
	from, pos := mr.GetSel(len(b.sel)), mr.GetSel(len(b.sel))
	var enc data.KeyEncoder
	for _, i := range b.sel {
		key := b.read(fp.key, i)
		if key.IsNull() {
			continue // null keys never join
		}
		for _, p := range probe.Lookup(enc.KeyOf(key)) {
			from = append(from, i)
			pos = append(pos, p)
		}
	}
	b.sel = identitySel(b.sel, len(from))
	b.segs = append(b.segs, probeSeg{probe: probe, from: from, pos: pos})
}

// identitySel fills sel (recycled) with 0..n-1.
func identitySel(sel []int32, n int) []int32 {
	if cap(sel) < n {
		mr.PutSel(sel)
		sel = mr.GetSel(n)
	}
	sel = sel[:n]
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

// allocBufs draws the UDF output buffers of the current segment, one slot
// per row of it.
func (b *fusedBatch) allocBufs(p *fusedProg) {
	lvl, n := len(b.segs), len(b.sel)
	for c, l := range p.bufLvl {
		if l == lvl {
			b.bufs[c] = mr.GetCol(n)
		}
	}
}

// runFusedStages executes a fused program's stage sequence over one map
// split with the task's probe handles and returns the batch state at the
// last segment (pooled: the caller reads the outputs from it, then calls
// release).
func runFusedStages(p *fusedProg, rows []data.Row, probes []*mr.Probe) fusedBatch {
	b := fusedBatch{rows: rows, sel: identitySel(mr.GetSel(len(rows)), len(rows))}
	if len(p.bufLvl) > 0 {
		b.bufs = make([]*data.Col, len(p.bufLvl))
		b.allocBufs(p)
	}
	var argBuf []value.V
	for si := range p.stages {
		switch stg := &p.stages[si]; {
		case stg.filter != nil:
			stg.filter.apply(&b, &argBuf)
		case stg.udf != nil:
			stg.udf.call(&b, &argBuf)
		default:
			stg.probe.run(&b, probes)
			b.allocBufs(p)
		}
	}
	return b
}

// release returns a batch's scratch to the mr pools.
func (b *fusedBatch) release() {
	for _, c := range b.bufs {
		mr.PutCol(c)
	}
	for _, s := range b.segs {
		mr.PutSel(s.from)
		mr.PutSel(s.pos)
	}
	mr.PutSel(b.sel)
}

// runFusedBatch executes a fused program over one map split, handing each
// surviving output row to sink in input-row order. A sink that keeps its
// rows (retain) gets them cut from one slab sized for the surviving
// selection — the split's single row allocation; a sink that builds its own
// record from the row is handed one scratch row, overwritten for the next.
func runFusedBatch(p *fusedProg, rows []data.Row, probes []*mr.Probe, retain bool, sink func(data.Row)) {
	b := runFusedStages(p, rows, probes)
	width := len(p.outs)
	n := 1
	if retain {
		n = len(b.sel)
	}
	slab := make([]value.V, n*width)
	for _, i := range b.sel {
		out := slab[:width:width]
		if retain {
			slab = slab[width:]
		}
		for k, r := range p.outs {
			out[k] = b.read(r, i)
		}
		sink(out)
	}
	b.release()
}
