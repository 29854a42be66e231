// Map-pipeline fusion: every compiled job's map side is one fused program,
// a stream's Project/Filter/map-UDF/probe chain compiled into a
// schema-specialized batch kernel (the Tupleware direction — compile the
// workflow, don't interpret it). A fused kernel processes a whole map split
// as a columnar batch:
//
//   - Projections compile away entirely: they only remap column references,
//     so no row is ever materialized between stages. A bare scan's program
//     is the identity, and a program whose outputs are its source row hands
//     the stored row itself to the boundary (stored rows are immutable).
//   - Filters compact a selection vector in place, with type-specialized
//     comparison fast paths for the numeric and string column kinds that
//     replicate value.Compare exactly.
//   - Non-exploding map UDFs write their outputs into pooled, row-indexed
//     column buffers (internal/data.Col) drawn from the mr arenas; argument
//     slices are reused across rows (no workload UDF retains them — the
//     fuzz oracle would catch one that did).
//   - An index probe (an append's delta join, DESIGN §5.15) or an exploding
//     map UDF ends a segment. Each probe match becomes a row of the next
//     segment as two pooled indices, the probing row and the stored
//     position, and the indexed side's chain runs over those; each row an
//     exploding UDF emits becomes one as the index of the row it came from
//     plus its output values and row tag. A joined value is read only where
//     a later stage, the boundary or the cross fold reads it.
//
// Rows materialize at most once, in the final loop over the surviving
// selection, and only then reach the job's boundary emitter — a group-by's
// cross fold (fusereduce.go) reads the selection without building any.
// A chain the compiler cannot compile (an unknown operator, predicate or
// column) fails Executable: there is no second map path to fall back to.
// At run time a kernel never leaves its program: a UDF that breaks its
// declared shape fails the task with udf.ErrContract (udf.CheckMap). The
// row interpreter the fusion oracles compare the kernels with lives in
// interp_test.go.
package optimizer

import (
	"fmt"
	"strings"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/expr"
	"opportune/internal/mr"
	"opportune/internal/plan"
	"opportune/internal/udf"
	"opportune/internal/value"
)

// colRef names where a virtual column lives during fused execution, in the
// row space of segment lvl: a column of that segment's base row (src >= 0:
// the split row in segment 0, the stored row a probe matched or the row an
// exploding UDF emitted in a later one) or a fused-UDF output buffer
// (buf >= 0). Projection is just re-labeling these.
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

// fusedUDF is one compiled map-UDF stage: gather argRefs, call the UDF. A
// non-exploding one scatters its single output row into outBufs at the
// row's index, and a zero-row return deselects the row (a filtering UDF);
// an exploding one opens a segment of the rows it emits (explode). Any
// other shape than the declared one fails the task (udf.CheckMap).
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

// fusedStage is one executable stage: exactly one of filter/udf/explode/
// probe is set (projections compiled away into the reference maps).
type fusedStage struct {
	filter  *fusedFilter
	udf     *fusedUDF
	explode *fusedUDF
	probe   *fusedProbe
}

// fusedProg is one stream's fused program: the stage sequence, the output
// column references (the boundary-input schema), the segment each UDF
// output buffer belongs to (one buffer per UDF output column), the segment
// being compiled, and whether the outputs are the source row itself.
type fusedProg struct {
	stages   []fusedStage
	outs     []colRef
	bufLvl   []int
	lvl      int
	identity bool
}

// buildFused compiles a stream's operator chain into a fused program (a
// bare scan's is the identity). Like every map-side compile it registers
// the job's probes and appends its map-side costs to job.MapCost: each
// probe's indexed-side chain when the probe compiles, then the stream's own
// operators — the order the engine folds the simulated seconds in.
func (o *Optimizer) buildFused(st stream, job *mr.Job) (*fusedProg, error) {
	p := &fusedProg{}
	outs, fns, err := o.fuseChain(p, st, job)
	if err != nil {
		return nil, err
	}
	job.MapCost = append(job.MapCost, fns...)
	p.outs = outs
	p.identity = p.lvl == 0 && len(outs) == len(st.srcCols)
	for i, r := range outs {
		p.identity = p.identity && r == colRef{src: i, buf: -1}
	}
	return p, nil
}

// fuseChain compiles one operator chain over the base rows of the segment
// being compiled into p's stages and returns its output references and its
// operators' engine-side costs. A probe join or an exploding UDF opens the
// next segment. Behind a probe the indexed side's chain compiles over the
// stored rows the probe matched, and the join's output is the two sides'
// references side by side in the shuffle join's layout — no joined row is
// ever built. Behind an exploding UDF the chain's columns so far stay where
// they are, and its outputs and row tag are the new segment's base row.
func (o *Optimizer) fuseChain(p *fusedProg, st stream, job *mr.Job) ([]colRef, []cost.LocalFn, error) {
	cols := st.srcCols
	refs := make([]colRef, len(cols))
	for i := range refs {
		refs[i] = colRef{src: i, buf: -1, lvl: p.lvl}
	}
	var fns []cost.LocalFn
	resolve := func(what string, names []string) ([]colRef, error) {
		out := make([]colRef, len(names))
		for i, c := range names {
			ix, ok := indexOf(cols, c)
			if !ok {
				return nil, fmt.Errorf("optimizer: %s column %q missing at execution", what, c)
			}
			out[i] = refs[ix]
		}
		return out, nil
	}
	for _, op := range st.ops {
		switch op.Kind {
		case plan.KindProject:
			next, err := resolve("project", op.Cols)
			if err != nil {
				return nil, nil, err
			}
			refs = next

		case plan.KindFilter:
			f, err := o.buildFusedFilter(op.Pred, cols, refs)
			if err != nil {
				return nil, nil, err
			}
			p.stages = append(p.stages, fusedStage{filter: f})

		case plan.KindUDF:
			d, ok := o.Cat.UDFs.Get(op.UDFName)
			if !ok || d.Kind != udf.KindMap {
				return nil, nil, fmt.Errorf("optimizer: %q is not a map UDF", op.UDFName)
			}
			args, err := resolve("UDF arg", op.UDFArgs)
			if err != nil {
				return nil, nil, err
			}
			u := &fusedUDF{d: d, params: op.UDFParams, argRefs: args}
			if d.Explode {
				p.stages = append(p.stages, fusedStage{explode: u})
				p.lvl++
				for k := 0; k <= len(d.OutNames); k++ { // the outputs, then the tag
					refs = append(refs, colRef{src: k, buf: -1, lvl: p.lvl})
				}
				break
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
				return nil, nil, fmt.Errorf("optimizer: join %s = %s is not a probe", op.LCol, op.RCol)
			}
			key, err := resolve("join key", []string{pj.key})
			if err != nil {
				return nil, nil, err
			}
			p.stages = append(p.stages, fusedStage{probe: &fusedProbe{k: len(job.Probes), key: key[0]}})
			job.Probes = append(job.Probes, mr.ProbeSpec{Dataset: pj.other.srcDataset, Col: pj.col})
			p.lvl++
			other, otherFns, err := o.fuseChain(p, pj.other, job)
			if err != nil {
				return nil, nil, err
			}
			job.MapCost = append(job.MapCost, otherFns...)
			l, r := refs, other
			if pj.delta == 1 {
				l, r = other, refs
			}
			refs = append([]colRef(nil), l...)
			for _, ix := range keptRight(op.OutCols, len(op.Inputs[0].OutCols), op.Inputs[1].OutCols) {
				if ix < 0 {
					return nil, nil, fmt.Errorf("optimizer: join output missing from the indexed side")
				}
				refs = append(refs, r[ix])
			}

		default:
			return nil, nil, fmt.Errorf("optimizer: operator %s cannot run map-side", op.Kind)
		}
		if len(op.OutCols) != len(refs) {
			return nil, nil, fmt.Errorf("optimizer: %s derives %d columns, its schema has %d", op.Kind, len(refs), len(op.OutCols))
		}
		cols = op.OutCols
		fns = append(fns, o.localFn(op, true))
	}
	return refs, fns, nil
}

// buildFusedFilter compiles one predicate against the current reference
// map, mirroring expr.Evaluator.Compile's resolution rules and errors.
func (o *Optimizer) buildFusedFilter(pr expr.Pred, cols []string, refs []colRef) (*fusedFilter, error) {
	f := &fusedFilter{kind: pr.Kind}
	switch pr.Kind {
	case expr.KindCmp:
		ix, ok := indexOf(cols, pr.Attr)
		if !ok {
			return nil, fmt.Errorf("optimizer: filter column %q missing at execution", pr.Attr)
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
			return nil, fmt.Errorf("optimizer: filter columns %q, %q missing at execution", pr.Attr, pr.Attr2)
		}
		f.ref = refs[i1]
		f.ref2 = refs[i2]
	case expr.KindOpaque:
		fn, ok := o.Eval.Opaque(pr.Name)
		if !ok {
			return nil, fmt.Errorf("optimizer: opaque predicate %q not registered", pr.Name)
		}
		f.fn = fn
		for _, a := range pr.Args {
			ix, ok := indexOf(cols, a)
			if !ok {
				return nil, fmt.Errorf("optimizer: filter column %q missing at execution", a)
			}
			f.argRefs = append(f.argRefs, refs[ix])
		}
	default:
		return nil, fmt.Errorf("optimizer: invalid predicate kind %d", pr.Kind)
	}
	return f, nil
}

// fusedBatch is one map split's fused execution state: the split, the
// surviving selection, the UDF output buffers, and one segment per probe or
// exploding UDF run so far. Selection indices and buffer slots address the
// current segment's row space: the split's rows in segment 0, a probe's
// matches or an exploding UDF's emitted rows in the segment it opens.
// Everything but the split and the emitted values is pooled (release).
type fusedBatch struct {
	rows []data.Row
	sel  []int32
	bufs []*data.Col
	segs []segment // segment s >= 1 is segs[s-1]
}

// segment is the row space a probe or an exploding UDF opens: row m of it
// extends row from[m] of the previous segment with a base row of its own —
// the stored row at pos[m] of the probe's index, or the m-th row the UDF
// emitted, vals[m*w:(m+1)*w] (its outputs, then its tag).
type segment struct {
	probe     *mr.Probe
	from, pos []int32
	vals      []value.V
	w         int
}

// read resolves a column of row i of the current segment. A column of an
// earlier segment is reached through the segments' from vectors, and a
// stored column through its match's position: a value is read only when
// something reads it.
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
	if s.probe != nil {
		return s.probe.Row(s.pos[i])[r.src]
	}
	return s.vals[int(i)*s.w+r.src]
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

// explode runs an exploding UDF stage over the selection and opens the
// segment of the rows it emits, in selection order: each is recorded as the
// row it came from plus its output values and its tag. Tags are the row
// interpreter's: the task's first global row shifted past any plausible
// per-task emission count, plus one before each emitted row, so they are
// unique and never depend on scheduling.
func (u *fusedUDF) explode(b *fusedBatch, tagBase int64, argBuf *[]value.V) {
	if cap(*argBuf) < len(u.argRefs) {
		*argBuf = make([]value.V, len(u.argRefs))
	}
	args := (*argBuf)[:len(u.argRefs)]
	w := len(u.d.OutNames) + 1
	from := mr.GetSel(len(b.sel))
	vals := make([]value.V, 0, len(b.sel)*w)
	for _, i := range b.sel {
		for k, r := range u.argRefs {
			args[k] = b.read(r, i)
		}
		outs := u.d.Map(args, u.params)
		u.d.CheckMap(outs)
		for _, out := range outs {
			from = append(from, i)
			vals = append(append(vals, out...), value.NewInt(tagBase+int64(len(from))))
		}
	}
	b.sel = identitySel(b.sel, len(from))
	b.segs = append(b.segs, segment{from: from, vals: vals, w: w})
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
	b.segs = append(b.segs, segment{probe: probe, from: from, pos: pos})
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
// split of task ctx (its probe handles, its first global row) and returns
// the batch state at the last segment (pooled: the caller reads the outputs
// from it, then calls release).
func runFusedStages(p *fusedProg, rows []data.Row, ctx mr.TaskCtx) fusedBatch {
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
		case stg.explode != nil:
			stg.explode.explode(&b, ctx.GlobalRow<<20, &argBuf)
			b.allocBufs(p)
		default:
			stg.probe.run(&b, ctx.Probes)
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
		if s.probe != nil {
			mr.PutSel(s.pos)
		}
	}
	mr.PutSel(b.sel)
}

// runFusedBatch executes a fused program over one map split, handing each
// surviving output row to sink in input-row order. An identity program
// hands over the stored rows themselves (they are immutable). Otherwise a
// sink that keeps its rows (retain) gets them cut from one slab sized for
// the surviving selection — the split's single row allocation; a sink that
// builds its own record from the row is handed one scratch row,
// overwritten for the next.
func runFusedBatch(p *fusedProg, rows []data.Row, ctx mr.TaskCtx, retain bool, sink func(data.Row)) {
	b := runFusedStages(p, rows, ctx)
	if p.identity {
		for _, i := range b.sel {
			sink(rows[i])
		}
		b.release()
		return
	}
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
