package optimizer

import (
	"fmt"
	"slices"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/mr"
	"opportune/internal/plan"
	"opportune/internal/udf"
	"opportune/internal/value"
)

// Executable compiles the job DAG into runnable engine jobs in topological
// order. Every job materializes its output under its deterministic view
// name; when finalName is nonempty the sink additionally gets that name as
// its output (the named result table of a CREATE TABLE ... AS query).
func (o *Optimizer) Executable(w *Work, finalName string) ([]*mr.Job, error) {
	jobs := make([]*mr.Job, 0, len(w.Nodes))
	for _, jn := range w.Nodes {
		job, err := o.executableJob(jn, w.StoredName(jn, finalName))
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job)
	}
	return jobs, nil
}

// StoredName is the dataset a job's output is materialized as: its view
// name, except that the sink takes finalName when one is given.
func (w *Work) StoredName(jn *JobNode, finalName string) string {
	if finalName != "" && jn == w.Sink() {
		return finalName
	}
	return jn.ViewName
}

// rowSlab cuts rows out of value slabs: one allocation per chunk of rows
// instead of one per row. Chunks double from 32 rows to 512, so a task that
// emits a handful of rows stays small, a full split costs a dozen
// allocations, and a row someone retains pins at most its own chunk.
type rowSlab struct {
	free  []value.V
	chunk int // rows in the chunk allocated last
}

// next returns an all-Null row of width w that belongs to the caller.
func (s *rowSlab) next(w int) data.Row {
	if len(s.free) < w {
		s.chunk = min(max(2*s.chunk, 32), 512)
		s.free = make([]value.V, s.chunk*w)
	}
	row := s.free[:w:w]
	s.free = s.free[w:]
	return row
}

// rowEmit forwards one program-output row into the job's shuffle/output
// boundary: key building, side tagging. The fused kernel and the row
// interpreter the oracles run (interp_test.go) both produce boundary-input
// rows and hand them to the same rowEmit, so the two emit byte-identical
// streams by construction. A boundary that builds its own record (join,
// agg-UDF) writes it straight into its per-task slab and may be handed a
// scratch row, valid for the call; a pass-through boundary (sort, map-only)
// emits the row itself, so its producers hand it rows to keep (retain). A
// group-by has no rowEmit: its map kernel folds the program's output
// straight into group partials (batchCross).
type rowEmit func(input int, row data.Row, emit mr.Emit)

// boundaryFactory instantiates per-task boundary state (the key encoder and
// the record slab) for one map task.
type boundaryFactory func(ctx mr.TaskCtx) rowEmit

// passThrough is the boundary of a map-only job and of a sort: the row is
// the record (every row of a sort shuffles under one key).
func passThrough(mr.TaskCtx) rowEmit {
	return func(_ int, row data.Row, emit mr.Emit) { emit("", row) }
}

// attachMapSide wires a job's batch map side — every job has one. For a
// group-by (agg, its kernel) the batch map runs the program and folds its
// surviving selection straight into the group partials, emitting the
// split's combined records. Otherwise it runs each stream's program into
// its boundary emitter.
func (o *Optimizer) attachMapSide(job *mr.Job, progs []*fusedProg, bf boundaryFactory, retain bool, agg *aggKernel) {
	if agg != nil {
		job.BatchMapFactory = func(ctx mr.TaskCtx) mr.BatchMapFunc {
			return func(input int, rows []data.Row, emit mr.Emit) mr.BatchReport {
				b := runFusedStages(progs[input], rows, ctx)
				n := agg.batchCross(progs[input], &b, emit)
				b.release()
				return mr.BatchReport{Combined: true, CombineRows: n}
			}
		}
		return
	}
	job.BatchMapFactory = func(ctx mr.TaskCtx) mr.BatchMapFunc {
		be := bf(ctx)
		return func(input int, rows []data.Row, emit mr.Emit) mr.BatchReport {
			runFusedBatch(progs[input], rows, ctx, retain, func(row data.Row) { be(input, row, emit) })
			return mr.BatchReport{}
		}
	}
}

// executableJob compiles one JobNode into an engine job: one fused program
// per stream, then the boundary, then the batch map side that joins them.
func (o *Optimizer) executableJob(jn *JobNode, outName string) (*mr.Job, error) {
	boundary := jn.Logical
	job := &mr.Job{
		Name:         fmt.Sprintf("job%d-%s", jn.Index, boundary.Kind),
		Output:       outName,
		OutputSchema: data.NewSchema(jn.OutCols...),
		// Cardinality hint from the estimator: pre-size only, the engine
		// never lets it affect results or accounting. Every group holds at
		// least one shuffled row, which bounds the key count where Est.Rows
		// does not (a join's output is its key count times the fan-out).
		EstGroups: min(jn.Est.Rows, jn.EstSpec.ShuffleRows),
	}
	// Execute the layout match found at estimation time.
	job.PartitionKeyCols = jn.PartKeyCols
	job.PartitionParts = jn.PartParts
	progs := make([]*fusedProg, len(jn.streams))
	for i, st := range jn.streams {
		p, err := o.buildFused(st, job)
		if err != nil {
			return nil, err
		}
		progs[i] = p
		job.Inputs = append(job.Inputs, st.inputName())
	}
	bf, agg, retain, err := o.boundaryOf(jn, job)
	if err != nil {
		return nil, err
	}
	classifyReduceFusion(jn, job, agg)
	o.attachMapSide(job, progs, bf, retain, agg)
	return job, nil
}

// boundaryOf compiles a job's boundary onto job (its map output schema,
// reduce side and their costs) and returns the per-task emitter the map
// side feeds, or for a group-by its agg kernel instead, and whether the
// emitter keeps the rows it is handed (a pass-through: map-only or sort).
func (o *Optimizer) boundaryOf(jn *JobNode, job *mr.Job) (boundaryFactory, *aggKernel, bool, error) {
	boundary := jn.Logical
	if !o.isBoundary(boundary) {
		// Map-only job: single stream, program output is the job output.
		job.MapOutSchema = job.OutputSchema
		return passThrough, nil, true, nil
	}
	var bf boundaryFactory
	var agg *aggKernel
	var err error
	switch boundary.Kind {
	case plan.KindJoin:
		bf, err = o.joinBoundary(jn, job)
	case plan.KindGroupAgg:
		agg, err = o.groupAggBoundary(jn, job)
	case plan.KindUDF:
		bf, err = o.aggUDFBoundary(jn, job)
	case plan.KindSort:
		bf, err = o.sortBoundary(jn, job)
	default:
		err = fmt.Errorf("optimizer: unexpected boundary %s", boundary.Kind)
	}
	return bf, agg, boundary.Kind == plan.KindSort, err
}

// joinBoundary compiles an equi-join: both sides shuffle on the join key;
// rows are padded to a shared width with a side tag (a co-group, §3.2).
func (o *Optimizer) joinBoundary(jn *JobNode, job *mr.Job) (boundaryFactory, error) {
	boundary := jn.Logical
	lCols := jn.streams[0].outNode.OutCols
	rCols := jn.streams[1].outNode.OutCols
	lIdx, ok := indexOf(lCols, boundary.LCol)
	if !ok {
		return nil, fmt.Errorf("optimizer: join key %q missing from left stream", boundary.LCol)
	}
	rIdx, ok := indexOf(rCols, boundary.RCol)
	if !ok {
		return nil, fmt.Errorf("optimizer: join key %q missing from right stream", boundary.RCol)
	}
	// Shuffle schema: side tag + left columns + right columns (null-padded).
	shufCols := make([]string, 0, 1+len(lCols)+len(rCols))
	shufCols = append(shufCols, "_side")
	for _, c := range lCols {
		shufCols = append(shufCols, "_l_"+c)
	}
	for _, c := range rCols {
		shufCols = append(shufCols, "_r_"+c)
	}
	job.MapOutSchema = data.NewSchema(shufCols...)
	width := 1 + len(lCols) + len(rCols)

	bf := func(mr.TaskCtx) rowEmit {
		var enc data.KeyEncoder
		var slab rowSlab
		return func(input int, row data.Row, emit mr.Emit) {
			keyIx, at := lIdx, 1
			if input != 0 {
				keyIx, at = rIdx, 1+len(lCols)
			}
			key := row[keyIx]
			if key.IsNull() {
				return // null keys never join
			}
			out := slab.next(width)
			out[0] = value.NewInt(int64(input))
			copy(out[at:], row)
			emit(enc.KeyOf(key), out)
		}
	}
	rKeep := keptRight(jn.OutCols, len(lCols), rCols)
	job.Reduce = func(recs []mr.Keyed, out *mr.ReduceOut) {
		var sides []data.Row // one side split buffer for the partition
		var rproj []value.V  // and one right-side projection buffer
		out.EachGroup(recs, func(key string, rows []data.Row) {
			nl := 0
			for _, r := range rows {
				if r[0].Int() == 0 {
					nl++
				}
			}
			if nl == 0 || nl == len(rows) {
				return // one side only: nothing joins
			}
			sides = append(sides[:0], rows...)
			ls, rs := sides[:0:nl], sides[nl:nl]
			for _, r := range rows {
				if r[0].Int() == 0 {
					ls = append(ls, r[1:1+len(lCols)])
				} else {
					rs = append(rs, r[1+len(lCols):])
				}
			}
			rows, n := joinGroup(ls, rs, rKeep, &rproj)
			out.EmitBlock(key, rows, n)
		})
	}
	job.ReduceCost = []cost.LocalFn{{Ops: []cost.OpType{cost.OpGroup, cost.OpFilter}, Scalar: 1}}
	job.MapCost = append(job.MapCost, cost.LocalFn{Ops: []cost.OpType{cost.OpAttr}, Scalar: 1})
	return bf, nil
}

// keptRight locates a join's output columns past its nl left ones — the
// right columns that survived annotation — in the right input's columns.
func keptRight(outCols []string, nl int, rCols []string) []int {
	keep := make([]int, 0, len(outCols)-nl)
	for _, c := range outCols[nl:] {
		ix, _ := indexOf(rCols, c)
		keep = append(keep, ix)
	}
	return keep
}

// joinGroup builds one key group's join output, |ls|·|rs| rows of ls[i]
// followed by the rKeep columns of rs[j], left-major, and returns it with
// its encoded size. All rows of the group are cut from one value slab — one
// allocation where a row-at-a-time emitter makes |ls|·|rs| — so a consumer
// that retains a single row keeps its whole group's slab alive, and no more
// than that. The size needs no walk over the output: every left row appears
// |rs| times, every kept right value |ls| times, and each row carries its
// 4-byte header. scratch is the caller's buffer for the right side's
// projection, reused across groups; the output never aliases it.
func joinGroup(ls, rs []data.Row, rKeep []int, scratch *[]value.V) ([]data.Row, int64) {
	n := len(ls) * len(rs)
	if n == 0 {
		return nil, 0
	}
	nl := len(ls[0])
	w := nl + len(rKeep)
	// Project the right side once, so the cross product below is two copies
	// per row; the projection doubles as the right-side measurement.
	rproj := slices.Grow((*scratch)[:0], len(rs)*len(rKeep))[:len(rs)*len(rKeep)]
	*scratch = rproj
	var lBytes, rBytes int64
	for j, r := range rs {
		dst := rproj[j*len(rKeep) : (j+1)*len(rKeep)]
		for c, ix := range rKeep {
			dst[c] = r[ix]
			rBytes += int64(r[ix].EncodedSize())
		}
	}
	slab := make([]value.V, n*w)
	rows := make([]data.Row, 0, n)
	for _, l := range ls {
		for _, v := range l {
			lBytes += int64(v.EncodedSize())
		}
		for j := range rs {
			row := slab[len(rows)*w : (len(rows)+1)*w : (len(rows)+1)*w]
			copy(row, l)
			copy(row[nl:], rproj[j*len(rKeep):(j+1)*len(rKeep)])
			rows = append(rows, row)
		}
	}
	return rows, int64(len(rs))*lBytes + int64(len(ls))*rBytes + 4*int64(n)
}

// groupAggBoundary compiles a group-by with built-in aggregates as a
// two-phase aggregation: the map kernel folds each split into one partial
// record per group (the map-side combine, shrinking the shuffle), and the
// reduce kernel merges and finalizes (fusereduce.go). All built-ins are
// algebraic (AVG decomposes into sum+count partials).
func (o *Optimizer) groupAggBoundary(jn *JobNode, job *mr.Job) (*aggKernel, error) {
	boundary := jn.Logical
	inCols := jn.streams[0].outNode.OutCols
	keyIdx := make([]int, len(boundary.Keys))
	for i, k := range boundary.Keys {
		ix, ok := indexOf(inCols, k)
		if !ok {
			return nil, fmt.Errorf("optimizer: group key %q missing from stream", k)
		}
		keyIdx[i] = ix
	}
	aggs := make([]aggPhys, len(boundary.Aggs))
	shufCols := make([]string, 0, len(keyIdx)+2*len(aggs))
	for _, k := range boundary.Keys {
		shufCols = append(shufCols, "_k_"+k)
	}
	off := len(keyIdx)
	for i, a := range boundary.Aggs {
		srcIdx := -1
		if a.Col != "" {
			ix, ok := indexOf(inCols, a.Col)
			if !ok {
				return nil, fmt.Errorf("optimizer: aggregate column %q missing from stream", a.Col)
			}
			srcIdx = ix
		}
		aggs[i] = aggPhys{fn: a.Func, src: srcIdx, off: off}
		for p := 0; p < aggs[i].width(); p++ {
			shufCols = append(shufCols, fmt.Sprintf("_p%d_%d", i, p))
		}
		off += aggs[i].width()
	}
	job.MapOutSchema = data.NewSchema(shufCols...)
	nKeys := len(keyIdx)
	k := &aggKernel{spec: &aggSpec{keyIdx: keyIdx, nKeys: nKeys, aggs: aggs, shufW: len(shufCols), outW: nKeys + len(aggs)}}
	job.Reduce = k.batchReduce
	job.CombineCost = []cost.LocalFn{{Ops: []cost.OpType{cost.OpGroup}, Scalar: 1}}
	job.ReduceCost = []cost.LocalFn{{Ops: []cost.OpType{cost.OpGroup}, Scalar: 1}}
	return k, nil
}

func keyRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// aggPhys is the physical (partial-state) form of one aggregate: src is the
// input column (-1 for COUNT(*)), off the first partial column in the
// shuffle row.
type aggPhys struct {
	fn  plan.AggFunc
	src int
	off int
}

// width is the number of partial-state columns (AVG carries sum and count).
func (a aggPhys) width() int {
	if a.fn == plan.AggAvg {
		return 2
	}
	return 1
}

// partial is the count and sum one input value v contributes: COUNT(*)
// counts every row and the rest skip nulls; SUM and AVG add v, +0 for null.
func (a aggPhys) partial(v value.V) (n int64, sum float64) {
	if a.src >= 0 && v.IsNull() {
		return 0, 0
	}
	if a.fn == plan.AggSum || a.fn == plan.AggAvg {
		sum = v.Float()
	}
	return 1, sum
}

// aggUDFBoundary compiles an aggregate UDF: PreMap map-side, then a reduce
// kernel that calls the UDF's Reduce once per key group.
func (o *Optimizer) aggUDFBoundary(jn *JobNode, job *mr.Job) (boundaryFactory, error) {
	boundary := jn.Logical
	d, ok := o.Cat.UDFs.Get(boundary.UDFName)
	if !ok || d.Kind != udf.KindAgg {
		return nil, fmt.Errorf("optimizer: %q is not an aggregate UDF", boundary.UDFName)
	}
	inCols := jn.streams[0].outNode.OutCols
	argIdx := make([]int, len(boundary.UDFArgs))
	for i, c := range boundary.UDFArgs {
		ix, ok := indexOf(inCols, c)
		if !ok {
			return nil, fmt.Errorf("optimizer: UDF arg column %q missing from stream", c)
		}
		argIdx[i] = ix
	}
	params := boundary.UDFParams
	nKeys := len(d.KeyNames)
	payloadW := d.PayloadWidth()

	shufCols := make([]string, 0, nKeys+payloadW)
	for _, k := range d.KeyNames {
		shufCols = append(shufCols, "_k_"+k)
	}
	for i := 0; i < payloadW; i++ {
		shufCols = append(shufCols, fmt.Sprintf("_p%d", i))
	}
	job.MapOutSchema = data.NewSchema(shufCols...)

	width := nKeys + payloadW
	// Without a PreMap the shuffle row is the key arguments, then the other
	// arguments in order: a fixed gather of input columns, resolved here.
	var direct []int
	if d.PreMap == nil {
		isKey := make([]bool, len(argIdx))
		for _, ka := range d.KeyArgs {
			direct = append(direct, argIdx[ka])
			isKey[ka] = true
		}
		for i, ix := range argIdx {
			if !isKey[i] {
				direct = append(direct, ix)
			}
		}
	}
	keyIdxs := keyRange(nKeys)
	bf := func(mr.TaskCtx) rowEmit {
		var enc data.KeyEncoder
		var slab rowSlab
		args := make([]value.V, len(argIdx)) // valid for PreMap during the call only
		return func(_ int, row data.Row, emit mr.Emit) {
			var out data.Row
			if d.PreMap == nil {
				out = slab.next(width)
				for i, ix := range direct {
					out[i] = row[ix]
				}
			} else {
				for i, ix := range argIdx {
					args[i] = row[ix]
				}
				keys, payload, keep := d.PreMap(args, params)
				if !keep {
					return
				}
				d.CheckPreMap(keys, payload)
				out = slab.next(width) // cells past the payload stay Null
				copy(out[copy(out, keys):], payload)
			}
			emit(enc.Key(out, keyIdxs), out)
		}
	}
	job.Reduce = func(recs []mr.Keyed, out *mr.ReduceOut) {
		// One payload header for the partition (valid for Reduce during the
		// call only), and output rows cut from one slab.
		var payloads [][]value.V
		var slab rowSlab
		out.EachGroup(recs, func(key string, rows []data.Row) {
			keys := rows[0][:nKeys]
			payloads = payloads[:0]
			for _, r := range rows {
				payloads = append(payloads, r[nKeys:])
			}
			outVals := d.Reduce(keys, payloads, params)
			d.CheckReduce(outVals)
			if outVals == nil {
				return
			}
			row := slab.next(nKeys + len(outVals))
			copy(row[copy(row, keys):], outVals)
			out.Emit(key, row)
		})
	}
	job.MapCost = append(job.MapCost, cost.LocalFn{Ops: d.MapOps, Scalar: d.TrueScalar})
	job.ReduceCost = []cost.LocalFn{{Ops: d.ReduceOps, Scalar: d.TrueScalar}}
	return bf, nil
}

// sortBoundary compiles ORDER BY [LIMIT] as a single-reducer total sort
// (the naive Hive strategy): every row shuffles under one key, so the one
// non-empty partition is the whole input, and the kernel sorts it in place
// and truncates.
func (o *Optimizer) sortBoundary(jn *JobNode, job *mr.Job) (boundaryFactory, error) {
	boundary := jn.Logical
	inCols := jn.streams[0].outNode.OutCols
	sortIdx := make([]int, len(boundary.SortCols))
	for i, c := range boundary.SortCols {
		ix, ok := indexOf(inCols, c)
		if !ok {
			return nil, fmt.Errorf("optimizer: sort column %q missing from stream", c)
		}
		sortIdx[i] = ix
	}
	desc := boundary.SortDesc
	limit := boundary.Limit
	job.MapOutSchema = data.NewSchema(inCols...)
	job.EstGroups = 1 // every row shuffles under one key
	job.Reduce = func(recs []mr.Keyed, out *mr.ReduceOut) {
		slices.SortStableFunc(recs, func(a, b mr.Keyed) int {
			for i, ix := range sortIdx {
				c := value.Compare(a.Row[ix], b.Row[ix])
				if len(desc) > i && desc[i] {
					c = -c
				}
				if c != 0 {
					return c
				}
			}
			return 0
		})
		if limit < 0 || limit >= int64(len(recs)) {
			for _, kr := range recs { // every shuffled row is kept
				out.Emit(kr.Key, kr.Row)
			}
			return
		}
		// A LIMIT keeps a few map-side rows of many: copy them, so the view
		// does not pin the slabs of the rows it was chosen from.
		w := len(inCols)
		kept, slab := make([]data.Row, limit), make([]value.V, int(limit)*w)
		var bytes int64
		for i := range kept {
			kept[i] = slab[i*w : (i+1)*w : (i+1)*w]
			copy(kept[i], recs[i].Row)
			bytes += int64(kept[i].EncodedSize())
		}
		out.EmitBlock("", kept, bytes)
	}
	job.ReduceCost = []cost.LocalFn{{Ops: []cost.OpType{cost.OpGroup}, Scalar: 1}}
	return passThrough, nil
}

func indexOf(cols []string, c string) (int, bool) {
	for i, x := range cols {
		if x == c {
			return i, true
		}
	}
	return -1, false
}
