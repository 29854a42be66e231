// Group-by kernels: the map-side combine and the reducer of every grouped
// aggregation compile into columnar agg kernels — the only production
// implementation of grouped aggregation (the second half of the Tupleware
// direction: compile the workflow, don't interpret it).
//
//   - The map kernel (batchCross, the job's batch map function) is the
//     combiner: it runs the combine fold directly over the fused map
//     program's surviving selection — scan→filter→probe/explode→group→
//     partial-finalize in one pass, with no per-row partial row (nor joined
//     row) ever built — into typed accumulator columns (int64 counts,
//     float64 Neumaier sum+compensation pairs, value.V extrema) drawn from
//     the pooled mr column buffers, and emits one combined record per group
//     of its split, reporting the split Combined. The engine keeps no
//     combine hook of its own.
//   - The reduce kernel (mr.Job.Reduce, the one reduce hook every keyed job
//     sets) folds a whole reduce partition's partial records the same way,
//     grouped by dense id over the already-encoded keys with run-detection
//     for adjacent equal keys, and emits finalized output rows with keys in
//     ascending order — one run per key, the order the engine merges reduce
//     output in — as the join, agg-UDF and sort kernels of exec.go do.
//
// The partial records the reduce kernel folds are the ones the map kernel
// writes (Int counts, Float sums, shufW wide), so the kernels check no
// layout and never bail out. Every kernel folds through one step,
// aggAccs.fold, from the zeroed accumulators: records through their
// partials (recPartial), the map kernel through each input value's
// aggPhys.partial. Sums fold by value.Kahan's Neumaier recurrence,
// operation for operation, from a zero sum; COUNT and AVG's count are
// exact integer sums; MIN/MAX keep the null-skipping value.Compare
// replacement. The per-row partials and row fold the differential oracles
// compare the kernels with live in aggref_test.go.
package optimizer

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"sync"

	"opportune/internal/data"
	"opportune/internal/mr"
	"opportune/internal/plan"
	"opportune/internal/value"
)

// aggSpec is the physical layout of one groupAgg boundary: where the group
// keys live in the boundary-input row, the aggregate list with partial
// offsets (aggPhys), and the widths of the shuffle and output rows the
// kernels must produce.
type aggSpec struct {
	keyIdx []int // boundary-input column indices of the group keys
	nKeys  int
	aggs   []aggPhys
	shufW  int // shuffle-record width: keys + partial columns
	outW   int // output-row width: keys + one column per aggregate
}

// classifyReduceFusion stamps the job's reduce-side fusion classification:
// a grouped aggregation (k, its kernels already attached) is fused, any
// other keyed job carries exactly one fallback reason.
func classifyReduceFusion(jn *JobNode, job *mr.Job, k *aggKernel) {
	switch {
	case job.Reduce == nil: // map-only: no reduce side to fuse
	case k != nil:
		job.FusedReduce = true
	case jn.Logical.Kind == plan.KindUDF:
		// Aggregate-UDF reducers run opaque user code over raw payload
		// rows; there is no typed partial state to specialize on.
		job.FusedReduceFallback = mr.FuseAggUDF
	default:
		job.FusedReduceFallback = mr.FuseUnsupportedOp // join, sort: not an agg fold
	}
}

// idsPool recycles the dense-group-id maps the kernels group with.
// Lookups with a []byte-to-string conversion key do not allocate; only a
// genuinely new group pays for the string.
var idsPool = sync.Pool{New: func() any { return make(map[string]int32, 64) }}

func getIDMap() map[string]int32  { return idsPool.Get().(map[string]int32) }
func putIDMap(m map[string]int32) { clear(m); idsPool.Put(m) }

// aggKernel is one groupAgg job's compiled kernel set. It is
// stateless across invocations (per-batch state lives in aggAccs), so one
// kernel serves concurrent map tasks and reduce partitions.
type aggKernel struct {
	spec *aggSpec
}

// aggAccs is one batch invocation's accumulator state: per-aggregate typed
// columns over dense group ids, drawn from the pooled mr column buffers.
// For SUM and AVG the sum is carried as a (running sum, compensation) pair
// replicating value.Kahan's fields; COUNT and AVG's count are exact int64
// sums; MIN/MAX carry the raw running extremum. ids maps a group's key to
// its dense id and firsts holds each group's first row, in id order.
type aggAccs struct {
	spec   *aggSpec
	cols   []*data.Col
	cnts   [][]int64
	sums   [][]float64
	comps  [][]float64
	vals   [][]value.V
	ids    map[string]int32
	firsts []int32
}

func newAggAccs(spec *aggSpec, n int) *aggAccs {
	st := &aggAccs{
		spec:   spec,
		cnts:   make([][]int64, len(spec.aggs)),
		sums:   make([][]float64, len(spec.aggs)),
		comps:  make([][]float64, len(spec.aggs)),
		vals:   make([][]value.V, len(spec.aggs)),
		ids:    getIDMap(),
		firsts: mr.GetSel(n),
	}
	grab := func() *data.Col {
		c := mr.GetCol(n)
		st.cols = append(st.cols, c)
		return c
	}
	for i, a := range spec.aggs {
		switch a.fn {
		case plan.AggCount:
			st.cnts[i] = grab().IntAcc(n)
		case plan.AggSum:
			st.sums[i] = grab().FloatAcc(n)
			st.comps[i] = grab().FloatAcc(n)
		case plan.AggAvg:
			st.sums[i] = grab().FloatAcc(n)
			st.comps[i] = grab().FloatAcc(n)
			st.cnts[i] = grab().IntAcc(n)
		case plan.AggMin, plan.AggMax:
			st.vals[i] = grab().ValAcc(n)
		}
	}
	return st
}

func (st *aggAccs) release() {
	for _, c := range st.cols {
		mr.PutCol(c)
	}
	putIDMap(st.ids)
	mr.PutSel(st.firsts)
}

// foldRecords groups partial records by key — dense ids in first-seen
// order, with run detection: clustered inputs emit long runs of one key,
// and adjacent equal keys skip the map entirely — and folds each into its
// group.
func (st *aggAccs) foldRecords(recs []mr.Keyed) {
	prevKey, prevID := "", int32(-1)
	for ri := range recs {
		rec := &recs[ri]
		g, ok := prevID, prevID >= 0 && rec.Key == prevKey
		if !ok {
			g, ok = st.ids[rec.Key]
		}
		if !ok {
			g = int32(len(st.firsts))
			st.ids[rec.Key] = g
			st.firsts = append(st.firsts, int32(ri))
		}
		for i, a := range st.spec.aggs {
			n, x, v := a.recPartial(rec.Row)
			st.fold(i, int(g), n, x, v)
		}
		prevKey, prevID = rec.Key, g
	}
}

// fold is the one fold step of aggregate i's group g: n adds to a count
// (COUNT, AVG's), x runs the Neumaier step on a sum (SUM, AVG), and v is
// an extremum candidate (MIN, MAX; Null is skipped). A group's first input
// folds into the zeroed state newAggAccs hands out — counts and sums 0,
// extrema Null — which is what value.Kahan.Add does on a zero accumulator.
// A -0.0 first sum then lands as +0.0, but what leaves the kernel is
// sum+comp with comp never -0.0, which is +0.0 either way.
func (st *aggAccs) fold(i, g int, n int64, x float64, v value.V) {
	switch a := st.spec.aggs[i]; a.fn {
	case plan.AggCount:
		st.cnts[i][g] += n
	case plan.AggSum:
		st.addSum(i, g, x)
	case plan.AggAvg:
		st.addSum(i, g, x)
		st.cnts[i][g] += n
	case plan.AggMin, plan.AggMax:
		cur := st.vals[i][g]
		if !v.IsNull() && (cur.IsNull() ||
			(a.fn == plan.AggMin && value.Compare(v, cur) < 0) ||
			(a.fn == plan.AggMax && value.Compare(v, cur) > 0)) {
			st.vals[i][g] = v
		}
	}
}

// recPartial reads aggregate a's partial state back out of a shuffle
// record, as fold takes it.
func (a aggPhys) recPartial(rec data.Row) (n int64, x float64, v value.V) {
	switch a.fn {
	case plan.AggCount:
		n = rec[a.off].Int()
	case plan.AggSum:
		x = rec[a.off].Float()
	case plan.AggAvg:
		x, n = rec[a.off].Float(), rec[a.off+1].Int()
	default:
		v = rec[a.off]
	}
	return n, x, v
}

// addSum runs one step of value.Kahan's Neumaier recurrence on group g's
// (sum, compensation) pair — the same operations in the same order, so the
// final sum+comp is bit-identical to Kahan.Add folds over the same values.
func (st *aggAccs) addSum(i, g int, x float64) {
	s := st.sums[i][g]
	t := s + x
	if math.Abs(s) >= math.Abs(x) {
		st.comps[i][g] += (s - t) + x
	} else {
		st.comps[i][g] += (x - t) + s
	}
	st.sums[i][g] = t
}

// appendPartials appends group g's combined partial state in shuffle-record
// layout.
func (st *aggAccs) appendPartials(out data.Row, g int) data.Row {
	for i, a := range st.spec.aggs {
		switch a.fn {
		case plan.AggCount:
			out = append(out, value.NewInt(st.cnts[i][g]))
		case plan.AggSum:
			out = append(out, value.NewFloat(st.sums[i][g]+st.comps[i][g]))
		case plan.AggAvg:
			out = append(out, value.NewFloat(st.sums[i][g]+st.comps[i][g]), value.NewInt(st.cnts[i][g]))
		case plan.AggMin, plan.AggMax:
			out = append(out, st.vals[i][g])
		}
	}
	return out
}

// finalRow builds group g's finalized output row in out (empty, capacity
// outW): keys from the group's first record, then one finalized value per
// aggregate (AVG of an all-null group is Null).
func (st *aggAccs) finalRow(out, first data.Row, g int) data.Row {
	out = append(out, first[:st.spec.nKeys]...)
	for i, a := range st.spec.aggs {
		switch a.fn {
		case plan.AggCount:
			out = append(out, value.NewInt(st.cnts[i][g]))
		case plan.AggSum:
			out = append(out, value.NewFloat(st.sums[i][g]+st.comps[i][g]))
		case plan.AggAvg:
			n := st.cnts[i][g]
			if n == 0 {
				out = append(out, value.NullV)
			} else {
				out = append(out, value.NewFloat((st.sums[i][g]+st.comps[i][g])/float64(n)))
			}
		case plan.AggMin, plan.AggMax:
			out = append(out, st.vals[i][g])
		}
	}
	return out
}

// slabRow returns row g of a slab of w-wide rows, empty with capacity w, to
// be appended to. The kernels cut a batch's output rows, one per group, from
// one slab: every row of it is emitted, so whoever keeps the output keeps
// exactly the slab.
func slabRow(slab []value.V, g, w int) data.Row { return slab[g*w : g*w : (g+1)*w] }

// batchReduce is the reduce kernel (mr.Job.Reduce): it folds one whole
// reduce partition and emits finalized rows with keys in ascending order,
// the order the engine's k-way merge expects.
func (k *aggKernel) batchReduce(recs []mr.Keyed, out *mr.ReduceOut) {
	spec := k.spec
	st := newAggAccs(spec, len(recs))
	st.foldRecords(recs)
	sorted := make([]string, 0, len(st.firsts))
	for key := range st.ids {
		sorted = append(sorted, key)
	}
	sort.Strings(sorted)
	slab := make([]value.V, len(st.firsts)*spec.outW)
	for _, key := range sorted {
		g := int(st.ids[key])
		out.Emit(key, st.finalRow(slabRow(slab, g, spec.outW), recs[st.firsts[g]].Row, g))
	}
	st.release()
}

// batchCross runs the combine fold directly over a fused map pipeline's
// surviving selection (b, at the program's last segment) — the group-by's
// map kernel and its only combiner. Group keys are encoded via
// value.AppendKey into a reused byte buffer (map lookups on the []byte view
// never allocate; only a new group pays for its string), and not at all for
// a row whose every key column lives above the last segment (a probe's or
// an explode's) when it shares its parent row with the row before: it
// shares that row's key too. Each aggregate input folds as the per-row
// partial aggPhys.partial makes of it (COUNT skips nulls, SUM and AVG treat
// null as +0 / uncounted, MIN/MAX take the raw value). Emits one combined
// record per group in first-seen order and returns the pre-combine row
// count (the surviving selection's length).
func (k *aggKernel) batchCross(p *fusedProg, b *fusedBatch, emit mr.Emit) int64 {
	spec := k.spec
	sel := b.sel
	st := newAggAccs(spec, len(sel))
	keys := make([]string, 0, 64)
	var from []int32 // the last segment's parents, when they fix the key
	if n := len(b.segs); n > 0 && !slices.ContainsFunc(spec.keyIdx, func(kx int) bool { return p.outs[kx].lvl == n }) {
		from = b.segs[n-1].from
	}
	var keyBuf, prevBuf []byte
	prevID, parent := int32(-1), int32(-1)
	for _, i := range sel {
		g := prevID
		if from == nil || prevID < 0 || from[i] != parent {
			keyBuf = keyBuf[:0]
			for _, kx := range spec.keyIdx {
				keyBuf = b.read(p.outs[kx], i).AppendKey(keyBuf)
			}
			ok := prevID >= 0 && bytes.Equal(keyBuf, prevBuf)
			if !ok {
				g, ok = st.ids[string(keyBuf)]
			}
			if !ok {
				g = int32(len(st.firsts))
				ks := string(keyBuf)
				st.ids[ks] = g
				keys = append(keys, ks)
				st.firsts = append(st.firsts, i)
			}
			keyBuf, prevBuf = prevBuf, keyBuf
		}
		if from != nil {
			parent = from[i]
		}
		for ai, a := range spec.aggs {
			v := value.NullV // COUNT(*) reads no column
			if a.src >= 0 {
				v = b.read(p.outs[a.src], i)
			}
			n, x := a.partial(v)
			st.fold(ai, int(g), n, x, v)
		}
		prevID = g
	}
	slab := make([]value.V, len(st.firsts)*spec.shufW)
	for g, first := range st.firsts {
		out := slabRow(slab, g, spec.shufW)
		for _, kx := range spec.keyIdx {
			out = append(out, b.read(p.outs[kx], first))
		}
		emit(keys[g], st.appendPartials(out, g))
	}
	st.release()
	return int64(len(sel))
}
