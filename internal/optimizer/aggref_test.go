package optimizer

import (
	"sync/atomic"
	"testing"

	"opportune/internal/data"
	"opportune/internal/mr"
	"opportune/internal/plan"
	"opportune/internal/value"
)

// The row fold below is the reference implementation of grouped
// aggregation: the compiled kernels (fusereduce.go) are the only production
// path, and the fusion oracles run every group-agg job against this fold
// instead (stripKernels). Its map side writes one partial record per input
// row (refPartials) and combines each task's records (refCombine); both
// sides fold each key group's partial records with plain value operations —
// merge, then a value.Kahan pass over the group's sums — and the reduce
// side finalizes per aggregate.

// initPartials writes the partial state of one input row into the shuffle
// row out (fresh from the slab: all Null), at the aggregate's partial columns.
func (a aggPhys) initPartials(row, out data.Row) {
	var v value.V
	if a.src >= 0 {
		v = row[a.src]
	}
	n, sum := a.partial(v)
	switch a.fn {
	case plan.AggCount:
		out[a.off] = value.NewInt(n)
	case plan.AggSum:
		out[a.off] = value.NewFloat(sum)
	case plan.AggAvg:
		out[a.off], out[a.off+1] = value.NewFloat(sum), value.NewInt(n)
	case plan.AggMin, plan.AggMax:
		out[a.off] = v
	}
}

// refPartials is the reference group-by boundary: it emits each input row's
// group keys and partial state as one shuffle record under the row's key.
func refPartials(spec *aggSpec) boundaryFactory {
	keyIdxs := keyRange(spec.nKeys)
	return func(mr.TaskCtx) rowEmit {
		var enc data.KeyEncoder
		var slab rowSlab
		return func(_ int, row data.Row, emit mr.Emit) {
			out := slab.next(spec.shufW)
			for i, ix := range spec.keyIdx {
				out[i] = row[ix]
			}
			for _, a := range spec.aggs {
				a.initPartials(row, out)
			}
			emit(enc.Key(out, keyIdxs), out)
		}
	}
}

// merge folds row's partial state into acc (in place).
func (a aggPhys) merge(acc, row data.Row) {
	switch a.fn {
	case plan.AggCount:
		acc[a.off] = value.NewInt(acc[a.off].Int() + row[a.off].Int())
	case plan.AggSum:
		acc[a.off] = value.NewFloat(acc[a.off].Float() + row[a.off].Float())
	case plan.AggAvg:
		acc[a.off] = value.NewFloat(acc[a.off].Float() + row[a.off].Float())
		acc[a.off+1] = value.NewInt(acc[a.off+1].Int() + row[a.off+1].Int())
	case plan.AggMin, plan.AggMax:
		v := row[a.off]
		if v.IsNull() {
			return
		}
		cur := acc[a.off]
		if cur.IsNull() ||
			(a.fn == plan.AggMin && value.Compare(v, cur) < 0) ||
			(a.fn == plan.AggMax && value.Compare(v, cur) > 0) {
			acc[a.off] = v
		}
	}
}

// foldSum replaces the float-sum partial at a.off with a Neumaier-
// compensated fold over the whole group, overwriting the naive left fold
// merge accumulated (COUNT/MIN/MAX partials and AVG's count column are
// exact and keep merge's result).
func (a aggPhys) foldSum(acc data.Row, rows []data.Row) {
	if a.fn != plan.AggSum && a.fn != plan.AggAvg {
		return
	}
	var k value.Kahan
	for _, r := range rows {
		k.Add(r[a.off].Float())
	}
	acc[a.off] = value.NewFloat(k.Value())
}

// finalize converts the merged partial state into the output value.
func (a aggPhys) finalize(acc data.Row) value.V {
	if a.fn == plan.AggAvg {
		n := acc[a.off+1].Int()
		if n == 0 {
			return value.NullV
		}
		return value.NewFloat(acc[a.off].Float() / float64(n))
	}
	return acc[a.off]
}

// mergeGroup folds one key group's partial records into one.
func mergeGroup(aggs []aggPhys, rows []data.Row) data.Row {
	acc := rows[0].Clone()
	for _, r := range rows[1:] {
		for _, a := range aggs {
			a.merge(acc, r)
		}
	}
	for _, a := range aggs {
		a.foldSum(acc, rows)
	}
	return acc
}

// refCombine is the reference map-side combine: it groups one map task's
// records per key in first-emission order and returns each group's merged
// partial record.
func refCombine(spec *aggSpec, in []mr.Keyed) []mr.Keyed {
	var keys []string
	groups := map[string][]data.Row{}
	for _, kr := range in {
		if _, ok := groups[kr.Key]; !ok {
			keys = append(keys, kr.Key)
		}
		groups[kr.Key] = append(groups[kr.Key], kr.Row)
	}
	out := make([]mr.Keyed, 0, len(keys))
	for _, key := range keys {
		out = append(out, mr.Keyed{Key: key, Row: mergeGroup(spec.aggs, groups[key])})
	}
	return out
}

// combinedMap runs refCombine inside a reference map function: a task's
// partial records are combined before they reach the engine, and the task
// reports Combined with the rows combined, as the compiled map kernel does.
func combinedMap(spec *aggSpec, factory func(mr.TaskCtx) mr.BatchMapFunc) func(mr.TaskCtx) mr.BatchMapFunc {
	return func(ctx mr.TaskCtx) mr.BatchMapFunc {
		batch := factory(ctx)
		return func(input int, rows []data.Row, emit mr.Emit) mr.BatchReport {
			var in []mr.Keyed
			batch(input, rows, func(key string, r data.Row) { in = append(in, mr.Keyed{Key: key, Row: r}) })
			for _, kr := range refCombine(spec, in) {
				emit(kr.Key, kr.Row)
			}
			return mr.BatchReport{Combined: true, CombineRows: int64(len(in))}
		}
	}
}

// refReduce is the reference reduce kernel: for each key group, through
// the engine's grouping helper, merge the group's partial records, then
// emit the keys and one finalized value per aggregate. It adds the records
// it folds to rows.
func refReduce(spec *aggSpec, rows *atomic.Int64) func([]mr.Keyed, *mr.ReduceOut) {
	return func(recs []mr.Keyed, out *mr.ReduceOut) {
		rows.Add(int64(len(recs)))
		out.EachGroup(recs, func(key string, group []data.Row) {
			acc := mergeGroup(spec.aggs, group)
			row := make(data.Row, 0, spec.outW)
			row = append(row, acc[:spec.nKeys]...)
			for _, a := range spec.aggs {
				row = append(row, a.finalize(acc))
			}
			out.Emit(key, row)
		})
	}
}

// interpTally counts what a stripped job set ran on the reference: the
// splits the row interpreter mapped and the records the row fold reduced.
type interpTally struct {
	splits, reduceRows atomic.Int64
}

// stripKernels turns compiled jobs into their interpreter reference: each
// job's batch map function becomes the row interpreter (interpretedMap)
// over the same streams and into the same boundary emitter, and every
// group-agg job's kernels are replaced by the row fold above: its map side
// emits refPartials' per-row records and combines them (combinedMap), and
// its Reduce is refReduce. The boundary is compiled afresh onto a scratch
// job, so the reference reads the very layout the kernels were built for.
// jobs must be Executable(w, ...)'s output, one per w.Nodes entry. It
// returns the tally of what ran on the reference.
func stripKernels(t testing.TB, o *Optimizer, w *Work, jobs []*mr.Job) *interpTally {
	return stripJobs(t, o, w, jobs, true)
}

// stripJobs is stripKernels, with the group-agg reference's map-side
// combine left out unless combine is set: each of its map tasks then
// shuffles one partial record per row, uncombined.
func stripJobs(t testing.TB, o *Optimizer, w *Work, jobs []*mr.Job, combine bool) *interpTally {
	t.Helper()
	if len(jobs) != len(w.Nodes) {
		t.Fatalf("%d jobs for %d job nodes", len(jobs), len(w.Nodes))
	}
	tally := new(interpTally)
	for i, j := range jobs {
		bf, k, retain, err := o.boundaryOf(w.Nodes[i], &mr.Job{})
		if err != nil {
			t.Fatal(err)
		}
		if k != nil {
			bf = refPartials(k.spec)
		}
		if j.BatchMapFactory, err = o.interpretedMap(w.Nodes[i], bf, retain, &tally.splits); err != nil {
			t.Fatal(err)
		}
		if k != nil {
			if combine {
				j.BatchMapFactory = combinedMap(k.spec, j.BatchMapFactory)
			}
			j.Reduce = refReduce(k.spec, &tally.reduceRows)
		}
	}
	return tally
}
