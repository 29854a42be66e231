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
// instead (stripKernels). It folds each key group's partial records with
// plain value operations — merge, then a value.Kahan pass over the group's
// sums — and finalizes per aggregate.

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

// refCombine is the reference mr.Job.Combine: it groups one map task's
// records per key in first-emission order and emits each group's merged
// partial record.
func refCombine(spec *aggSpec) func(in, scratch []mr.Keyed) ([]mr.Keyed, int64) {
	return func(in, scratch []mr.Keyed) ([]mr.Keyed, int64) {
		var keys []string
		groups := map[string][]data.Row{}
		for _, kr := range in {
			if _, ok := groups[kr.Key]; !ok {
				keys = append(keys, kr.Key)
			}
			groups[kr.Key] = append(groups[kr.Key], kr.Row)
		}
		for _, key := range keys {
			scratch = append(scratch, mr.Keyed{Key: key, Row: mergeGroup(spec.aggs, groups[key])})
		}
		return scratch, int64(len(in))
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
// group-agg job's Combine and Reduce kernels are replaced by the row fold
// above. The boundary is compiled afresh onto a scratch job, so the
// reference reads the very layout the kernels were built for. jobs must be
// Executable(w, ...)'s output, one per w.Nodes entry. It returns the tally
// of what ran on the reference.
func stripKernels(t testing.TB, o *Optimizer, w *Work, jobs []*mr.Job) *interpTally {
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
		if j.BatchMapFactory, err = o.interpretedMap(w.Nodes[i], bf, retain, &tally.splits); err != nil {
			t.Fatal(err)
		}
		if k != nil {
			j.Combine, j.Reduce = refCombine(k.spec), refReduce(k.spec, &tally.reduceRows)
		}
	}
	return tally
}
