package optimizer

import (
	"fmt"
	"testing"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/mr"
	"opportune/internal/plan"
	"opportune/internal/storage"
	"opportune/internal/udf"
	"opportune/internal/value"
)

// reducePlans are the reduce sides TestReduceSideAllocBudget covers, each
// over the 4 096 rows of clus keyed by half = tweet_id/2 (2 048 groups of
// two rows), with the budget in allocations for one warm job minus its map
// task. Each budget is the count measured on the partition kernels plus
// 5 %, and at least 8 (before them, the per-group join, agg-UDF and sort
// reducers and the group-agg kernel measured 6 174, 1 048, 29, 29 and 55,
// and the join 3 099 while it projected its right side into a fresh buffer
// per matched group): a grouping or sealing path that allocates once per
// group adds 2 048 to a join, an agg-UDF or a group-by, and a sort that
// allocates per row adds 4 096.
var reducePlans = []struct {
	name   string
	plan   func() *plan.Node
	budget float64
}{
	// Half the keys find one kv row, the other half none, and kv's upper
	// keys find no clus row: 1 024 groups emit two rows each.
	{"join", func() *plan.Node {
		return plan.JoinNodes(plan.Apply(plan.Scan("clus"), "UDF_HALF", []string{"tweet_id"}), plan.Scan("kv"), "half", "k")
	}, 2184},
	// The agg-UDF returns nil for every odd key.
	{"agg-udf-nil", func() *plan.Node {
		return plan.Apply(plan.Apply(plan.Scan("clus"), "UDF_HALF", []string{"tweet_id"}), "UDF_EVEN", []string{"half", "a"})
	}, 40},
	{"sort", func() *plan.Node {
		return plan.Sort(plan.Apply(plan.Scan("clus"), "UDF_HALF", []string{"tweet_id"}), []string{"half", "d"}, []bool{true, false}, -1)
	}, 28},
	{"sort-limit", func() *plan.Node {
		return plan.Sort(plan.Apply(plan.Scan("clus"), "UDF_HALF", []string{"tweet_id"}), []string{"half", "d"}, []bool{true, false}, 10)
	}, 31},
	{"group-agg", func() *plan.Node {
		return plan.GroupAgg(plan.Apply(plan.Scan("clus"), "UDF_HALF", []string{"tweet_id"}), []string{"half"},
			plan.AggSpec{Func: plan.AggCount, As: "n"}, plan.AggSpec{Func: plan.AggSum, Col: "b", As: "s"},
			plan.AggSpec{Func: plan.AggMin, Col: "text", As: "lo"})
	}, 57},
}

// reduceFixture is slabFixture plus a 2 048-row "kv" (k = 0, 2, 4, …) to
// join with and UDF_EVEN, an agg-UDF over half that emits a count for even
// keys and nothing for odd ones; its body allocates nothing.
func reduceFixture(t testing.TB) *fixture {
	t.Helper()
	f := slabFixture(t, 4096)
	kv := data.NewRelation(data.NewSchema("k", "v"))
	for i := 0; i < 2048; i++ {
		kv.Append(data.Row{value.NewInt(int64(2 * i)), value.NewStr(fmt.Sprintf("v%d", i%9))})
	}
	f.store.Put("kv", storage.Base, kv)
	f.cat.RegisterBase("kv", []string{"k", "v"}, "k", cost.Stats{Rows: 2048, Bytes: kv.EncodedSize()},
		map[string]int64{"k": 2048})
	n := make([]value.V, 1)
	if err := f.cat.UDFs.Register(&udf.Descriptor{
		Name: "UDF_EVEN", NArgs: 2, Kind: udf.KindAgg, KeyNames: []string{"half"}, KeyArgs: []int{0},
		OutNames: []string{"n"}, TrueScalar: 1,
		Reduce: func(keys []value.V, ps [][]value.V, _ []value.V) []value.V {
			if keys[0].Int()%2 != 0 {
				return nil
			}
			n[0] = value.NewInt(int64(len(ps)))
			return n
		},
	}); err != nil {
		t.Fatal(err)
	}
	f.eng.Params.ReduceTasks = 1
	return f
}

// TestReduceSideAllocBudget: what a warm job allocates past its map task —
// shuffle, reduce and materialize — stays within a budget for each kind of
// reducer, so a grouping helper or a run-sealing path that allocates per
// group shows up here.
func TestReduceSideAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, tc := range reducePlans {
		t.Run(tc.name, func(t *testing.T) {
			f := reduceFixture(t)
			w, err := f.opt.Compile(tc.plan())
			if err != nil {
				t.Fatal(err)
			}
			jobs, err := f.opt.Executable(w, "res")
			if err != nil {
				t.Fatal(err)
			}
			if len(jobs) != 1 {
				t.Fatalf("%d jobs, want one", len(jobs))
			}
			job := jobs[0]
			var splits [][]data.Row
			for _, in := range job.Inputs {
				rel, err := f.store.Read(in)
				if err != nil {
					t.Fatal(err)
				}
				splits = append(splits, rel.Rows())
			}
			recs := make([]mr.Keyed, 0, 2*4096)
			emit := func(key string, r data.Row) { recs = append(recs, mr.Keyed{Key: key, Row: r}) }
			mapAllocs := testing.AllocsPerRun(5, func() {
				recs = recs[:0]
				for i, rows := range splits {
					job.BatchMapFactory(mr.TaskCtx{Input: i})(i, rows, emit)
				}
			})
			var out *data.Relation
			jobAllocs := testing.AllocsPerRun(5, func() {
				if out, _, err = runJob(f.eng, job); err != nil {
					t.Fatal(err)
				}
			})
			reduce := jobAllocs - mapAllocs
			t.Logf("%d records into %d output rows: job %.0f, map %.0f, reduce side %.0f allocations",
				len(recs), out.Len(), jobAllocs, mapAllocs, reduce)
			if reduce > tc.budget {
				t.Errorf("reduce side costs %.0f allocations, budget %.0f", reduce, tc.budget)
			}
		})
	}
}
