package optimizer

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/expr"
	"opportune/internal/mr"
	"opportune/internal/plan"
	"opportune/internal/storage"
	"opportune/internal/udf"
	"opportune/internal/value"
)

// sortedRows is a relation's rows in a canonical order, so two runs can be
// compared as multisets with data.RowsEqual.
func sortedRows(rel *data.Relation) []data.Row {
	idx := make([]int, rel.Schema().Len())
	for i := range idx {
		idx[i] = i
	}
	rows := slices.Clone(rel.Rows())
	sort.SliceStable(rows, func(a, b int) bool { return data.Key(rows[a], idx) < data.Key(rows[b], idx) })
	return rows
}

// withDelta adds to the fixture a users table (uid repeats, and some uids
// post nothing), "~delta~users" — appended users rows with repeated, null
// and unknown uids, registered as a delta when marked — and BUCKET, a map
// UDF computing an integer key (NULL of NULL).
func withDelta(t testing.TB, f *fixture, marked bool) {
	t.Helper()
	put := func(name string, rows [][2]any) {
		rel := data.NewRelation(data.NewSchema("uid", "name"))
		for _, r := range rows {
			uid := value.NullV
			if r[0] != nil {
				uid = value.NewInt(int64(r[0].(int)))
			}
			rel.Append(data.Row{uid, value.NewStr(r[1].(string))})
		}
		f.store.Put(name, storage.Base, rel)
		f.cat.RegisterBase(name, []string{"uid", "name"}, "", cost.Stats{Rows: int64(rel.Len()), Bytes: rel.EncodedSize()}, nil)
	}
	if err := f.cat.UDFs.Register(&udf.Descriptor{
		Name: "BUCKET", NArgs: 1, Kind: udf.KindMap, OutNames: []string{"bucket"},
		Map: func(args, _ []value.V) [][]value.V {
			if args[0].IsNull() {
				return [][]value.V{{value.NullV}}
			}
			return [][]value.V{{value.NewInt(args[0].Int() % 4)}}
		},
		TrueScalar: 1,
	}); err != nil {
		t.Fatal(err)
	}
	put("users", [][2]any{{1, "ann"}, {2, "bo"}, {2, "bo2"}, {12, "cy"}})
	put("~delta~users", [][2]any{{3, "di"}, {3, "di2"}, {nil, "ed"}, {2, "fy"}, {40, "gu"}})
	if marked {
		f.cat.MarkDelta("~delta~users")
	}
}

// TestProbeSelection pins which joins compile as probes — a join on the
// delta's path whose other side is a record-local chain over a stored
// dataset with a stored (possibly renamed) key — and which keep the
// shuffle join, and checks every probing plan against the same plan
// compiled over an unmarked delta, run and compared as multisets.
func TestProbeSelection(t *testing.T) {
	delta := func() *plan.Node { return plan.Scan("~delta~users") }
	twtr := func() *plan.Node { return plan.Scan("twtr") }
	count := func(in *plan.Node, key string) *plan.Node {
		return plan.GroupAgg(in, []string{key}, plan.AggSpec{Func: plan.AggCount, As: "n"},
			plan.AggSpec{Func: plan.AggMax, Col: "tweet_id", As: "hi"})
	}
	renamedUsers := plan.ProjectAs(plan.Scan("users"), []string{"uid", "name"}, []string{"uid2", "name2"})
	cases := []struct {
		name   string
		plan   *plan.Node
		jobs   int
		probes []mr.ProbeSpec
	}{
		{"delta left", count(plan.JoinNodes(delta(), twtr(), "uid", "user_id"), "name"),
			1, []mr.ProbeSpec{{Dataset: "twtr", Col: "user_id"}}},
		{"delta right", count(plan.JoinNodes(twtr(), delta(), "user_id", "uid"), "name"),
			1, []mr.ProbeSpec{{Dataset: "twtr", Col: "user_id"}}},
		{"renamed key", count(plan.JoinNodes(delta(),
			plan.ProjectAs(twtr(), []string{"tweet_id", "user_id"}, []string{"tweet_id", "poster"}), "uid", "poster"), "name"),
			1, []mr.ProbeSpec{{Dataset: "twtr", Col: "user_id"}}},
		{"filter and map UDF on the indexed side", count(plan.JoinNodes(delta(),
			plan.Filter(plan.Apply(twtr(), "UDF_WINE_SCORE", []string{"text"}), expr.NewCmp("wine_score", expr.Gt, value.NewFloat(0))),
			"uid", "user_id"), "name"),
			1, []mr.ProbeSpec{{Dataset: "twtr", Col: "user_id"}}},
		{"two joins deep", count(plan.JoinNodes(plan.JoinNodes(delta(), twtr(), "uid", "user_id"), renamedUsers, "uid", "uid2"), "name2"),
			1, []mr.ProbeSpec{{Dataset: "twtr", Col: "user_id"}, {Dataset: "users", Col: "uid"}}},
		{"join output at the root", plan.JoinNodes(delta(), twtr(), "uid", "user_id"),
			1, []mr.ProbeSpec{{Dataset: "twtr", Col: "user_id"}}},
		// The shapes that keep the shuffle join.
		{"UDF-computed key", count(plan.JoinNodes(delta(),
			plan.Apply(twtr(), "BUCKET", []string{"user_id"}), "uid", "bucket"), "name"), 2, nil},
		{"aggregate under the other side", plan.GroupAgg(plan.JoinNodes(delta(),
			plan.GroupAgg(twtr(), []string{"user_id"}, plan.AggSpec{Func: plan.AggCount, As: "n"}), "uid", "user_id"),
			[]string{"name"}, plan.AggSpec{Func: plan.AggSum, Col: "n", As: "total"}), 3, nil},
		{"join under the other side", count(plan.JoinNodes(delta(),
			plan.JoinNodes(twtr(), renamedUsers, "user_id", "uid2"), "uid", "user_id"), "name"), 3, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var outs [2][]data.Row
			for i, marked := range []bool{true, false} {
				f := newFixture(t, 60)
				withDelta(t, f, marked)
				w, err := f.opt.Compile(c.plan.Clone())
				if err != nil {
					t.Fatal(err)
				}
				jobs, err := f.opt.Executable(w, "out")
				if err != nil {
					t.Fatal(err)
				}
				var probes []mr.ProbeSpec
				for _, j := range jobs {
					probes = append(probes, j.Probes...)
				}
				if marked && (len(jobs) != c.jobs || !slices.Equal(probes, c.probes)) {
					t.Fatalf("%d jobs probing %v, want %d probing %v", len(jobs), probes, c.jobs, c.probes)
				}
				if !marked && len(probes) > 0 {
					t.Fatalf("an unmarked delta probed %v", probes)
				}
				if _, err := runJobs(f.eng, jobs); err != nil {
					t.Fatal(err)
				}
				out, err := f.store.Read("out")
				if err != nil {
					t.Fatal(err)
				}
				outs[i] = sortedRows(out)
			}
			if len(outs[0]) == 0 {
				t.Fatal("the plan produced no rows; the case checks nothing")
			}
			if !data.RowsEqual(outs[0], outs[1]) {
				t.Errorf("probe and shuffle disagree\nprobe   %v\nshuffle %v", outs[0], outs[1])
			}
		})
	}
}

// TestProbeEstimate: the probing job is estimated from the delta and the
// rows it is expected to match, not from the table it joins.
func TestProbeEstimate(t *testing.T) {
	q := plan.GroupAgg(plan.JoinNodes(plan.Scan("~delta~users"), plan.Scan("twtr"), "uid", "user_id"),
		[]string{"name"}, plan.AggSpec{Func: plan.AggCount, As: "n"})
	var est [2]float64
	for i, marked := range []bool{true, false} {
		f := newFixture(t, 600)
		withDelta(t, f, marked)
		w, err := f.opt.Compile(q.Clone())
		if err != nil {
			t.Fatal(err)
		}
		est[i] = w.TotalCost()
	}
	if est[0] >= est[1] {
		t.Errorf("probing plan estimated at %g s, the shuffle join at %g s", est[0], est[1])
	}
}

// TestProbeMapCostOrder pins the order a probe job's map-side costs are
// appended in, which fixes the order the engine folds its simulated map
// seconds in (and so their bits): each probe's indexed-side chain as its
// probe compiles, then the stream's own operators, probes included.
func TestProbeMapCostOrder(t *testing.T) {
	f := newFixture(t, 60)
	withDelta(t, f, true)
	bucket := plan.Apply(plan.Scan("~delta~users"), "BUCKET", []string{"uid"})
	wine := plan.Apply(plan.Scan("twtr"), "UDF_WINE_SCORE", []string{"text"})
	pos := plan.Filter(wine, expr.NewCmp("wine_score", expr.Gt, value.NewFloat(0)))
	join1 := plan.JoinNodes(bucket, pos, "uid", "user_id")
	renamed := plan.ProjectAs(plan.Scan("users"), []string{"uid", "name"}, []string{"uid2", "name2"})
	join2 := plan.JoinNodes(join1, renamed, "uid", "uid2")
	w, err := f.opt.Compile(plan.GroupAgg(join2, []string{"bucket"}, plan.AggSpec{Func: plan.AggSum, Col: "wine_score", As: "s"}))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := f.opt.Executable(w, "out")
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || len(jobs[0].Probes) != 2 {
		t.Fatalf("%d jobs probing %v, want one job with two probes", len(jobs), jobs[0].Probes)
	}
	var want []cost.LocalFn
	for _, op := range []*plan.Node{wine, pos, renamed, bucket, join1, join2} {
		want = append(want, f.opt.localFn(op, true))
	}
	if got := jobs[0].MapCost; !reflect.DeepEqual(got, want) {
		t.Errorf("map costs %v, want %v", got, want)
	}
}
