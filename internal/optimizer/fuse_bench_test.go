package optimizer

import (
	"fmt"
	"testing"

	"opportune/internal/afk"
	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/expr"
	"opportune/internal/mr"
	"opportune/internal/plan"
	"opportune/internal/storage"
	"opportune/internal/value"
)

// benchChainPlan is the canonical fusable map chain: UDF → filter → project,
// compiling to a single map-only job.
func benchChainPlan() *plan.Node {
	return plan.Project(
		plan.Filter(plan.Apply(plan.Scan("twtr"), "UDF_WINE_SCORE", []string{"text"}),
			expr.NewCmp("wine_score", expr.Gt, value.NewFloat(0))),
		"tweet_id", "user_id", "wine_score")
}

// BenchmarkFusedMapChain compares the fused columnar kernel against the
// row-at-a-time closure interpreter over the identical compiled job and the
// identical 20k-row split. Both sub-benchmarks include the per-task factory
// call, since that is what a map task pays.
func BenchmarkFusedMapChain(b *testing.B) {
	f := newFixture(b, 20000)
	w, err := f.opt.Compile(benchChainPlan())
	if err != nil {
		b.Fatal(err)
	}
	jobs, err := f.opt.Executable(w, "bench_out")
	if err != nil {
		b.Fatal(err)
	}
	job := jobs[len(jobs)-1]
	interp := interpreterOf(b, f, w)
	rel, err := f.store.Read("twtr")
	if err != nil {
		b.Fatal(err)
	}
	rows := rel.Rows()
	ctx := mr.TaskCtx{}
	var sunk int
	emit := func(_ string, _ data.Row) { sunk++ }

	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			job.BatchMapFactory(ctx)(0, rows, emit)
		}
	})
	b.Run("interpreted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			interp.BatchMapFactory(ctx)(0, rows, emit)
		}
	})
	if sunk == 0 {
		b.Fatal("benchmark emitted nothing")
	}
}

// interpreterOf compiles w's sink job a second time and strips it to its
// row-interpreter reference (stripKernels).
func interpreterOf(b *testing.B, f *fixture, w *Work) *mr.Job {
	b.Helper()
	jobs, err := f.opt.Executable(w, "bench_interp")
	if err != nil {
		b.Fatal(err)
	}
	stripKernels(b, f.opt, w, jobs)
	return jobs[len(jobs)-1]
}

// BenchmarkFilterCompaction isolates the branch-free selection-vector
// compaction (satellite of the reduce-fusion PR): a filter-only fused chain
// whose numeric fast path compacts the selection with data-independent
// stores, against the row interpreter evaluating the same predicate.
func BenchmarkFilterCompaction(b *testing.B) {
	f := newFixture(b, 20000)
	p := plan.Filter(plan.Scan("twtr"), expr.NewCmp("tweet_id", expr.Lt, value.NewInt(10000)))
	w, err := f.opt.Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	jobs, err := f.opt.Executable(w, "bench_cmp")
	if err != nil {
		b.Fatal(err)
	}
	job := jobs[len(jobs)-1]
	interp := interpreterOf(b, f, w)
	rel, err := f.store.Read("twtr")
	if err != nil {
		b.Fatal(err)
	}
	rows := rel.Rows()
	ctx := mr.TaskCtx{}
	var sunk int
	emit := func(_ string, _ data.Row) { sunk++ }
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			job.BatchMapFactory(ctx)(0, rows, emit)
		}
	})
	b.Run("interpreted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			interp.BatchMapFactory(ctx)(0, rows, emit)
		}
	})
	if sunk == 0 {
		b.Fatal("benchmark emitted nothing")
	}
}

// benchAggFixture compiles one grouped plan over a hash-partitioned 20k-row
// twtr (8 parts on user_id), single-worker so the numbers measure CPU, not
// scheduling.
func benchAggFixture(b *testing.B, p *plan.Node) (*fixture, *Work, []*mr.Job) {
	b.Helper()
	f := newFixture(b, 20000)
	sig := afk.BaseSig("twtr", "user_id").ID()
	f.cat.SetPartitioning("twtr", afk.Partitioning{Sigs: []string{sig}, Parts: 8})
	f.eng.Params.SplitRows = 2048
	f.eng.Workers = 1
	w, err := f.opt.Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	jobs, err := f.opt.Executable(w, "bench_agg")
	if err != nil {
		b.Fatal(err)
	}
	return f, w, jobs
}

// benchRunJobs times the jobs as compiled, or — interp — as their own
// interpreter reference (runArm).
func benchRunJobs(b *testing.B, f *fixture, w *Work, jobs []*mr.Job, interp bool) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := runArm(b, f, w, jobs, interp); err != nil {
			b.Fatal(err)
		}
	}
}

// groupAggBenchPlan is the 20k-row grouped workload of the acceptance bar:
// count, compensated sum, average, and a string max, grouped by the layout
// key so the fused arm folds scan→group→finalize in one pass per split.
func groupAggBenchPlan() *plan.Node {
	return plan.GroupAgg(plan.Scan("twtr"), []string{"user_id"},
		plan.AggSpec{Func: plan.AggCount, As: "n"},
		plan.AggSpec{Func: plan.AggSum, Col: "tweet_id", As: "s"},
		plan.AggSpec{Func: plan.AggAvg, Col: "tweet_id", As: "m"},
		plan.AggSpec{Func: plan.AggMax, Col: "text", As: "hi"})
}

// BenchmarkFusedGroupAgg compares the full reduce-fused execution (columnar
// agg kernels, cross-boundary fold) against the row-fold reference
// (aggref_test.go: row map side, grouped combine, per-group reduce) end to
// end over identical compiled jobs.
func BenchmarkFusedGroupAgg(b *testing.B) {
	fF, wF, jF := benchAggFixture(b, groupAggBenchPlan())
	if !jF[len(jF)-1].FusedReduce {
		b.Fatal("grouped plan did not reduce-fuse across the boundary")
	}
	fI, wI, jI := benchAggFixture(b, groupAggBenchPlan())
	b.Run("fused", func(b *testing.B) { benchRunJobs(b, fF, wF, jF, false) })
	b.Run("interpreted", func(b *testing.B) { benchRunJobs(b, fI, wI, jI, true) })
}

// BenchmarkProbeDeltaJob times an append's delta job of the ingest shape —
// a COUNT per user over a 200-row delta joined to a stored log through its
// hash index — fused (the probe opens a segment; the cross fold counts the
// matches without building a joined row) against the same compiled job on
// the row interpreter. The index is built before the timer starts, as a
// warm append finds it.
func BenchmarkProbeDeltaJob(b *testing.B) {
	build := func() (*fixture, *Work, []*mr.Job) {
		f := newFixture(b, 2000) // 200 tweets for each of 10 users
		rel := data.NewRelation(data.NewSchema("uid", "name"))
		for i := int64(0); i < 200; i++ {
			rel.Append(data.Row{value.NewInt(i % 57), value.NewStr(fmt.Sprintf("u%d", i%57))})
		}
		f.store.Put("~delta~users", storage.Base, rel)
		f.cat.RegisterBase("~delta~users", []string{"uid", "name"}, "", cost.Stats{Rows: 200, Bytes: rel.EncodedSize()}, nil)
		f.cat.MarkDelta("~delta~users")
		f.eng.Workers = 1
		w, err := f.opt.Compile(plan.GroupAgg(plan.JoinNodes(plan.Scan("~delta~users"),
			plan.ProjectAs(plan.Scan("twtr"), []string{"user_id", "tweet_id"}, []string{"poster", "tweet_id"}), "uid", "poster"),
			[]string{"uid"}, plan.AggSpec{Func: plan.AggCount, As: "n"}))
		if err != nil {
			b.Fatal(err)
		}
		jobs, err := f.opt.Executable(w, "bench_probe")
		if err != nil {
			b.Fatal(err)
		}
		if len(jobs) != 1 || len(jobs[0].Probes) != 1 {
			b.Fatal("the delta join did not compile as one probe job")
		}
		twtr, _ := f.store.Meta("twtr")
		if _, _, err := f.store.Index(twtr, "user_id"); err != nil {
			b.Fatal(err)
		}
		return f, w, jobs
	}
	fF, wF, jF := build()
	fI, wI, jI := build()
	b.Run("fused", func(b *testing.B) { benchRunJobs(b, fF, wF, jF, false) })
	b.Run("interpreted", func(b *testing.B) { benchRunJobs(b, fI, wI, jI, true) })
}

// BenchmarkPartitionLocalFusedChain stacks map work (UDF + filter) on the
// same grouped boundary: the cross arm fuses the whole chain through the
// now-local shuffle, the interpreted arm runs it row at a time.
func BenchmarkPartitionLocalFusedChain(b *testing.B) {
	chain := func() *plan.Node {
		return plan.GroupAgg(
			plan.Filter(plan.Apply(plan.Scan("twtr"), "UDF_WINE_SCORE", []string{"text"}),
				expr.NewCmp("wine_score", expr.Ge, value.NewFloat(0))),
			[]string{"user_id"},
			plan.AggSpec{Func: plan.AggSum, Col: "wine_score", As: "s"},
			plan.AggSpec{Func: plan.AggCount, As: "n"},
			plan.AggSpec{Func: plan.AggAvg, Col: "tweet_id", As: "m"})
	}
	fC, wC, jC := benchAggFixture(b, chain())
	if !jC[len(jC)-1].FusedReduce {
		b.Fatal("chain did not cross-fuse")
	}
	fI, wI, jI := benchAggFixture(b, chain())
	b.Run("cross", func(b *testing.B) { benchRunJobs(b, fC, wC, jC, false) })
	b.Run("interpreted", func(b *testing.B) { benchRunJobs(b, fI, wI, jI, true) })
}
