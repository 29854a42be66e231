package optimizer

import (
	"strings"
	"testing"
	"time"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/expr"
	"opportune/internal/meta"
	"opportune/internal/mr"
	"opportune/internal/plan"
	"opportune/internal/storage"
	"opportune/internal/udf"
	"opportune/internal/value"
)

// fixture builds a store+catalog with a small tweet log and two UDFs.
type fixture struct {
	store *storage.Store
	cat   *meta.Catalog
	eng   *mr.Engine
	opt   *Optimizer
}

func newFixture(t testing.TB, rows int) *fixture {
	t.Helper()
	st := storage.NewStore()
	rel := data.NewRelation(data.NewSchema("tweet_id", "user_id", "text"))
	words := []string{"wine is great", "bad day", "good wine good life", "coffee time", "wine wine wine"}
	for i := 0; i < rows; i++ {
		rel.Append(data.Row{
			value.NewInt(int64(i)),
			value.NewInt(int64(i % 10)),
			value.NewStr(words[i%len(words)]),
		})
	}
	st.Put("twtr", storage.Base, rel)

	cat := meta.NewCatalog()
	cat.RegisterBase("twtr", []string{"tweet_id", "user_id", "text"}, "tweet_id",
		cost.Stats{Rows: int64(rows), Bytes: rel.EncodedSize()},
		map[string]int64{"tweet_id": int64(rows), "user_id": 10})

	if err := cat.UDFs.Register(&udf.Descriptor{
		Name: "UDF_WINE_SCORE", NArgs: 1, Kind: udf.KindMap, OutNames: []string{"wine_score"},
		Map: func(args, _ []value.V) [][]value.V {
			return [][]value.V{{value.NewFloat(float64(strings.Count(args[0].Str(), "wine")))}}
		},
		TrueScalar: 10,
	}); err != nil {
		t.Fatal(err)
	}
	if err := cat.UDFs.Register(&udf.Descriptor{
		Name: "UDF_USER_TOTAL", NArgs: 2, Kind: udf.KindAgg,
		KeyNames: []string{"user_id"}, KeyArgs: []int{0}, OutNames: []string{"total"},
		Reduce: func(_ []value.V, ps [][]value.V, _ []value.V) []value.V {
			var s float64
			for _, p := range ps {
				s += p[0].Float()
			}
			return []value.V{value.NewFloat(s)}
		},
		TrueScalar: 2,
	}); err != nil {
		t.Fatal(err)
	}
	params := cost.DefaultParams()
	eng := mr.New(st, params)
	return &fixture{store: st, cat: cat, eng: eng, opt: New(cat, params, expr.NewEvaluator())}
}

// bind binds job's inputs and probes to the versions eng's store holds now
// (nil for a name it does not hold), as the session's planner does.
func bind(eng *mr.Engine, job *mr.Job) *mr.Job {
	job.Sources = make([]*storage.Dataset, len(job.Inputs))
	for i, name := range job.Inputs {
		job.Sources[i], _ = eng.Store.Meta(name)
	}
	job.ProbeSources = make([]*storage.Dataset, len(job.Probes))
	for i, p := range job.Probes {
		job.ProbeSources[i], _ = eng.Store.Meta(p.Dataset)
	}
	return job
}

// runJob binds job and runs it alone on eng, and returns its relation and
// Result.
func runJob(eng *mr.Engine, job *mr.Job) (*data.Relation, *mr.Result, error) {
	outs, run, err := eng.Run(bind(eng, job))
	if err != nil {
		return nil, nil, err
	}
	return outs[0].Relation(), run.Results[0], nil
}

// runJobs runs compiled jobs alone in job order, each output in the store
// before the next job starts, recording each as it finishes (the failed one
// included). It returns the successful jobs' results.
func runJobs(eng *mr.Engine, jobs []*mr.Job) ([]*mr.Result, error) {
	var results []*mr.Result
	for _, j := range jobs {
		start := time.Now()
		_, run, err := eng.Run(bind(eng, j))
		if run != nil {
			eng.RecordJob(run.Results[0], err, time.Since(start).Seconds())
		}
		if err != nil {
			return results, err
		}
		results = append(results, run.Results[0])
	}
	return results, nil
}

// winersPlan: per-user wine score sum for active users, thresholded.
func winersPlan() *plan.Node {
	scored := plan.Apply(plan.Scan("twtr"), "UDF_WINE_SCORE", []string{"text"})
	agg := plan.Apply(scored, "UDF_USER_TOTAL", []string{"user_id", "wine_score"})
	return plan.Filter(agg, expr.NewCmp("total", expr.Gt, value.NewFloat(1)))
}

func TestCompileJobCutting(t *testing.T) {
	f := newFixture(t, 100)
	w, err := f.opt.Compile(winersPlan())
	if err != nil {
		t.Fatal(err)
	}
	// two jobs: the agg UDF (with the map UDF pipelined into its map side)
	// and the trailing map-only filter job.
	if len(w.Nodes) != 2 {
		t.Fatalf("jobs = %d, want 2", len(w.Nodes))
	}
	aggJob, filterJob := w.Nodes[0], w.Nodes[1]
	if aggJob.Logical.Kind != plan.KindUDF {
		t.Errorf("first job = %s", aggJob.Logical.Kind)
	}
	if filterJob.Logical.Kind != plan.KindFilter {
		t.Errorf("second job = %s", filterJob.Logical.Kind)
	}
	if len(filterJob.Deps) != 1 || filterJob.Deps[0] != aggJob {
		t.Error("dep wiring wrong")
	}
	if w.Sink() != filterJob {
		t.Error("sink wrong")
	}
	// costs estimated and positive
	if aggJob.EstCost.Total() <= 0 || filterJob.EstCost.Total() <= 0 {
		t.Error("zero estimated costs")
	}
	// the map UDF is in the agg job's map pipeline
	if len(aggJob.streams) != 1 || len(aggJob.streams[0].ops) != 1 {
		t.Errorf("agg job pipeline = %+v", aggJob.streams)
	}
	// CostThrough(sink) covers both jobs
	if got, want := w.CostThrough(1), w.TotalCost(); got != want {
		t.Errorf("CostThrough(sink) = %g, total = %g", got, want)
	}
	if w.CostThrough(0) >= w.TotalCost() {
		t.Error("CostThrough(0) should be less than total")
	}
	// deterministic view names
	w2, _ := f.opt.Compile(winersPlan())
	if w.Sink().ViewName != w2.Sink().ViewName {
		t.Error("view names not deterministic")
	}
	if aggJob.ViewName == filterJob.ViewName {
		t.Error("distinct jobs share a view name")
	}
}

func TestCompileErrors(t *testing.T) {
	f := newFixture(t, 10)
	if _, err := f.opt.Compile(plan.Scan("twtr")); err == nil {
		t.Error("bare scan compiled")
	}
	if _, err := f.opt.Compile(plan.Scan("missing")); err == nil {
		t.Error("unknown dataset compiled")
	}
	if _, err := f.opt.Compile(plan.Filter(plan.Scan("twtr"), expr.NewCmp("zz", expr.Eq, value.NewInt(1)))); err == nil {
		t.Error("bad filter compiled")
	}
}

func TestExecuteEndToEnd(t *testing.T) {
	f := newFixture(t, 100)
	w, err := f.opt.Compile(winersPlan())
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := f.opt.Executable(w, "result")
	if err != nil {
		t.Fatal(err)
	}
	results, err := runJobs(f.eng, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || totalSim(results) <= 0 {
		t.Errorf("ran %d jobs for %g sim-s", len(results), totalSim(results))
	}
	out, err := f.store.Read("result")
	if err != nil {
		t.Fatal(err)
	}
	// ground truth: user u always sees text index u%5 (since 10 and 5 are
	// not coprime); wine counts per text are [1,0,1,0,3]. Users with text
	// 1 or 3 total zero and are filtered, leaving 6 users with totals
	// 10, 10, or 30.
	if out.Len() != 6 {
		t.Fatalf("result rows = %d, want 6", out.Len())
	}
	wantTotal := map[int64]float64{0: 10, 5: 10, 2: 10, 7: 10, 4: 30, 9: 30}
	for i := 0; i < out.Len(); i++ {
		u := out.Get(i, "user_id").Int()
		if got := out.Get(i, "total").Float(); got != wantTotal[u] {
			t.Errorf("user %d total = %v, want %v", u, got, wantTotal[u])
		}
	}
	// intermediate materialized as view under its deterministic name
	if !f.store.Has(w.Nodes[0].ViewName) {
		t.Error("intermediate view not materialized")
	}
}

func TestExecuteJoin(t *testing.T) {
	f := newFixture(t, 50)
	// second dataset: user profiles
	prof := data.NewRelation(data.NewSchema("uid", "grade"))
	for i := 0; i < 10; i++ {
		prof.Append(data.Row{value.NewInt(int64(i)), value.NewStr(strings.Repeat("A", i%3+1))})
	}
	f.store.Put("prof", storage.Base, prof)
	f.cat.RegisterBase("prof", []string{"uid", "grade"}, "uid",
		cost.Stats{Rows: 10, Bytes: prof.EncodedSize()}, map[string]int64{"uid": 10})

	counts := plan.GroupAgg(plan.Scan("twtr"), []string{"user_id"}, plan.AggSpec{Func: plan.AggCount, As: "n"})
	joined := plan.JoinNodes(counts, plan.Scan("prof"), "user_id", "uid")
	w, err := f.opt.Compile(joined)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Nodes) != 2 {
		t.Fatalf("jobs = %d, want 2 (groupagg, join)", len(w.Nodes))
	}
	jobs, err := f.opt.Executable(w, "joined")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runJobs(f.eng, jobs); err != nil {
		t.Fatal(err)
	}
	out, _ := f.store.Read("joined")
	if out.Len() != 10 {
		t.Fatalf("join rows = %d, want 10", out.Len())
	}
	s := out.Schema()
	for _, c := range []string{"user_id", "n", "uid", "grade"} {
		if !s.Has(c) {
			t.Errorf("missing column %q in %s", c, s)
		}
	}
	// 50 tweets over 10 users -> n=5 each
	for i := 0; i < out.Len(); i++ {
		if out.Get(i, "n").Int() != 5 {
			t.Errorf("row %d n = %v", i, out.Row(i))
		}
		if !value.Equal(out.Get(i, "user_id"), out.Get(i, "uid")) {
			t.Error("join key mismatch")
		}
	}
}

func TestExecuteGroupAggFunctions(t *testing.T) {
	f := newFixture(t, 20)
	p := plan.GroupAgg(plan.Scan("twtr"), []string{"user_id"},
		plan.AggSpec{Func: plan.AggCount, As: "cnt"},
		plan.AggSpec{Func: plan.AggSum, Col: "tweet_id", As: "s"},
		plan.AggSpec{Func: plan.AggMin, Col: "tweet_id", As: "lo"},
		plan.AggSpec{Func: plan.AggMax, Col: "tweet_id", As: "hi"},
		plan.AggSpec{Func: plan.AggAvg, Col: "tweet_id", As: "av"},
	)
	w, err := f.opt.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := f.opt.Executable(w, "gagg")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runJobs(f.eng, jobs); err != nil {
		t.Fatal(err)
	}
	out, _ := f.store.Read("gagg")
	if out.Len() != 10 {
		t.Fatalf("rows = %d", out.Len())
	}
	// user u has tweets u and u+10: count=2, sum=2u+10, min=u, max=u+10, avg=u+5
	for i := 0; i < out.Len(); i++ {
		u := out.Get(i, "user_id").Int()
		if out.Get(i, "cnt").Int() != 2 {
			t.Errorf("cnt = %v", out.Row(i))
		}
		if out.Get(i, "s").Float() != float64(2*u+10) {
			t.Errorf("sum = %v", out.Row(i))
		}
		if out.Get(i, "lo").Int() != u || out.Get(i, "hi").Int() != u+10 {
			t.Errorf("min/max = %v", out.Row(i))
		}
		if out.Get(i, "av").Float() != float64(u+5) {
			t.Errorf("avg = %v", out.Row(i))
		}
	}
}

func TestRewrittenPlanOverViewIsCheaper(t *testing.T) {
	// The core economics of the paper: a plan reading a small materialized
	// view must be estimated (and simulated) cheaper than recomputing from
	// the raw log.
	f := newFixture(t, 2000)
	w, err := f.opt.Compile(winersPlan())
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := f.opt.Executable(w, "orig_result")
	if err != nil {
		t.Fatal(err)
	}
	orig, err := runJobs(f.eng, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// register the agg view in the catalog as the system would
	aggNode := w.Nodes[0]
	ds, _ := f.store.Meta(aggNode.ViewName)
	f.cat.RegisterView(meta.TableInfo{Name: aggNode.ViewName, Cols: aggNode.OutCols, Ann: aggNode.Ann,
		Stats: cost.Stats{Rows: ds.Rows(), Bytes: ds.SizeBytes}, PlanFP: aggNode.PlanFP}, f.cat.Epoch())

	// rewritten query: filter over the view
	rw := plan.Filter(plan.Scan(aggNode.ViewName), expr.NewCmp("total", expr.Gt, value.NewFloat(1)))
	w2, err := f.opt.Compile(rw)
	if err != nil {
		t.Fatal(err)
	}
	if w2.TotalCost() >= w.TotalCost() {
		t.Errorf("estimated: rewrite %g >= original %g", w2.TotalCost(), w.TotalCost())
	}
	jobs2, err := f.opt.Executable(w2, "rewr_result")
	if err != nil {
		t.Fatal(err)
	}
	rewr, err := runJobs(f.eng, jobs2)
	if err != nil {
		t.Fatal(err)
	}
	if totalSim(rewr) >= totalSim(orig) {
		t.Errorf("simulated: rewrite %g >= original %g", totalSim(rewr), totalSim(orig))
	}
	// identical results
	a, _ := f.store.Read("orig_result")
	b, _ := f.store.Read("rewr_result")
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("rewritten result differs from original")
	}
}

func TestExplodingUDFExecution(t *testing.T) {
	f := newFixture(t, 10)
	registerTokenize(t, f)
	p := plan.GroupAgg(
		plan.Apply(plan.Scan("twtr"), "UDF_TOKENIZE", []string{"text"}),
		[]string{"word"}, plan.AggSpec{Func: plan.AggCount, As: "n"})
	w, err := f.opt.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := f.opt.Executable(w, "wc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runJobs(f.eng, jobs); err != nil {
		t.Fatal(err)
	}
	out, _ := f.store.Read("wc")
	counts := map[string]int64{}
	for i := 0; i < out.Len(); i++ {
		counts[out.Get(i, "word").Str()] = out.Get(i, "n").Int()
	}
	// 10 rows cycle 5 texts twice: "wine" appears 1+1+3=5 per cycle -> 10
	if counts["wine"] != 10 {
		t.Errorf("count[wine] = %d, want 10", counts["wine"])
	}
	if counts["coffee"] != 2 {
		t.Errorf("count[coffee] = %d, want 2", counts["coffee"])
	}
}

func TestEstimatorHeuristics(t *testing.T) {
	f := newFixture(t, 1000)
	e := newEstimator(f.cat, nil)
	scan := plan.Scan("twtr")
	filt := plan.Filter(scan, expr.NewCmp("user_id", expr.Eq, value.NewInt(1)))
	if err := plan.Annotate(filt, f.cat); err != nil {
		t.Fatal(err)
	}
	sScan := e.stats(scan)
	sFilt := e.stats(filt)
	if sFilt.Rows >= sScan.Rows {
		t.Error("filter did not reduce estimate")
	}
	if got := float64(sFilt.Rows) / float64(sScan.Rows); got < 0.05 || got > 0.2 {
		t.Errorf("eq selectivity applied = %g, want ~0.1", got)
	}
	// group by user_id uses the distinct hint (10)
	g := plan.GroupAgg(plan.Scan("twtr"), []string{"user_id"}, plan.AggSpec{Func: plan.AggCount, As: "n"})
	if err := plan.Annotate(g, f.cat); err != nil {
		t.Fatal(err)
	}
	if got := e.stats(g).Rows; got != 10 {
		t.Errorf("group estimate = %d, want 10", got)
	}
	// global aggregate estimates one row
	glob := plan.GroupAgg(plan.Scan("twtr"), nil, plan.AggSpec{Func: plan.AggCount, As: "n"})
	if err := plan.Annotate(glob, f.cat); err != nil {
		t.Fatal(err)
	}
	if got := e.stats(glob).Rows; got != 1 {
		t.Errorf("global agg estimate = %d, want 1", got)
	}
}

// totalSim sums a job sequence's simulated seconds.
func totalSim(results []*mr.Result) float64 {
	var sum float64
	for _, r := range results {
		sum += r.SimSeconds
	}
	return sum
}
