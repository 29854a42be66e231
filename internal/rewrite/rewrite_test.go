package rewrite_test

import (
	"strings"
	"testing"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/expr"
	"opportune/internal/plan"
	"opportune/internal/rewrite"
	"opportune/internal/session"
	"opportune/internal/storage"
	"opportune/internal/udf"
	"opportune/internal/value"
)

// newSys builds a session with a tweet log and two UDFs (a per-tuple wine
// scorer and a per-user aggregate).
func newSys(t *testing.T, rows int) *session.Session {
	t.Helper()
	s := session.New(cost.DefaultParams())
	rel := data.NewRelation(data.NewSchema("tweet_id", "user_id", "text"))
	words := []string{"wine is great", "bad day", "good wine good life", "coffee time", "wine wine wine"}
	for i := 0; i < rows; i++ {
		rel.Append(data.Row{
			value.NewInt(int64(i)),
			value.NewInt(int64(i % 7)),
			value.NewStr(words[i%len(words)]),
		})
	}
	s.Store.Put("twtr", storage.Base, rel)
	s.Cat.RegisterBase("twtr", []string{"tweet_id", "user_id", "text"}, "tweet_id",
		cost.Stats{Rows: int64(rows), Bytes: rel.EncodedSize()},
		map[string]int64{"tweet_id": int64(rows), "user_id": 7})

	mustReg(t, s, &udf.Descriptor{
		Name: "UDF_WINE", NArgs: 1, Kind: udf.KindMap, OutNames: []string{"wine_score"},
		Map: func(args, _ []value.V) [][]value.V {
			return [][]value.V{{value.NewFloat(float64(strings.Count(args[0].Str(), "wine")))}}
		},
		TrueScalar: 15,
	})
	mustReg(t, s, &udf.Descriptor{
		Name: "UDF_USER_TOTAL", NArgs: 2, Kind: udf.KindAgg,
		KeyNames: []string{"user_id"}, KeyArgs: []int{0}, OutNames: []string{"total"},
		Reduce: func(_ []value.V, ps [][]value.V, _ []value.V) []value.V {
			var sum float64
			for _, p := range ps {
				sum += p[0].Float()
			}
			return []value.V{value.NewFloat(sum)}
		},
		TrueScalar: 2,
	})
	return s
}

func mustReg(t *testing.T, s *session.Session, d *udf.Descriptor) {
	t.Helper()
	if err := s.Cat.UDFs.Register(d); err != nil {
		t.Fatal(err)
	}
}

// wineQuery builds "per-user wine totals above threshold".
func wineQuery(threshold float64) *plan.Node {
	scored := plan.Apply(plan.Scan("twtr"), "UDF_WINE", []string{"text"})
	agg := plan.Apply(scored, "UDF_USER_TOTAL", []string{"user_id", "wine_score"})
	return plan.Filter(agg, expr.NewCmp("total", expr.Gt, value.NewFloat(threshold)))
}

func fingerprintOf(t *testing.T, s *session.Session, name string) uint64 {
	t.Helper()
	rel, err := s.Store.Read(name)
	if err != nil {
		t.Fatal(err)
	}
	return rel.Fingerprint()
}

func TestIdenticalQueryReusedForFree(t *testing.T) {
	s := newSys(t, 500)
	m1, err := s.Run(wineQuery(1), "q1", session.ModeOriginal)
	if err != nil {
		t.Fatal(err)
	}
	if m1.ExecSeconds <= 0 {
		t.Fatal("original did not execute")
	}
	// Same query again with BFR: the sink target has an identical view.
	m2, err := s.Run(wineQuery(1), "q2", session.ModeBFR)
	if err != nil {
		t.Fatal(err)
	}
	if m2.ExecSeconds != 0 {
		t.Errorf("identical rewrite executed jobs: %+v", m2)
	}
	if m2.ResultName != "q1" {
		t.Errorf("result should be the existing table, got %q", m2.ResultName)
	}
	if m2.Rewrite == nil || !m2.Rewrite.Improved {
		t.Error("rewrite not reported as improved")
	}
}

func TestThresholdChangeRewrite(t *testing.T) {
	// The workload's defining pattern: v2 of a query tightens a threshold.
	s := newSys(t, 1000)
	if _, err := s.Run(wineQuery(1), "q1", session.ModeOriginal); err != nil {
		t.Fatal(err)
	}

	// Ground truth for threshold 5 on a fresh system.
	ref := newSys(t, 1000)
	if _, err := ref.Run(wineQuery(5), "ref", session.ModeOriginal); err != nil {
		t.Fatal(err)
	}
	origTime := func() float64 {
		ref2 := newSys(t, 1000)
		m, err := ref2.Run(wineQuery(5), "r", session.ModeOriginal)
		if err != nil {
			t.Fatal(err)
		}
		return m.ExecSeconds + m.StatsSeconds + m.RewriteSeconds
	}()

	m, err := s.Run(wineQuery(5), "q2", session.ModeBFR)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rewrite == nil || !m.Rewrite.Improved {
		t.Fatal("no rewrite found for threshold change")
	}
	if m.ExecSeconds <= 0 {
		t.Fatal("rewrite should still execute a small filter job")
	}
	if total := m.ExecSeconds + m.StatsSeconds + m.RewriteSeconds; total >= origTime {
		t.Errorf("rewrite (%.3fs) not faster than original (%.3fs)", total, origTime)
	}
	if got, want := fingerprintOf(t, s, "q2"), fingerprintOf(t, ref, "ref"); got != want {
		t.Error("rewritten result differs from ground truth")
	}
	// the rewrite must have read dramatically less data
	if m.DataMovedBytes <= 0 {
		t.Error("no data accounting")
	}
}

func TestRewriteAppliesUDFCompensation(t *testing.T) {
	// A view holding only the projected raw columns; the query needs the
	// full UDF pipeline. The rewrite must re-apply both UDFs to the view.
	s := newSys(t, 800)
	proj := plan.Project(plan.Scan("twtr"), "user_id", "text")
	if _, err := s.Run(proj, "narrow", session.ModeOriginal); err != nil {
		t.Fatal(err)
	}

	// Query over user_id/text only (so the narrow view suffices).
	agg := plan.Apply(plan.Apply(plan.Scan("twtr"), "UDF_WINE", []string{"text"}),
		"UDF_USER_TOTAL", []string{"user_id", "wine_score"})
	m, err := s.Run(agg, "q", session.ModeBFR)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rewrite == nil || !m.Rewrite.Improved {
		t.Fatal("no rewrite found via UDF compensation")
	}
	// result identical to a fresh original run
	ref := newSys(t, 800)
	agg2 := plan.Apply(plan.Apply(plan.Scan("twtr"), "UDF_WINE", []string{"text"}),
		"UDF_USER_TOTAL", []string{"user_id", "wine_score"})
	if _, err := ref.Run(agg2, "ref", session.ModeOriginal); err != nil {
		t.Fatal(err)
	}
	if fingerprintOf(t, s, "q") != fingerprintOf(t, ref, "ref") {
		t.Error("UDF-compensated rewrite produced wrong data")
	}
}

func TestMergedViewRewrite(t *testing.T) {
	// Views: per-user wine totals, and per-user tweet counts. Query: their
	// join. The rewrite must merge the two views.
	s := newSys(t, 600)
	wine := plan.Apply(plan.Apply(plan.Scan("twtr"), "UDF_WINE", []string{"text"}),
		"UDF_USER_TOTAL", []string{"user_id", "wine_score"})
	if _, err := s.Run(wine, "v_wine", session.ModeOriginal); err != nil {
		t.Fatal(err)
	}
	cnt := plan.GroupAgg(plan.Scan("twtr"), []string{"user_id"}, plan.AggSpec{Func: plan.AggCount, As: "n"})
	if _, err := s.Run(cnt, "v_cnt", session.ModeOriginal); err != nil {
		t.Fatal(err)
	}

	mkJoin := func() *plan.Node {
		w := plan.Apply(plan.Apply(plan.Scan("twtr"), "UDF_WINE", []string{"text"}),
			"UDF_USER_TOTAL", []string{"user_id", "wine_score"})
		c := plan.GroupAgg(plan.Scan("twtr"), []string{"user_id"}, plan.AggSpec{Func: plan.AggCount, As: "n"})
		return plan.JoinNodes(w, c, "user_id", "user_id")
	}
	m, err := s.Run(mkJoin(), "q", session.ModeBFR)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rewrite == nil || !m.Rewrite.Improved {
		t.Fatal("no merged rewrite found")
	}
	ref := newSys(t, 600)
	wref := plan.Apply(plan.Apply(plan.Scan("twtr"), "UDF_WINE", []string{"text"}),
		"UDF_USER_TOTAL", []string{"user_id", "wine_score"})
	cref := plan.GroupAgg(plan.Scan("twtr"), []string{"user_id"}, plan.AggSpec{Func: plan.AggCount, As: "n"})
	if _, err := ref.Run(plan.JoinNodes(wref, cref, "user_id", "user_id"), "ref", session.ModeOriginal); err != nil {
		t.Fatal(err)
	}
	if fingerprintOf(t, s, "q") != fingerprintOf(t, ref, "ref") {
		t.Error("merged rewrite produced wrong data")
	}
}

func TestOverFilteredViewNotReused(t *testing.T) {
	// A view filtered more strictly than the query must not be used.
	s := newSys(t, 400)
	if _, err := s.Run(wineQuery(10), "strict", session.ModeOriginal); err != nil {
		t.Fatal(err)
	}
	s.Cat.DropView("v_" + "") // no-op; keep catalog as-is
	// Query with weaker threshold: only views from the shared prefix
	// (pre-filter aggregates) may be reused; the final strict filter view
	// must not satisfy the weaker query.
	m, err := s.Run(wineQuery(2), "weak", session.ModeBFR)
	if err != nil {
		t.Fatal(err)
	}
	ref := newSys(t, 400)
	if _, err := ref.Run(wineQuery(2), "ref", session.ModeOriginal); err != nil {
		t.Fatal(err)
	}
	if fingerprintOf(t, s, m.ResultName) != fingerprintOf(t, ref, "ref") {
		t.Error("over-filtered reuse corrupted results")
	}
}

func TestBFRAndDPFindSameCostAndBFRDoesLessWork(t *testing.T) {
	s := newSys(t, 500)
	if _, err := s.Run(wineQuery(1), "q1", session.ModeOriginal); err != nil {
		t.Fatal(err)
	}
	cnt := plan.GroupAgg(plan.Scan("twtr"), []string{"user_id"}, plan.AggSpec{Func: plan.AggCount, As: "n"})
	if _, err := s.Run(cnt, "q2", session.ModeOriginal); err != nil {
		t.Fatal(err)
	}

	w, err := s.Opt.Compile(wineQuery(3))
	if err != nil {
		t.Fatal(err)
	}
	views := s.Cat.Views()
	bfr := s.Rew.BFRewrite(w, views)
	w2, err := s.Opt.Compile(wineQuery(3))
	if err != nil {
		t.Fatal(err)
	}
	dp := s.Rew.DPRewrite(w2, views)

	if !bfr.Improved || !dp.Improved {
		t.Fatalf("rewrites not found: bfr=%v dp=%v", bfr.Improved, dp.Improved)
	}
	if diff := bfr.Cost - dp.Cost; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("BFR cost %g != DP cost %g", bfr.Cost, dp.Cost)
	}
	if bfr.Counters.CandidatesConsidered > dp.Counters.CandidatesConsidered {
		t.Errorf("BFR considered more candidates (%d) than DP (%d)",
			bfr.Counters.CandidatesConsidered, dp.Counters.CandidatesConsidered)
	}
	if bfr.Counters.RewriteAttempts > dp.Counters.RewriteAttempts {
		t.Errorf("BFR attempted more rewrites (%d) than DP (%d)",
			bfr.Counters.RewriteAttempts, dp.Counters.RewriteAttempts)
	}
}

func TestSyntacticOnlyMatchesIdenticalPlans(t *testing.T) {
	s := newSys(t, 400)
	if _, err := s.Run(wineQuery(1), "q1", session.ModeOriginal); err != nil {
		t.Fatal(err)
	}
	// identical plan: syntactic hit
	w, err := s.Opt.Compile(wineQuery(1))
	if err != nil {
		t.Fatal(err)
	}
	res := s.Rew.SyntacticRewrite(w, s.Cat.Views())
	if !res.Improved {
		t.Error("syntactic missed an identical plan")
	}
	// same semantics, different threshold: syntactic must miss at the sink
	// but still reuse the identical agg prefix.
	w2, err := s.Opt.Compile(wineQuery(5))
	if err != nil {
		t.Fatal(err)
	}
	res2 := s.Rew.SyntacticRewrite(w2, s.Cat.Views())
	w3, err := s.Opt.Compile(wineQuery(5))
	if err != nil {
		t.Fatal(err)
	}
	bfr := s.Rew.BFRewrite(w3, s.Cat.Views())
	if bfr.Cost > res2.Cost+1e-9 {
		t.Errorf("BFR (%g) worse than syntactic (%g); BFR must subsume it", bfr.Cost, res2.Cost)
	}
	// reordered filters: syntactically different, semantically equal
	mk := func(order bool) *plan.Node {
		p := plan.Project(plan.Scan("twtr"), "tweet_id", "user_id")
		a := expr.NewCmp("user_id", expr.Gt, value.NewInt(2))
		b := expr.NewCmp("tweet_id", expr.Gt, value.NewInt(100))
		if order {
			return plan.Filter(plan.Filter(p, a), b)
		}
		return plan.Filter(plan.Filter(p, b), a)
	}
	if _, err := s.Run(mk(true), "fab", session.ModeOriginal); err != nil {
		t.Fatal(err)
	}
	wOrd, err := s.Opt.Compile(mk(false))
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Rew.SyntacticRewrite(wOrd, s.Cat.Views()); res.Improved {
		t.Error("syntactic matched a reordered plan (should not)")
	}
	wOrd2, err := s.Opt.Compile(mk(false))
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Rew.BFRewrite(wOrd2, s.Cat.Views()); !res.Improved {
		t.Error("BFR missed the reordered-filter reuse (the paper's a,b vs b,a case)")
	}
}

func TestOptCostIsLowerBoundOnFoundRewrites(t *testing.T) {
	// Property check on real search states: whenever REWRITEENUM finds a
	// rewrite from a candidate, OPTCOST(candidate) must not exceed its cost.
	s := newSys(t, 500)
	if _, err := s.Run(wineQuery(1), "q1", session.ModeOriginal); err != nil {
		t.Fatal(err)
	}
	w, err := s.Opt.Compile(wineQuery(4))
	if err != nil {
		t.Fatal(err)
	}
	views := s.Cat.Views()
	for _, target := range w.Nodes {
		for _, v := range views {
			c, p, cost := rewrite.ProbeCandidate(s.Rew, target, v)
			if p == nil {
				continue
			}
			if c > cost+1e-9 {
				t.Errorf("target %d view %s: OPTCOST %g > rewrite cost %g",
					target.Index, v.Name, c, cost)
			}
		}
	}
}

func TestTraceMonotone(t *testing.T) {
	s := newSys(t, 500)
	if _, err := s.Run(wineQuery(1), "q1", session.ModeOriginal); err != nil {
		t.Fatal(err)
	}
	w, err := s.Opt.Compile(wineQuery(3))
	if err != nil {
		t.Fatal(err)
	}
	res := s.Rew.BFRewrite(w, s.Cat.Views())
	if len(res.Trace) < 2 {
		t.Fatalf("trace too short: %d", len(res.Trace))
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].BestPlanCost > res.Trace[i-1].BestPlanCost+1e-9 {
			t.Error("best plan cost increased during search")
		}
	}
	last := res.Trace[len(res.Trace)-1]
	if last.BestPlanCost != res.Cost {
		t.Error("final trace event disagrees with result")
	}
}

func TestNoViewsMeansNoRewrite(t *testing.T) {
	s := newSys(t, 100)
	m, err := s.Run(wineQuery(1), "q", session.ModeBFR)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rewrite.Improved {
		t.Error("rewrite claimed with zero views")
	}
	if m.ExecSeconds <= 0 {
		t.Error("query did not run")
	}
}
