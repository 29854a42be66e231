package optimizer

import (
	"math"
	"testing"

	"opportune/internal/afk"
	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/expr"
	"opportune/internal/mr"
	"opportune/internal/obs"
	"opportune/internal/plan"
	"opportune/internal/storage"
	"opportune/internal/value"
)

// runReduceFusionPlan executes one plan on a fresh partitioned fixture
// (twtr hash-distributed on user_id, 8 parts; UDF_TOKENIZE registered) —
// with the fused kernels stripped when interp is set — and returns the
// output rows, the per-job results, and the counter snapshot.
func runReduceFusionPlan(t *testing.T, interp bool, p *plan.Node) ([]data.Row, []*mr.Result, map[string]int64) {
	t.Helper()
	f := newFixture(t, 1000)
	registerTokenize(t, f)
	sig := afk.BaseSig("twtr", "user_id").ID()
	f.cat.SetPartitioning("twtr", afk.Partitioning{Sigs: []string{sig}, Parts: 8})
	f.eng.Params.SplitRows = 64
	f.eng.Params.ReduceTasks = 3
	f.eng.Workers = 4
	reg := obs.NewRegistry()
	f.eng.Obs = reg
	f.store.SetObs(reg)
	w, err := f.opt.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := f.opt.Executable(w, "rf_res")
	if err != nil {
		t.Fatal(err)
	}
	results, err := runArm(t, f, w, jobs, interp)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := f.store.Read("rf_res")
	if err != nil {
		t.Fatal(err)
	}
	return rel.Rows(), results, reg.Snapshot().Counters
}

// groupByUserPlan aggregates twtr by its layout key: partition-local, so
// the full arm fuses scan→group→finalize across the boundary.
func groupByUserPlan() *plan.Node {
	return plan.GroupAgg(plan.Scan("twtr"), []string{"user_id"},
		plan.AggSpec{Func: plan.AggCount, As: "n"},
		plan.AggSpec{Func: plan.AggSum, Col: "tweet_id", As: "s"},
		plan.AggSpec{Func: plan.AggMin, Col: "text", As: "lo"})
}

// TestFusedCombineRowsParity pins combine accounting: it must be
// byte-for-byte identical whether the combine fold ran through the row-fold
// reference or the group-by's compiled map kernel —
// mr_combine_rows_total is an accounting counter, not an execution-strategy
// counter. The filtered group-by empties most splits: a map task that
// emits nothing counts no combined batch, on either arm.
func TestFusedCombineRowsParity(t *testing.T) {
	const kept, splitRows = 200, 64 // runReduceFusionPlan's SplitRows
	for _, tc := range []struct {
		name    string
		plan    *plan.Node
		batches int64 // map tasks that emitted: every split, or the kept rows'
	}{
		{"all_splits", groupByUserPlan(), (1000 + splitRows - 1) / splitRows},
		{"empty_splits", plan.GroupAgg(plan.Filter(plan.Scan("twtr"), expr.NewCmp("tweet_id", expr.Lt, value.NewInt(kept))),
			[]string{"user_id"},
			plan.AggSpec{Func: plan.AggCount, As: "n"},
			plan.AggSpec{Func: plan.AggAvg, Col: "tweet_id", As: "m"}), (kept + splitRows - 1) / splitRows},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rowsFull, resFull, cFull := runReduceFusionPlan(t, false, tc.plan)
			rowsInt, resInt, cInt := runReduceFusionPlan(t, true, tc.plan)

			if !data.RowsEqual(rowsFull, rowsInt) {
				t.Fatalf("output rows differ across arms:\nfull  %v\ninterp %v", rowsFull, rowsInt)
			}
			if cInt["mr_combine_rows_total"] == 0 {
				t.Fatal("workload exercised no combiner")
			}
			for _, name := range []string{"mr_combine_rows_total", "mr_fused_reduce_batches_total", "mr_shuffle_bytes_total"} {
				if cFull[name] != cInt[name] {
					t.Errorf("%s diverges: full=%d interp=%d", name, cFull[name], cInt[name])
				}
			}
			if n := cFull["mr_fused_reduce_batches_total"]; n != tc.batches {
				t.Errorf("%d combined map tasks, want the %d that emitted", n, tc.batches)
			}
			for i := range resInt {
				if resFull[i].CombineRows != resInt[i].CombineRows {
					t.Errorf("job %d CombineRows diverges: full=%d interp=%d",
						i, resFull[i].CombineRows, resInt[i].CombineRows)
				}
			}
			// The full arm really crossed the boundary.
			if cFull["mr_fused_reduce_crossboundary_jobs_total"] == 0 {
				t.Error("full arm did not cross-fuse the group-by")
			}
		})
	}
}

// registerAdversarialFloats installs a base table whose float column is
// built to expose naive summation: alternating huge and tiny magnitudes
// whose compensated sum differs from the naive fold by many ULPs.
func registerAdversarialFloats(f *fixture) []float64 {
	vals := []float64{1e16, 3.14159, -1e16, 2.718281828, 1e-8, -1.0, 0.1, 1e12, -1e12, 7.5}
	rel := data.NewRelation(data.NewSchema("k", "x"))
	xs := make([]float64, 0, 200)
	for i := 0; i < 200; i++ {
		x := vals[i%len(vals)] * float64(1+i/len(vals))
		xs = append(xs, x)
		rel.Append(data.Row{value.NewStr("g"), value.NewFloat(x)})
	}
	f.store.Put("adv", storage.Base, rel)
	f.cat.RegisterBase("adv", []string{"k", "x"}, "k",
		cost.Stats{Rows: 200, Bytes: rel.EncodedSize()}, map[string]int64{"k": 1})
	return xs
}

// TestFusedSumMatchesKahanFold is the fractional-SUM ULP oracle: the fused
// kernels must reproduce the row-fold reference's Neumaier-compensated fold
// bit-for-bit — same per-split partials, same merge order — which an
// explicit value.Kahan replay of the split+combine structure pins exactly.
func TestFusedSumMatchesKahanFold(t *testing.T) {
	const splitRows = 64
	run := func(interp bool) (float64, float64) {
		f := newFixture(t, 10)
		registerAdversarialFloats(f)
		f.eng.Params.SplitRows = splitRows
		f.eng.Params.ReduceTasks = 3
		f.eng.Workers = 4
		p := plan.GroupAgg(plan.Scan("adv"), []string{"k"},
			plan.AggSpec{Func: plan.AggSum, Col: "x", As: "s"},
			plan.AggSpec{Func: plan.AggAvg, Col: "x", As: "m"})
		w, err := f.opt.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := f.opt.Executable(w, "adv_res")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runArm(t, f, w, jobs, interp); err != nil {
			t.Fatal(err)
		}
		rel, err := f.store.Read("adv_res")
		if err != nil {
			t.Fatal(err)
		}
		rows := rel.Rows()
		if len(rows) != 1 {
			t.Fatalf("groups = %d, want 1", len(rows))
		}
		return rows[0][1].Float(), rows[0][2].Float()
	}
	sumF, avgF := run(false)
	sumI, avgI := run(true)
	if math.Float64bits(sumF) != math.Float64bits(sumI) {
		t.Errorf("SUM bits diverge: fused %x (%v) interp %x (%v)",
			math.Float64bits(sumF), sumF, math.Float64bits(sumI), sumI)
	}
	if math.Float64bits(avgF) != math.Float64bits(avgI) {
		t.Errorf("AVG bits diverge: fused %x (%v) interp %x (%v)",
			math.Float64bits(avgF), avgF, math.Float64bits(avgI), avgI)
	}

	// Explicit replay of the execution structure: a Kahan fold per 64-row
	// split, then a Kahan fold over the per-split partial values.
	f := newFixture(t, 10)
	xs := registerAdversarialFloats(f)
	var partials []float64
	for start := 0; start < len(xs); start += splitRows {
		end := start + splitRows
		if end > len(xs) {
			end = len(xs)
		}
		var k value.Kahan
		for _, x := range xs[start:end] {
			k.Add(x)
		}
		partials = append(partials, k.Value())
	}
	var k value.Kahan
	for _, p := range partials {
		k.Add(p)
	}
	want := k.Value()
	if math.Float64bits(sumF) != math.Float64bits(want) {
		t.Errorf("SUM bits diverge from explicit Kahan replay: got %x (%v), want %x (%v)",
			math.Float64bits(sumF), sumF, math.Float64bits(want), want)
	}
	if naive := func() float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s
	}(); math.Float64bits(naive) == math.Float64bits(want) {
		t.Log("adversarial corpus did not separate naive from compensated sum; oracle is vacuous")
	}
}

// TestReduceFusionClassification pins the compile-time reason taxonomy.
func TestReduceFusionClassification(t *testing.T) {
	cases := []struct {
		name   string
		plan   *plan.Node
		fused  bool
		cross  bool
		reason string
	}{
		{"partition_local_cross", groupByUserPlan(), true, true, ""},
		// The cross fold needs no layout match: a single-stream group-by on
		// any key folds on the map side, behind an explode segment too.
		{"nonlocal_group",
			plan.GroupAgg(plan.Scan("twtr"), []string{"text"},
				plan.AggSpec{Func: plan.AggCount, As: "n"}), true, true, ""},
		{"explode_group",
			plan.GroupAgg(plan.Apply(plan.Scan("twtr"), "UDF_TOKENIZE", []string{"text"}), []string{"word"},
				plan.AggSpec{Func: plan.AggCount, As: "n"}), true, true, ""},
		{"agg_udf", winersPlan(), false, false, "agg_udf"},
		{"unsupported_op",
			plan.Sort(plan.Scan("twtr"), []string{"tweet_id"}, []bool{true}, 10), false, false, "unsupported_op"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, c := runReduceFusionPlan(t, false, tc.plan)
			if tc.fused && c["mr_fused_reduce_jobs_total"] == 0 {
				t.Error("expected a reduce-fused job")
			}
			if !tc.fused && c["mr_fused_reduce_jobs_total"] != 0 {
				t.Errorf("unexpected reduce-fused jobs: %d", c["mr_fused_reduce_jobs_total"])
			}
			if tc.cross != (c["mr_fused_reduce_crossboundary_jobs_total"] > 0) {
				t.Errorf("crossboundary = %d, want cross=%v",
					c["mr_fused_reduce_crossboundary_jobs_total"], tc.cross)
			}
			if tc.reason != "" && c["mr_fused_reduce_fallback_total{reason="+tc.reason+"}"] == 0 {
				t.Errorf("reason %q not recorded", tc.reason)
			}
			// Family balance, per plan.
			var fb int64
			for _, r := range mr.FuseReduceFallbackReasons {
				fb += c["mr_fused_reduce_fallback_total{reason="+r+"}"]
			}
			if e, j := c["mr_fused_reduce_eligible_total"], c["mr_fused_reduce_jobs_total"]; e != j+fb {
				t.Errorf("family does not balance: eligible %d != jobs %d + fallback %d", e, j, fb)
			}
		})
	}
}
