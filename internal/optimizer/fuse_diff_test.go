package optimizer

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"opportune/internal/afk"
	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/expr"
	"opportune/internal/fault"
	"opportune/internal/mr"
	"opportune/internal/obs"
	"opportune/internal/plan"
	"opportune/internal/storage"
	"opportune/internal/udf"
	"opportune/internal/value"
)

// fusionGrid is the parallelism grid of the fusion differential oracle —
// the same W×R points the engine-level oracles use.
var fusionGrid = []struct{ w, r int }{{1, 1}, {1, 3}, {4, 1}, {4, 3}, {8, 1}, {8, 3}}

// fusionChaosPlan scripts deterministic faults against every compiled job
// (empty Job matches all): map panics and stragglers by split index, reduce
// panics and stragglers by key shard, and one read error on the base table.
// The kernels run under it, and their recovery must price exactly as the
// interpreter's.
func fusionChaosPlan() *fault.Plan {
	return &fault.Plan{Seed: 2026, Faults: []fault.Fault{
		{Phase: fault.PhaseMap, Task: 0, Kind: fault.KindPanic, FailAttempts: 2},
		{Phase: fault.PhaseMap, Task: 1, Kind: fault.KindStraggler, Factor: 5},
		{Phase: fault.PhaseReduce, Task: 11, Kind: fault.KindPanic, FailAttempts: 1},
		{Phase: fault.PhaseReduce, Task: 29, Kind: fault.KindStraggler, Factor: 4},
		{Kind: fault.KindReadError, Dataset: "twtr", FailReads: 1},
	}}
}

// fusionWorkload covers every boundary kind and every fusable predicate and
// stage shape: a 3-stage map-only chain, a string-compare filter, an
// attribute-equality filter, group-agg over an opaque-filtered UDF chain, a
// join with chains on both sides, an aggregate UDF, a sort, an
// exploding-UDF word count (an explode segment into the cross kernel), one
// grouped by the exploded rows' parent columns, and the delta joins of
// probeShapes.
func fusionWorkload() []*plan.Node {
	scored := func() *plan.Node { return plan.Apply(plan.Scan("twtr"), "UDF_WINE_SCORE", []string{"text"}) }
	ws := []*plan.Node{
		plan.Project(plan.Filter(scored(), expr.NewCmp("wine_score", expr.Gt, value.NewFloat(0))),
			"tweet_id", "user_id", "wine_score"),
		plan.Project(plan.Filter(plan.Scan("twtr"), expr.NewCmp("text", expr.Gt, value.NewStr("bad day"))),
			"tweet_id", "text"),
		plan.Filter(plan.Scan("twtr"), expr.NewAttrEq("tweet_id", "user_id")),
		plan.GroupAgg(plan.Filter(scored(), expr.NewOpaque("fz_has_wine", "text")), []string{"user_id"},
			plan.AggSpec{Func: plan.AggSum, Col: "wine_score", As: "s"},
			plan.AggSpec{Func: plan.AggCount, As: "n"},
			plan.AggSpec{Func: plan.AggAvg, Col: "wine_score", As: "m"}),
		plan.JoinNodes(
			plan.GroupAgg(plan.Scan("twtr"), []string{"user_id"}, plan.AggSpec{Func: plan.AggCount, As: "n"}),
			plan.Filter(plan.Scan("prof"), expr.NewCmp("uid", expr.Lt, value.NewInt(8))),
			"user_id", "uid"),
		winersPlan(),
		plan.Sort(scored(), []string{"wine_score", "tweet_id"}, []bool{true, false}, 25),
		plan.GroupAgg(plan.Apply(plan.Scan("twtr"), "UDF_TOKENIZE", []string{"text"}),
			[]string{"word"}, plan.AggSpec{Func: plan.AggCount, As: "n"}),
		// Keyed above the explode segment: a tweet's words share its key,
		// which the cross kernel reuses instead of encoding it per word.
		plan.GroupAgg(plan.Apply(plan.Scan("twtr"), "UDF_TOKENIZE", []string{"text"}),
			[]string{"tweet_id", "user_id"}, plan.AggSpec{Func: plan.AggCount, As: "n"},
			plan.AggSpec{Func: plan.AggMin, Col: "word", As: "lo"}),
		// Partition-local grouped aggregation on a bare scan: the layout on
		// twtr(user_id) makes the boundary local, so the cross kernel runs
		// over the identity program — no map operators at all.
		plan.GroupAgg(plan.Scan("twtr"), []string{"user_id"},
			plan.AggSpec{Func: plan.AggCount, As: "n"},
			plan.AggSpec{Func: plan.AggMin, Col: "text", As: "lo"},
			plan.AggSpec{Func: plan.AggMax, Col: "tweet_id", As: "hi"}),
		// Partition-local fused chain through the boundary: the UDF+filter
		// chain preserves the layout and the agg kernel folds the surviving
		// selection directly (scan→filter→group→finalize in one pass).
		plan.GroupAgg(plan.Filter(scored(), expr.NewCmp("wine_score", expr.Ge, value.NewFloat(0))),
			[]string{"user_id"},
			plan.AggSpec{Func: plan.AggSum, Col: "wine_score", As: "s"},
			plan.AggSpec{Func: plan.AggAvg, Col: "tweet_id", As: "m"},
			plan.AggSpec{Func: plan.AggMin, Col: "wine_score", As: "lo"}),
	}
	ws = append(ws, probeShapes()...)
	return append(ws,
		// NULL inputs (the nums table, nullsQueries): through the cross
		// kernel partition-local on g, bare and filtered, and non-local on
		// h, bare and behind an exploding UDF. Every one reduces on the
		// kernel.
		plan.GroupAgg(plan.Scan("nums"), []string{"g"}, nullAggs()...),
		plan.GroupAgg(plan.Filter(plan.Scan("nums"), expr.NewCmp("id", expr.Ge, value.NewInt(40))), []string{"g"}, nullAggs()...),
		plan.GroupAgg(plan.Scan("nums"), []string{"h"}, nullAggs()...),
		plan.GroupAgg(plan.Apply(plan.Scan("nums"), "UDF_PAIRS", []string{"id"}), []string{"h"}, nullAggs()...),
	)
}

// nullsQueries is how many queries at the end of fusionWorkload aggregate
// nums, each grouping by h or g and computing nullAggs; all run the cross
// kernel.
const nullsQueries = 4

// probeShapes are delta joins compiled as index probes, over withDelta's
// five-row ~delta~users (a repeated, a null and an unmatched uid) and
// putBigDelta's 150-row ~delta~big (three map splits at 64 rows): the delta
// on either side, a renamed key, a filter and a map UDF on the indexed
// side, a UDF on the delta before the probe, two probes deep, a map-only
// join at the root, aggregates that read indexed-side columns, and one
// keyed on the probing side alone.
func probeShapes() []*plan.Node {
	scan := plan.Scan
	count := plan.AggSpec{Func: plan.AggCount, As: "n"}
	return []*plan.Node{
		plan.GroupAgg(plan.JoinNodes(scan("~delta~big"), scan("twtr"), "uid", "user_id"), []string{"name"}, count,
			plan.AggSpec{Func: plan.AggSum, Col: "tweet_id", As: "s"},
			plan.AggSpec{Func: plan.AggMax, Col: "text", As: "hi"}),
		plan.GroupAgg(plan.JoinNodes(scan("twtr"), scan("~delta~users"), "user_id", "uid"), []string{"name"}, count,
			plan.AggSpec{Func: plan.AggMin, Col: "tweet_id", As: "lo"}),
		// Keyed on the probing side only: a probing row's matches share
		// its key, which the cross kernel reuses.
		plan.GroupAgg(plan.JoinNodes(scan("~delta~big"), scan("twtr"), "uid", "user_id"), []string{"uid", "name"},
			plan.AggSpec{Func: plan.AggMin, Col: "text", As: "lo"},
			plan.AggSpec{Func: plan.AggSum, Col: "tweet_id", As: "s"}),
		plan.GroupAgg(plan.JoinNodes(scan("~delta~users"),
			plan.ProjectAs(scan("twtr"), []string{"tweet_id", "user_id"}, []string{"tweet_id", "poster"}), "uid", "poster"),
			[]string{"name"}, count),
		plan.GroupAgg(plan.JoinNodes(scan("~delta~big"),
			plan.Filter(plan.Apply(scan("twtr"), "UDF_WINE_SCORE", []string{"text"}), expr.NewCmp("wine_score", expr.Gt, value.NewFloat(0))),
			"uid", "user_id"), []string{"name"},
			plan.AggSpec{Func: plan.AggAvg, Col: "wine_score", As: "m"},
			plan.AggSpec{Func: plan.AggSum, Col: "wine_score", As: "s"}),
		plan.GroupAgg(plan.JoinNodes(plan.JoinNodes(plan.Apply(scan("~delta~big"), "BUCKET", []string{"uid"}), scan("twtr"), "uid", "user_id"),
			plan.ProjectAs(scan("users"), []string{"uid", "name"}, []string{"uid2", "name2"}), "uid", "uid2"),
			[]string{"bucket", "name2"}, count, plan.AggSpec{Func: plan.AggSum, Col: "tweet_id", As: "s"}),
		plan.Filter(plan.JoinNodes(scan("~delta~big"),
			plan.Filter(scan("twtr"), expr.NewCmp("tweet_id", expr.Lt, value.NewInt(150))), "uid", "user_id"),
			expr.NewCmp("name", expr.Ne, value.NewStr("n1"))),
	}
}

// putBigDelta installs ~delta~big(uid, name), marked as a delta: 150 rows,
// uid = i mod 13 (10..12 match no twtr user) and NULL on every seventh
// row, name one of five.
func putBigDelta(f *fixture) {
	rel := data.NewRelation(data.NewSchema("uid", "name"))
	for i := int64(0); i < 150; i++ {
		uid := value.NewInt(i % 13)
		if i%7 == 3 {
			uid = value.NullV
		}
		rel.Append(data.Row{uid, value.NewStr(fmt.Sprintf("n%d", i%5))})
	}
	f.store.Put("~delta~big", storage.Base, rel)
	f.cat.RegisterBase("~delta~big", []string{"uid", "name"}, "", cost.Stats{Rows: 150, Bytes: rel.EncodedSize()}, nil)
	f.cat.MarkDelta("~delta~big")
}

// nullAggs puts every built-in over the nullable column x, beside COUNT(*).
func nullAggs() []plan.AggSpec {
	return []plan.AggSpec{
		{Func: plan.AggCount, Col: "x", As: "n"},
		{Func: plan.AggSum, Col: "x", As: "s"},
		{Func: plan.AggAvg, Col: "x", As: "m"},
		{Func: plan.AggMin, Col: "x", As: "lo"},
		{Func: plan.AggMax, Col: "x", As: "hi"},
		{Func: plan.AggCount, As: "rows"},
	}
}

// putNums installs nums(id, g, h, x): 400 rows, g = id mod 8 (the table's
// hash layout, 4 parts), h = id mod 5, and x a numeric column — Int on odd
// ids, a fractional Float on even ones — that is NULL whenever g < 2 or
// h = 0, and on every seventh row besides. Grouping by either key thus
// yields groups whose x inputs are all NULL beside partly NULL ones.
func putNums(f *fixture) {
	rel := data.NewRelation(data.NewSchema("id", "g", "h", "x"))
	for i := int64(0); i < 400; i++ {
		g, h := i%8, i%5
		x := value.NewFloat(float64(i)*0.37 - 50)
		switch {
		case g < 2 || h == 0 || i%7 == 0:
			x = value.NullV
		case i%2 == 1:
			x = value.NewInt(i - 200)
		}
		rel.Append(data.Row{value.NewInt(i), value.NewInt(g), value.NewInt(h), x})
	}
	f.store.Put("nums", storage.Base, rel)
	f.cat.RegisterBase("nums", []string{"id", "g", "h", "x"}, "id",
		cost.Stats{Rows: 400, Bytes: rel.EncodedSize()}, map[string]int64{"id": 400, "g": 8, "h": 5, "x": 250})
	sig := afk.BaseSig("nums", "g").ID()
	f.cat.SetPartitioning("nums", afk.Partitioning{Sigs: []string{sig}, Parts: 4})
}

// checkNullGroups pins NULL semantics on the nums queries' output rows
// (key, then nullAggs' columns): a group whose x inputs are all NULL has
// COUNT(x) 0, SUM 0, AVG, MIN and MAX NULL, and still counts its rows;
// any other group has a non-NULL AVG, MIN and MAX.
func checkNullGroups(t *testing.T, qi int, rel *data.Relation) {
	t.Helper()
	allNull := 0
	for _, r := range rel.Rows() {
		n, sum, avg, lo, hi, rows := r[1], r[2], r[3], r[4], r[5], r[6]
		if n.Int() == 0 {
			allNull++
			if sum.Float() != 0 || !avg.IsNull() || !lo.IsNull() || !hi.IsNull() || rows.Int() == 0 {
				t.Errorf("query %d: all-NULL group %v: want COUNT 0, SUM 0, AVG/MIN/MAX NULL, rows > 0", qi, r)
			}
		} else if avg.IsNull() || lo.IsNull() || hi.IsNull() || n.Int() >= rows.Int() {
			t.Errorf("query %d: partly NULL group %v: want AVG/MIN/MAX set and COUNT(x) < rows", qi, r)
		}
	}
	if allNull == 0 || allNull == rel.Len() {
		t.Errorf("query %d: %d of %d groups all-NULL, want some but not all", qi, allNull, rel.Len())
	}
}

// fusionOutcome is everything the fusion differential contract covers: per-
// query output relations (fingerprint plus raw rows), per-query annotation
// canonical forms, and the full obs counter maps.
type fusionOutcome struct {
	fps    []uint64
	rels   []*data.Relation
	canons [][]string
	cross  []bool // the query's grouped job ran the cross-boundary kernel
	probes int    // jobs that probe an index
	snap   obs.Snapshot
}

// checkInterpreted fails unless a run of stripped jobs mapped every split
// on the row interpreter (stripKernels' splits tally against the engine's
// FusedBatches: every job's map side is a batch function) and reduced every
// record of its group-aggs on the row fold (the reduceRows tally against
// the engine's FusedReduceRows, which it books to each job stamped
// FusedReduce — a stamp stripping leaves in place).
func checkInterpreted(t testing.TB, results []*mr.Result, tally *interpTally) {
	t.Helper()
	var batches, reduced int64
	for _, r := range results {
		batches += r.FusedBatches
		reduced += r.FusedReduceRows
	}
	if n := tally.splits.Load(); n != batches {
		t.Fatalf("interpreter mapped %d of %d splits", n, batches)
	}
	if n := tally.reduceRows.Load(); n != reduced {
		t.Fatalf("row fold reduced %d of the %d group-agg records", n, reduced)
	}
}

// runArm runs w's compiled jobs as one arm of a fusion oracle: as compiled,
// or — interp — as their interpreter reference (stripKernels), checked to
// have used no kernel.
func runArm(t testing.TB, f *fixture, w *Work, jobs []*mr.Job, interp bool) ([]*mr.Result, error) {
	t.Helper()
	var tally *interpTally
	if interp {
		tally = stripKernels(t, f.opt, w, jobs)
	}
	results, err := runJobs(f.eng, jobs)
	if err == nil && interp {
		checkInterpreted(t, results, tally)
	}
	return results, err
}

// runFusionWorkload compiles and executes the whole workload on one arm.
// interp=true is the interpreter arm (runArm strips the same compiled
// jobs); everything else — store contents, params, parallelism, fault plan
// — is identical across arms, so any output or counter divergence outside
// mr_fused_* is a fusion bug.
func runFusionWorkload(t *testing.T, chaos *fault.Plan, workers, reduceTasks int, interp bool) fusionOutcome {
	t.Helper()
	f := newFixture(t, 1000)
	prof := data.NewRelation(data.NewSchema("uid", "grade"))
	for i := 0; i < 10; i++ {
		prof.Append(data.Row{value.NewInt(int64(i)), value.NewStr(strings.Repeat("A", i%3+1))})
	}
	f.store.Put("prof", storage.Base, prof)
	f.cat.RegisterBase("prof", []string{"uid", "grade"}, "uid",
		cost.Stats{Rows: 10, Bytes: prof.EncodedSize()}, map[string]int64{"uid": 10})
	// Hash layout on twtr(user_id): grouped-by-user_id queries take the
	// partition-local path and their boundaries become cross-fusable.
	sig := afk.BaseSig("twtr", "user_id").ID()
	f.cat.SetPartitioning("twtr", afk.Partitioning{Sigs: []string{sig}, Parts: 8})
	putNums(f)
	withDelta(t, f, true)
	putBigDelta(f)
	registerTokenize(t, f)
	registerPairs(t, f)
	f.opt.Eval.RegisterOpaque("fz_has_wine", func(args []value.V) bool {
		return strings.Contains(args[0].Str(), "wine")
	})
	f.eng.Params.SplitRows = 64 // many map splits per job
	f.eng.Params.ReduceTasks = reduceTasks
	f.eng.Workers = workers
	f.eng.MaxAttempts = 3
	reg := obs.NewRegistry()
	f.eng.Obs = reg
	f.store.SetObs(reg)
	if chaos != nil {
		if err := chaos.Validate(); err != nil {
			t.Fatal(err)
		}
		f.eng.Faults = fault.NewInjector(chaos)
		f.store.SetFaults(f.eng.Faults)
	}

	out := fusionOutcome{}
	for qi, p := range fusionWorkload() {
		w, err := f.opt.Compile(p)
		if err != nil {
			t.Fatalf("query %d: compile: %v", qi, err)
		}
		var canons []string
		for _, jn := range w.Nodes {
			canons = append(canons, jn.Logical.AnnCanon())
		}
		out.canons = append(out.canons, canons)
		name := fmt.Sprintf("fuse_res_%d", qi)
		jobs, err := f.opt.Executable(w, name)
		if err != nil {
			t.Fatalf("query %d: executable: %v", qi, err)
		}
		cross := false
		for _, j := range jobs {
			cross = cross || j.FusedReduce
			if len(j.Probes) > 0 {
				out.probes++
			}
		}
		out.cross = append(out.cross, cross)
		if _, err := runArm(t, f, w, jobs, interp); err != nil {
			t.Fatalf("query %d (interp=%v W=%d R=%d): %v", qi, interp, workers, reduceTasks, err)
		}
		rel, err := f.store.Read(name)
		if err != nil {
			t.Fatalf("query %d: read result: %v", qi, err)
		}
		out.fps = append(out.fps, rel.Fingerprint())
		out.rels = append(out.rels, rel)
	}
	out.snap = reg.Snapshot()
	return out
}

// stripFusedFamily copies an integer counter map without the mr_fused_*
// family — the only counters allowed to differ between arms.
func stripFusedFamily(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		if strings.HasPrefix(k, "mr_fused_") {
			continue
		}
		out[k] = v
	}
	return out
}

// TestFusionDifferentialOracle proves fused execution is invisible
// everywhere except wall-clock and its own counter family. For every point
// of the Workers × ReduceTasks grid, fault-free and under the chaos plan,
// the fused arm must match the interpreter arm (stripKernels) on:
//
//   - every query's output relation, byte-identical (fingerprint and rows);
//   - every compiled job's annotation canonical form;
//   - every integer counter outside mr_fused_* — same volumes, retries,
//     straggler/speculation behavior, partition decisions;
//   - every float counter exactly (fusion changes no pricing at all, so
//     unlike the partition oracle there is no allowed float delta).
//
// Each arm must also be self-consistent across the grid against its own
// serial (W=1,R=1) reference: recovery prices the same at any parallelism.
func TestFusionDifferentialOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan *fault.Plan
	}{
		{name: "fault-free", plan: nil},
		{name: "chaos", plan: fusionChaosPlan()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refFused := runFusionWorkload(t, tc.plan, 1, 1, false)
			refInterp := runFusionWorkload(t, tc.plan, 1, 1, true)
			if len(refFused.fps) == 0 {
				t.Fatal("workload produced no results")
			}
			if tc.plan != nil && refFused.snap.Counters["mr_task_retries_total"] == 0 {
				t.Error("chaos plan injected no task retries on the fused arm")
			}
			// Every job ran on a batch map function, every split of it a
			// batch (metricscheck's invariant: the job counters agree).
			if n := refFused.snap.Counters["mr_fused_batches_total"]; n == 0 {
				t.Error("fused arm ran no fused batches")
			}
			if e, j := refFused.snap.Counters["mr_fused_eligible_total"], refFused.snap.Counters["mr_fused_jobs_total"]; j == 0 || e != j {
				t.Errorf("fusion family: eligible %d, jobs %d; want equal and > 0", e, j)
			}
			if r, in := refFused.snap.Counters["mr_fused_rows_total"], refFused.snap.Counters["mr_input_rows_total"]-refFused.snap.Counters["mr_probe_rows_total"]; r != in {
				t.Errorf("fused arm mapped %d of %d split rows on its kernels", r, in)
			}

			// Reduce-side fusion: grouped jobs fused their combine and reduce
			// phases and partition-local ones crossed the shuffle boundary.
			if n := refFused.snap.Counters["mr_fused_reduce_jobs_total"]; n == 0 {
				t.Error("fused arm compiled no reduce-fused jobs")
			}
			if n := refFused.snap.Counters["mr_fused_reduce_crossboundary_jobs_total"]; n == 0 {
				t.Error("fused arm fused no partition-local job across the boundary")
			}
			if n := refFused.snap.Counters["mr_fused_reduce_batches_total"]; n == 0 {
				t.Error("fused arm ran no fused combine batches")
			}
			// The reduce kernels fold real groups fault-free and under chaos
			// alike: recovery is priced, so the chaos grid below is the
			// kernels' oracle too.
			groups := refFused.snap.Counters["mr_fused_reduce_groups_total"]
			rows := refFused.snap.Counters["mr_fused_reduce_rows_total"]
			if groups == 0 || rows == 0 {
				t.Errorf("fused arm folded groups=%d rows=%d, want both > 0", groups, rows)
			}
			// Delta joins: every probe shape probed on the fused kernel and
			// produced rows.
			nProbes := len(probeShapes())
			if refFused.probes != nProbes || refFused.snap.Counters["mr_probe_rows_total"] == 0 {
				t.Errorf("%d probing jobs matched %d stored rows, want %d jobs and some rows",
					refFused.probes, refFused.snap.Counters["mr_probe_rows_total"], nProbes)
			}
			for qi := len(refFused.rels) - nullsQueries - nProbes; qi < len(refFused.rels)-nullsQueries; qi++ {
				if refFused.rels[qi].Len() == 0 {
					t.Errorf("probe query %d produced no rows; it checks nothing", qi)
				}
			}
			// NULL inputs: the nums queries went through the cross kernel
			// (partition-local or not, the exploding one included), and
			// their all-NULL groups come out as the reference says.
			for i := 0; i < nullsQueries; i++ {
				qi := len(refFused.rels) - nullsQueries + i
				if !refFused.cross[qi] {
					t.Errorf("nums query %d did not run the cross-boundary kernel", qi)
				}
				checkNullGroups(t, qi, refInterp.rels[qi])
			}
			// Reason taxonomy: the wine-score aggregation carries an agg UDF,
			// join/sort jobs have no distributive agg boundary.
			for _, reason := range []string{"agg_udf", "unsupported_op"} {
				if refFused.snap.Counters["mr_fused_reduce_fallback_total{reason="+reason+"}"] == 0 {
					t.Errorf("fused arm missing reduce fallback reason %q", reason)
				}
			}
			// Balance rule for the reduce family on both arms.
			for _, arm := range []fusionOutcome{refFused, refInterp} {
				var fb int64
				for k, v := range arm.snap.Counters {
					if strings.HasPrefix(k, "mr_fused_reduce_fallback_total{") {
						fb += v
					}
				}
				if e, j := arm.snap.Counters["mr_fused_reduce_eligible_total"], arm.snap.Counters["mr_fused_reduce_jobs_total"]; e != j+fb {
					t.Errorf("reduce fusion family does not balance: eligible %d != jobs %d + fallback %d", e, j, fb)
				}
			}

			for _, g := range fusionGrid {
				fused := runFusionWorkload(t, tc.plan, g.w, g.r, false)
				interp := runFusionWorkload(t, tc.plan, g.w, g.r, true)

				// Byte-identity of every query result, across arms and
				// against the serial references.
				if !reflect.DeepEqual(fused.fps, interp.fps) || !reflect.DeepEqual(fused.fps, refFused.fps) {
					t.Errorf("W=%d R=%d: result fingerprints diverge:\nfused  %v\ninterp %v\nref    %v",
						g.w, g.r, fused.fps, interp.fps, refFused.fps)
				}
				for qi := range fused.rels {
					if !fused.rels[qi].Equal(interp.rels[qi]) {
						t.Errorf("W=%d R=%d: query %d: relation rows differ between fused and interpreted arms", g.w, g.r, qi)
					}
				}
				if !reflect.DeepEqual(fused.canons, interp.canons) {
					t.Errorf("W=%d R=%d: annotation canonical forms differ between arms", g.w, g.r)
				}

				// Grid self-consistency: full counter-map equality against
				// the same arm's serial run (fused family included — batch
				// and retry tallies are parallelism-independent).
				if !reflect.DeepEqual(fused.snap.Counters, refFused.snap.Counters) {
					t.Errorf("W=%d R=%d: fused counters differ from serial fused run\n got %v\nwant %v",
						g.w, g.r, fused.snap.Counters, refFused.snap.Counters)
				}
				if !reflect.DeepEqual(fused.snap.FloatCounters, refFused.snap.FloatCounters) {
					t.Errorf("W=%d R=%d: fused float counters differ from serial fused run", g.w, g.r)
				}

				// Cross-arm equality outside mr_fused_*; float counters
				// exactly equal, fusion never reprices anything.
				if got, want := stripFusedFamily(fused.snap.Counters), stripFusedFamily(interp.snap.Counters); !reflect.DeepEqual(got, want) {
					t.Errorf("W=%d R=%d: counters differ beyond the fused family\n got %v\nwant %v", g.w, g.r, got, want)
				}
				if !reflect.DeepEqual(fused.snap.FloatCounters, interp.snap.FloatCounters) {
					t.Errorf("W=%d R=%d: float counters differ between arms\n got %v\nwant %v",
						g.w, g.r, fused.snap.FloatCounters, interp.snap.FloatCounters)
				}
			}
		})
	}
}

// registerTokenize registers UDF_TOKENIZE, an exploding UDF that emits one
// row per word of its text argument.
func registerTokenize(t testing.TB, f *fixture) {
	t.Helper()
	if err := f.cat.UDFs.Register(&udf.Descriptor{
		Name: "UDF_TOKENIZE", NArgs: 1, Kind: udf.KindMap,
		OutNames: []string{"word"}, Explode: true,
		Map: func(args, _ []value.V) [][]value.V {
			var out [][]value.V
			for _, w := range strings.Fields(args[0].Str()) {
				out = append(out, []value.V{value.NewStr(w)})
			}
			return out
		},
		TrueScalar: 3,
	}); err != nil {
		t.Fatal(err)
	}
}

// registerPairs registers UDF_PAIRS, an exploding UDF that emits two rows,
// copy 0 and copy 1, per input.
func registerPairs(t testing.TB, f *fixture) {
	t.Helper()
	if err := f.cat.UDFs.Register(&udf.Descriptor{
		Name: "UDF_PAIRS", NArgs: 1, Kind: udf.KindMap, OutNames: []string{"copy"}, Explode: true,
		Map: func(args, _ []value.V) [][]value.V {
			return [][]value.V{{value.NewInt(0)}, {value.NewInt(1)}}
		},
		TrueScalar: 1,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFusionExplode pins exploding UDFs on the fused kernel: each chain
// below compiles to one job whose map side opens an explode segment, and at
// Workers {1, 4} × ReduceTasks {1, 3} its output is byte-identical to the
// row interpreter's, row tags included, and to the serial run. A group-by
// over an explode runs the cross-boundary kernel.
func TestFusionExplode(t *testing.T) {
	tok := func() *plan.Node { return plan.Apply(plan.Scan("twtr"), "UDF_TOKENIZE", []string{"text"}) }
	plans := map[string]*plan.Node{
		// Tags out: the map-only output carries each emitted row's tag.
		"map-only": plan.Project(plan.Apply(plan.Filter(plan.Scan("twtr"), expr.NewCmp("tweet_id", expr.Ge, value.NewInt(5))),
			"UDF_TOKENIZE", []string{"text"}), "tweet_id", "word", "_udf_tokenize_row"),
		// Two explode segments, a filter on the second's rows, every
		// column (both tags) out.
		"two-explodes": plan.Filter(plan.Apply(tok(), "UDF_PAIRS", []string{"word"}), expr.NewCmp("copy", expr.Eq, value.NewInt(1))),
		// A non-exploding UDF behind an explode writes its buffer in the
		// explode segment's row space.
		"udf-after": plan.Filter(plan.Apply(tok(), "UDF_WINE_SCORE", []string{"word"}), expr.NewCmp("wine_score", expr.Gt, value.NewFloat(0))),
		"group-by": plan.GroupAgg(tok(), []string{"word"}, plan.AggSpec{Func: plan.AggCount, As: "n"},
			plan.AggSpec{Func: plan.AggMax, Col: "_udf_tokenize_row", As: "last"}),
		"sort": plan.Sort(tok(), []string{"_udf_tokenize_row"}, []bool{true}, 40),
	}
	for name, p := range plans {
		t.Run(name, func(t *testing.T) {
			var ref *data.Relation
			for _, w := range []int{1, 4} {
				for _, r := range []int{1, 3} {
					var arms [2]*data.Relation
					for ai, interp := range []bool{false, true} {
						f := newFixture(t, 1000)
						registerTokenize(t, f)
						registerPairs(t, f)
						f.eng.Params.SplitRows = 64
						f.eng.Workers = w
						f.eng.Params.ReduceTasks = r
						wk, err := f.opt.Compile(p)
						if err != nil {
							t.Fatal(err)
						}
						jobs, err := f.opt.Executable(wk, "one_res")
						if err != nil {
							t.Fatal(err)
						}
						if len(jobs) != 1 {
							t.Fatalf("%d jobs, want one", len(jobs))
						}
						if name == "group-by" && !jobs[0].FusedReduce {
							t.Error("group-by over an explode does not run the cross-boundary kernel")
						}
						if _, err := runArm(t, f, wk, jobs, interp); err != nil {
							t.Fatal(err)
						}
						if arms[ai], err = f.store.Read("one_res"); err != nil {
							t.Fatal(err)
						}
					}
					if arms[0].Len() == 0 {
						t.Fatal("the chain produced no rows; it checks nothing")
					}
					if !arms[0].Equal(arms[1]) {
						t.Errorf("W=%d R=%d: fused and interpreted outputs differ", w, r)
					}
					if ref == nil {
						ref = arms[0]
					} else if !arms[0].Equal(ref) {
						t.Errorf("W=%d R=%d: fused output differs from the serial run", w, r)
					}
				}
			}
		})
	}
}

// TestFusionContractViolation pins the one UDF contract on both map paths:
// a UDF that returns two rows without being declared Explode, or a row wider
// or narrower than its declared outputs, fails the job with udf.ErrContract
// — on the fused kernel and on its interpreter reference alike, at any
// parallelism, for a map-only chain and under a grouped boundary. Only the
// "coffee" rows (1 in 5 of the fixture corpus) break it.
func TestFusionContractViolation(t *testing.T) {
	for _, tc := range []struct {
		name string
		outs [][]value.V
	}{
		{"two rows", [][]value.V{{value.NewInt(2)}, {value.NewInt(2)}}},
		{"wide row", [][]value.V{{value.NewInt(2), value.NewInt(3)}}},
		{"short row", [][]value.V{{}}},
	} {
		register := func(f *fixture) {
			if err := f.cat.UDFs.Register(&udf.Descriptor{
				Name: "UDF_VIOLATOR", NArgs: 1, Kind: udf.KindMap, OutNames: []string{"flag"},
				Map: func(args, _ []value.V) [][]value.V {
					if strings.Contains(args[0].Str(), "coffee") {
						return tc.outs
					}
					return [][]value.V{{value.NewInt(1)}}
				},
				TrueScalar: 4,
			}); err != nil {
				t.Fatal(err)
			}
		}
		apply := plan.Apply(plan.Scan("twtr"), "UDF_VIOLATOR", []string{"text"})
		plans := map[string]*plan.Node{
			"map-only": plan.Project(apply, "tweet_id", "flag"),
			"grouped":  plan.GroupAgg(apply, []string{"flag"}, plan.AggSpec{Func: plan.AggCount, As: "n"}),
		}
		for shape, p := range plans {
			for _, workers := range []int{1, 4} {
				for _, interp := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/%s/W%d/interp=%v", tc.name, shape, workers, interp), func(t *testing.T) {
						f := newFixture(t, 1000)
						register(f)
						f.eng.Params.SplitRows = 64
						f.eng.Workers = workers
						w, err := f.opt.Compile(p)
						if err != nil {
							t.Fatal(err)
						}
						jobs, err := f.opt.Executable(w, "one_res")
						if err != nil {
							t.Fatal(err)
						}
						if _, err = runArm(t, f, w, jobs, interp); !errors.Is(err, udf.ErrContract) {
							t.Fatalf("run error %v, want udf.ErrContract", err)
						}
						if _, err := f.store.Read("one_res"); err == nil {
							t.Error("a failed job materialized its output")
						}
					})
				}
			}
		}
	}
}
