package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"opportune/internal/fault"
	"opportune/internal/obs"
	"opportune/internal/session"
	"opportune/internal/workload"
)

// workloadRun is what one execution of a query list left behind: result
// fingerprints by query name, per-query metrics in input order, the counter
// snapshot, and (batch runs only) the batch statistics.
type workloadRun struct {
	fps   map[string]uint64
	ms    []*session.Metrics
	snap  obs.Snapshot
	stats session.BatchStats
}

// diffSession builds a fresh instrumented quick-scale session.
func diffSession(t *testing.T, plan *fault.Plan, workers, reduceTasks int) (*session.Session, *obs.Registry) {
	t.Helper()
	cfg := QuickConfig()
	cfg.Workers = workers
	cfg.ReduceTasks = reduceTasks
	cfg.Obs = obs.NewRegistry()
	cfg.Faults = plan
	s, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, cfg.Obs
}

// seqRef runs the given queries one at a time through Session.Run — the
// oracle.
func seqRef(t *testing.T, queries []workload.Query, plan *fault.Plan) workloadRun {
	t.Helper()
	s, reg := diffSession(t, plan, 0, 0)
	r := workloadRun{fps: make(map[string]uint64)}
	for _, q := range queries {
		m, err := run(s, q, session.ModeOriginal)
		if err != nil {
			t.Fatalf("sequential %s: %v", q.Name, err)
		}
		r.ms = append(r.ms, m)
		r.fps[q.Name] = resultFP(t, s, m.ResultName)
	}
	r.snap = reg.Snapshot()
	return r
}

// batchRun executes the given queries as one RunBatch call at the given
// parallelism.
func batchRun(t *testing.T, queries []workload.Query, plan *fault.Plan, workers, reduceTasks int) workloadRun {
	t.Helper()
	s, reg := diffSession(t, plan, workers, reduceTasks)
	batch, err := workload.Batch(queries, session.ModeOriginal)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunBatch(batch)
	if err != nil {
		t.Fatalf("workers=%d R=%d: %v", workers, reduceTasks, err)
	}
	r := workloadRun{fps: make(map[string]uint64), ms: res.PerQuery, stats: res.Stats}
	for i, q := range queries {
		r.fps[q.Name] = resultFP(t, s, res.PerQuery[i].ResultName)
	}
	r.snap = reg.Snapshot()
	return r
}

// sameMetrics compares two runs' Metrics field by field, but their result
// relations by contents: each session holds its own.
func sameMetrics(a, b *session.Metrics) bool {
	x, y := *a, *b
	x.Result, y.Result = nil, nil
	return x == y && a.Result.Fingerprint() == b.Result.Fingerprint()
}

func resultFP(t *testing.T, s *session.Session, name string) uint64 {
	t.Helper()
	ds, ok := s.Store.Meta(name)
	if !ok {
		t.Fatalf("result %q not in store", name)
	}
	return ds.Relation().Fingerprint()
}

// sessionCounters is the session_* slice of a snapshot: the per-query
// attributed totals, which sharing must not move.
func sessionCounters(snap obs.Snapshot) (map[string]int64, map[string]float64) {
	ints, floats := make(map[string]int64), make(map[string]float64)
	for k, v := range snap.Counters {
		if strings.HasPrefix(k, "session_") {
			ints[k] = v
		}
	}
	for k, v := range snap.FloatCounters {
		if strings.HasPrefix(k, "session_") {
			floats[k] = v
		}
	}
	return ints, floats
}

// checkBatchVsSequential asserts the fault-free contract of a batch run
// against sequential Run over the same queries: byte-identical results,
// identical attributed per-query Metrics, equal session_* counters, and
// engine counters that fall short of sequential's by exactly the savings
// the batch published — every job and every scanned byte is either counted
// as executed or counted as saved, never both and never neither.
func checkBatchVsSequential(t *testing.T, label string, got, ref workloadRun) {
	t.Helper()
	if !reflect.DeepEqual(got.fps, ref.fps) {
		t.Errorf("%s: batch results differ from sequential", label)
	}
	for i := range ref.ms {
		if !sameMetrics(got.ms[i], ref.ms[i]) { // ModeOriginal: Rewrite is nil on both
			t.Errorf("%s: query %d metrics differ:\n batch %+v\n seq   %+v", label, i, got.ms[i], ref.ms[i])
		}
	}
	ints, floats := sessionCounters(got.snap)
	refInts, refFloats := sessionCounters(ref.snap)
	if !reflect.DeepEqual(ints, refInts) || !reflect.DeepEqual(floats, refFloats) {
		t.Errorf("%s: session counters differ:\n batch %v %v\n seq   %v %v", label, ints, floats, refInts, refFloats)
	}
	for _, id := range []struct{ total, saved string }{
		{"mr_jobs_total", "batch_jobs_deduped_total"},
		{"mr_input_bytes_total", "batch_scan_bytes_saved_total"},
	} {
		seq, ran, saved := ref.snap.Counters[id.total], got.snap.Counters[id.total], got.snap.Counters[id.saved]
		if seq-ran != saved {
			t.Errorf("%s: %s sequential %d - batch %d = %d, but %s = %d",
				label, id.total, seq, ran, seq-ran, id.saved, saved)
		}
	}
	// The contract held *while* the batch actually restructured work.
	if got.stats.JobsDeduped == 0 || got.snap.Counters["batch_jobs_deduped_total"] != int64(got.stats.JobsDeduped) {
		t.Errorf("%s: JobsDeduped = %d, batch_jobs_deduped_total = %d",
			label, got.stats.JobsDeduped, got.snap.Counters["batch_jobs_deduped_total"])
	}
	if got.stats.SharedScans == 0 {
		t.Errorf("%s: batch shared no scans", label)
	}
	// And the restructuring pays in simulated time: the batch's physical
	// seconds plus the (unshared) stats jobs sit at least 1.3x below the
	// sequential total.
	seqSim, batchSim := 0.0, got.stats.SimSeconds
	for i, m := range ref.ms {
		seqSim += m.ExecSeconds + m.StatsSeconds + m.RewriteSeconds
		batchSim += got.ms[i].StatsSeconds
	}
	if seqSim < 1.3*batchSim {
		t.Errorf("%s: sequential %.3f sim-s is only %.2fx the batch's %.3f, want >= 1.3x",
			label, seqSim, seqSim/batchSim, batchSim)
	}
}

// TestBatchParityDifferential is the batch executor's differential oracle,
// on the accounting that ships. Fault-free, the entire workload as one
// shared-scan batch must hold checkBatchVsSequential against
// one-query-at-a-time execution at Workers ∈ {1,4,8} × ReduceTasks ∈ {1,3}.
// Under the scripted chaos plan ghosts never read and shared-scan
// secondaries read only on a retry, so faults land on different jobs than
// sequentially and the counters have no sequential counterpart; there the
// results must still be byte-identical to sequential, and per-query
// Metrics and the full (int + float) counter snapshot identical across the
// grid.
func TestBatchParityDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full workload 14 times")
	}
	queries := workload.AllQueries()
	grid := []struct{ w, r int }{{1, 1}, {1, 3}, {4, 1}, {4, 3}, {8, 1}, {8, 3}}
	t.Run("fault-free", func(t *testing.T) {
		ref := seqRef(t, queries, nil)
		for _, g := range grid {
			checkBatchVsSequential(t, fmt.Sprintf("workers=%d R=%d", g.w, g.r),
				batchRun(t, queries, nil, g.w, g.r), ref)
		}
	})
	t.Run("chaos", func(t *testing.T) {
		seq := seqRef(t, queries, chaosPlan())
		var ref workloadRun
		for i, g := range grid {
			got := batchRun(t, queries, chaosPlan(), g.w, g.r)
			if !reflect.DeepEqual(got.fps, seq.fps) {
				t.Errorf("workers=%d R=%d: batch results differ from sequential", g.w, g.r)
			}
			if got.stats.JobsDeduped == 0 || got.stats.SharedScans == 0 {
				t.Errorf("workers=%d R=%d: deduped %d jobs, shared %d scans",
					g.w, g.r, got.stats.JobsDeduped, got.stats.SharedScans)
			}
			if i == 0 {
				ref = got
				// The plan actually fired inside the batch.
				if got.snap.Counters["mr_task_retries_total"] <= 0 || got.snap.FloatCounters["mr_wasted_sim_seconds_total"] <= 0 {
					t.Error("chaos batch recorded no retries or wasted seconds — plan did not fire")
				}
				continue
			}
			for qi := range ref.ms {
				if !sameMetrics(got.ms[qi], ref.ms[qi]) {
					t.Errorf("workers=%d R=%d: query %d metrics differ from workers=1 R=1 under chaos", g.w, g.r, qi)
				}
			}
			if !reflect.DeepEqual(got.snap.Counters, ref.snap.Counters) {
				t.Errorf("workers=%d R=%d: counters differ under chaos:\n got %v\nwant %v",
					g.w, g.r, got.snap.Counters, ref.snap.Counters)
			}
			if !reflect.DeepEqual(got.snap.FloatCounters, ref.snap.FloatCounters) {
				t.Errorf("workers=%d R=%d: float counters differ under chaos:\n got %v\nwant %v",
					g.w, g.r, got.snap.FloatCounters, ref.snap.FloatCounters)
			}
		}
	})
}

// TestBatchParityQuick is the always-on slice of the differential: one
// analyst's four query versions, batch (W=4, R=3) vs sequential.
func TestBatchParityQuick(t *testing.T) {
	var queries []workload.Query
	for v := 1; v <= 4; v++ {
		queries = append(queries, workload.QueryFor(1, v))
	}
	checkBatchVsSequential(t, "a1 v1-v4", batchRun(t, queries, nil, 4, 3), seqRef(t, queries, nil))
}

// TestRunBatchRecordsJobSpans: the batch executor runs on the engine the
// session's registry is attached to, so a batch of one analyst's four
// versions records one job span per physically executed job — shared-scan
// consumers each get their own — while the counters, published in rank
// order after the parallel run, stay identical at every Workers ×
// ReduceTasks setting.
func TestRunBatchRecordsJobSpans(t *testing.T) {
	var queries []workload.Query
	for v := 1; v <= 4; v++ {
		queries = append(queries, workload.QueryFor(1, v))
	}
	var ref obs.Snapshot
	for i, g := range []struct{ w, r int }{{1, 1}, {1, 3}, {4, 1}, {4, 3}, {8, 1}, {8, 3}} {
		s, reg := diffSession(t, nil, g.w, g.r)
		batch, err := workload.Batch(queries, session.ModeOriginal)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		jobs := 0
		for _, sp := range reg.Spans() {
			if sp.Phase == "job" {
				jobs++
			}
		}
		if jobs == 0 || jobs != res.Stats.JobsExecuted {
			t.Errorf("workers=%d R=%d: %d job spans, %d jobs executed", g.w, g.r, jobs, res.Stats.JobsExecuted)
		}
		snap := reg.Snapshot()
		if i == 0 {
			ref = snap
			continue
		}
		if !reflect.DeepEqual(snap.Counters, ref.Counters) || !reflect.DeepEqual(snap.FloatCounters, ref.FloatCounters) {
			t.Errorf("workers=%d R=%d: counters differ from workers=1 R=1:\n got %v %v\nwant %v %v",
				g.w, g.r, snap.Counters, snap.FloatCounters, ref.Counters, ref.FloatCounters)
		}
	}
}

// TestBatchDedupExecutesSharedJobOnce is the dedup property test: two
// query versions sharing subexpressions must execute each shared job
// exactly once, the shared views must be visible to both pipelines, and
// the results must match sequential execution.
func TestBatchDedupExecutesSharedJobOnce(t *testing.T) {
	queries := []workload.Query{workload.QueryFor(1, 1), workload.QueryFor(1, 2)}

	// Sequential oracle for results and for the per-query job counts.
	sa, err := newSession(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	refFPs := make(map[string]uint64)
	submitted := 0
	for _, q := range queries {
		m, err := run(sa, q, session.ModeOriginal)
		if err != nil {
			t.Fatal(err)
		}
		submitted += m.Jobs
		refFPs[q.Name] = resultFP(t, sa, m.ResultName)
	}

	cfg := QuickConfig()
	cfg.Obs = obs.NewRegistry()
	sb, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := workload.Batch(queries, session.ModeOriginal)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sb.RunBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.JobsSubmitted != submitted {
		t.Errorf("JobsSubmitted = %d, want %d", st.JobsSubmitted, submitted)
	}
	if st.JobsDeduped == 0 {
		t.Fatal("consecutive query versions share subexpressions, but nothing deduped")
	}
	if st.JobsExecuted != st.JobsSubmitted-st.JobsDeduped {
		t.Errorf("JobsExecuted = %d, want %d", st.JobsExecuted, st.JobsSubmitted-st.JobsDeduped)
	}
	snap := cfg.Obs.Snapshot()
	// mr_jobs_total counts physical executions: each deduped job ran once.
	if got := snap.Counters["mr_jobs_total"]; got != int64(st.JobsExecuted) {
		t.Errorf("mr_jobs_total = %d, want %d physical executions", got, st.JobsExecuted)
	}
	if got := snap.Counters["batch_jobs_deduped_total"]; got != int64(st.JobsDeduped) {
		t.Errorf("batch_jobs_deduped_total = %d, want %d", got, st.JobsDeduped)
	}
	if snap.Counters["batch_scan_bytes_saved_total"] <= 0 {
		t.Error("dedup saved no scan bytes")
	}
	// Both pipelines' results are byte-identical to sequential execution,
	// and the shared materializations are visible as opportunistic views.
	for i, q := range queries {
		if got := resultFP(t, sb, res.PerQuery[i].ResultName); got != refFPs[q.Name] {
			t.Errorf("%s: batch result differs from sequential", q.Name)
		}
	}
	views := 0
	for _, v := range sb.Cat.Views() {
		if sb.Store.Has(v.Name) {
			views++
		}
	}
	if views == 0 {
		t.Error("no opportunistic views retained by the batch")
	}
	// Physical accounting is cheaper than attributed accounting: that is
	// the whole point of sharing.
	if st.SimSeconds >= st.AttributedSimSeconds {
		t.Errorf("physical %g >= attributed %g sim-seconds", st.SimSeconds, st.AttributedSimSeconds)
	}
}
