package rewrite_test

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"opportune/internal/afk"
	"opportune/internal/data"
	"opportune/internal/hiveql"
	"opportune/internal/obs"
	"opportune/internal/persist"
	"opportune/internal/plan"
	"opportune/internal/rewrite"
	"opportune/internal/session"
	"opportune/internal/storage"
	"opportune/internal/workload"
)

// benchScript is the workload's 32 queries in analyst-major or
// version-major order.
func benchScript(versionMajor bool) []workload.Query {
	out := workload.AllQueries()
	if versionMajor {
		slices.SortStableFunc(out, func(a, b workload.Query) int { return a.Version - b.Version })
	}
	return out
}

// memoOracle arms the cross-query memo's hit check on s's rewriter: every
// OPTCOST bound the memo serves is recomputed from scratch and must match
// it bit for bit.
func memoOracle(t *testing.T, s *session.Session) (hits func() int) {
	t.Helper()
	failures := 0
	return rewrite.CheckMemoHits(s.Rew, func(format string, args ...any) {
		if failures++; failures <= 5 {
			t.Errorf(format, args...)
		}
	})
}

// planOracle arms the session's plan-cache hit check: every hit must serve
// a bare scan at cost 0, and planning it afresh must choose the same plan,
// result name, cost bits and Improved. OriginalCost and Counters are not
// compared: a hit reports those of the search that stored it, at the
// catalog it ran against.
func planOracle(t *testing.T, s *session.Session) (hits func() int) {
	t.Helper()
	n, failures := 0, 0
	fail := func(format string, args ...any) {
		if failures++; failures <= 5 {
			t.Errorf(format, args...)
		}
	}
	s.CheckPlanHit = func(served, fresh *session.Metrics, err error) {
		n++
		if err != nil {
			fail("%s: planning a hit afresh: %v", served.ResultName, err)
			return
		}
		g, w := served.Rewrite, fresh.Rewrite
		if g.Plan.Kind != plan.KindScan || math.Float64bits(g.Cost) != 0 {
			fail("%s: the plan cache serves %s at cost %v, not a bare scan at cost 0", served.ResultName, g.Plan.Fingerprint(), g.Cost)
		}
		if served.ResultName != fresh.ResultName || served.Mode != fresh.Mode || g.Plan.Fingerprint() != w.Plan.Fingerprint() ||
			math.Float64bits(g.Cost) != math.Float64bits(w.Cost) || g.Improved != w.Improved {
			fail("%s: the plan cache serves %s (cost %v, improved %v); planned afresh: %s (cost %v, improved %v)",
				served.ResultName, g.Plan.Fingerprint(), g.Cost, g.Improved, w.Plan.Fingerprint(), w.Cost, w.Improved)
		}
		if served.RewriteSeconds != 0 {
			fail("%s: a hit reports %v s of search", served.ResultName, served.RewriteSeconds)
		}
	}
	return func() int { return n }
}

// runScript runs the queries under ModeBFR through Run, or through RunBatch
// in batches of batch queries when batch > 0, and requires every answer to
// equal want's, the RewriteOff reference. Each query or batch runs three
// times in a row: the first replay plans bare scans of the views the run
// retained and stores them in the plan cache, the second is served from it.
// It returns the dataset each query's last run answered from.
func runScript(t *testing.T, s *session.Session, qs []workload.Query, batch int, want map[string][]data.Row) map[string]string {
	t.Helper()
	answered := make(map[string]string)
	check := func(q workload.Query, m *session.Metrics) {
		t.Helper()
		answered[q.Name] = m.ResultName
		if got := answer(t, s, m.ResultName); !data.RowsEqual(got, want[q.Name]) {
			t.Errorf("%s: answer differs from RewriteOff (%d rows, want %d)", q.Name, len(got), len(want[q.Name]))
		}
	}
	step := max(batch, 1)
	for i := 0; i < len(qs); i += step {
		chunk := qs[i:min(i+step, len(qs))]
		for range 3 {
			if batch == 0 {
				m, err := workload.Exec(s, chunk[0], session.ModeBFR)
				if err != nil {
					t.Fatal(err)
				}
				check(chunk[0], m)
				continue
			}
			b, err := workload.Batch(chunk, session.ModeBFR)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.RunBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			for j, q := range chunk {
				check(q, res.PerQuery[j])
			}
		}
	}
	return answered
}

// answer is a result dataset's rows in a canonical order, so two runs
// compare as multisets with data.RowsEqual.
func answer(t *testing.T, s *session.Session, name string) []data.Row {
	t.Helper()
	ds, ok := s.Store.Meta(name)
	if !ok {
		t.Fatalf("result %q not in store", name)
	}
	rel := ds.Relation()
	idx := make([]int, rel.Schema().Len())
	for i := range idx {
		idx[i] = i
	}
	rows := slices.Clone(rel.Rows())
	sort.SliceStable(rows, func(a, b int) bool { return data.Key(rows[a], idx) < data.Key(rows[b], idx) })
	return rows
}

// reference is the RewriteOff answer of every workload query on a fresh
// session, after appending rows to twtr when rows is non-nil.
func reference(t *testing.T, rows []data.Row) map[string][]data.Row {
	t.Helper()
	s, err := workload.NewSession(workload.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if rows != nil {
		if _, err := s.AppendRows("twtr", rows); err != nil {
			t.Fatal(err)
		}
	}
	out := make(map[string][]data.Row)
	for _, q := range workload.AllQueries() {
		m, err := workload.Exec(s, q, session.ModeOriginal)
		if err != nil {
			t.Fatal(err)
		}
		out[q.Name] = answer(t, s, m.ResultName)
	}
	return out
}

// oracles arms both hit checks on s — the memo's and the plan cache's — and
// returns checkMemoCurrent over them, and the plan-cache hit count.
func oracles(t *testing.T, s *session.Session) (done func(), planHits func() int) {
	t.Helper()
	hits, planHits := memoOracle(t, s), planOracle(t, s)
	return func() {
		t.Helper()
		if planHits() == 0 {
			t.Error("the plan cache served no hit: the oracle checked nothing")
		}
		checkMemoCurrent(t, s, hits)
		t.Logf("%d plan-cache hits checked", planHits())
	}, planHits
}

// checkMemoCurrent searches once more over the catalog as it now stands
// (the memo prunes at the start of a search) and requires the memo to hold
// exactly the catalog's views, nothing stale, and to have served hits.
func checkMemoCurrent(t *testing.T, s *session.Session, hits func() int) {
	t.Helper()
	st, err := hiveql.ParseOne(workload.QueryFor(1, 1).SQL)
	if err != nil {
		t.Fatal(err)
	}
	s.Opt.ClearEstimates()
	w, err := s.Opt.Compile(st.Plan)
	if err != nil {
		t.Fatal(err)
	}
	views := s.Cat.Views()
	s.Rew.BFRewrite(w, views)
	for _, e := range rewrite.StaleMemoEntries(s.Rew) {
		t.Error("memo: " + e)
	}
	if got := rewrite.MemoViews(s.Rew); got != len(views) {
		t.Errorf("memo holds %d views, the catalog %d", got, len(views))
	}
	if hits() == 0 {
		t.Error("the memo served no bound: the oracle checked nothing")
	}
	t.Logf("%d memo hits checked, %d views", hits(), len(views))
}

// TestCrossQueryMemoOracle runs the workload's script with every memo hit
// and every plan-cache hit recomputed from scratch and every answer
// compared with RewriteOff, on each path a catalog changes under the
// caches: Run and RunBatch in both script orders, AppendRows maintenance,
// DropViews, a view budget that evicts mid-script, a Save/Open round trip,
// re-collected statistics and changed planner settings. After each, the
// memo must hold only current catalog entries.
func TestCrossQueryMemoOracle(t *testing.T) {
	appended := workload.AppendBatch(workload.SmallScale(), 0, 200)
	want, wantAppended := reference(t, nil), reference(t, appended)
	newSess := func(t *testing.T) *session.Session {
		s, err := workload.NewSession(workload.SmallScale())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, tc := range []struct {
		name         string
		versionMajor bool
		batch        int
	}{
		{"run_analyst_major", false, 0},
		{"run_version_major", true, 0},
		{"batch8_analyst_major", false, 8},
		{"batch8_version_major", true, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSess(t)
			done, _ := oracles(t, s)
			runScript(t, s, benchScript(tc.versionMajor), tc.batch, want)
			done()
		})
	}
	t.Run("append_rows", func(t *testing.T) {
		// A query whose cached bare scan reads a dataset the append left
		// listed — maintained, or not reading twtr — is served from the
		// plan cache on every replay after it.
		s := newSess(t)
		done, planHits := oracles(t, s)
		script := benchScript(false)
		answered := runScript(t, s, script, 0, want)
		rep, err := s.AppendRows("twtr", appended)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Maintained) == 0 {
			t.Fatal("the append maintained no view: the memo saw no replaced entry")
		}
		standing := make(map[string]bool)
		for q, name := range answered {
			_, standing[q] = s.Cat.Table(name)
		}
		served := 0
		for _, q := range script {
			before := planHits()
			runScript(t, s, []workload.Query{q}, 0, wantAppended)
			if standing[q.Name] {
				served++
				if got := planHits() - before; got != 3 {
					t.Errorf("%s: %d of 3 replays after the append were plan-cache hits on standing %s", q.Name, got, answered[q.Name])
				}
			}
		}
		if served == 0 {
			t.Fatal("no query answered from a dataset the append left standing: the case checked nothing")
		}
		t.Logf("%d queries answered from a standing dataset", served)
		done()
	})
	t.Run("drop_views", func(t *testing.T) {
		s := newSess(t)
		done, _ := oracles(t, s)
		script := benchScript(false)
		runScript(t, s, script[:len(script)/2], 0, want)
		s.DropViews()
		runScript(t, s, script, 0, want)
		done()
	})
	t.Run("evicting_budget", func(t *testing.T) {
		// A quarter of the script's unlimited view footprint.
		s := newSess(t)
		runScript(t, s, benchScript(false), 0, want)
		budget := s.Store.ViewBytes() / 4
		s = newSess(t)
		reg := obs.NewRegistry()
		s.Instrument(reg)
		s.Store.ViewCapacityBytes = budget
		done, _ := oracles(t, s)
		runScript(t, s, benchScript(false), 0, want)
		evicted := int64(0)
		for k, v := range reg.Snapshot().Counters {
			if strings.HasPrefix(k, "storage_evictions_total") {
				evicted += v
			}
		}
		if evicted == 0 {
			t.Fatal("the budget evicted nothing")
		}
		done()
	})
	t.Run("restats", func(t *testing.T) {
		// Statistics collected again, and nothing else: the plans cached
		// before must not be served after. Only the results stay stored, so
		// each query's original cost is estimated from the bases' statistics.
		s := newSess(t)
		done, _ := oracles(t, s)
		script := benchScript(false)
		runScript(t, s, script, 0, want)
		b, err := workload.Batch(script, session.ModeBFR)
		if err != nil {
			t.Fatal(err)
		}
		results := make(map[string]bool)
		for _, q := range b {
			results[q.ResultName] = true
		}
		for _, v := range s.Cat.Views() {
			if !results[v.Name] {
				s.Store.Delete(v.Name)
				s.Cat.DropView(v.Name)
			}
		}
		runScript(t, s, script, 0, want)
		for i, name := range s.Store.List(storage.Base) {
			if _, err := s.Cat.CollectStats(s.Eng, name, 9000+int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		runScript(t, s, script, 0, want)
		done()
	})
	t.Run("planner_config", func(t *testing.T) {
		// Each setting the search reads, changed between replays of a warm
		// script: a plan searched under one must not be served under another.
		s := newSess(t)
		done, _ := oracles(t, s)
		script := benchScript(false)
		runScript(t, s, script, 0, want)
		r := s.Rew
		// Without OPTCOST's early termination the search reaches merged
		// candidates, so J and k change its counters.
		for _, set := range []func(){
			func() { r.DisableOptCost = true },
			func() { r.MaxViews = 1 },
			func() { r.MaxViews, r.MaxOpRepeat = 4, 1 },
			func() { r.MaxOpRepeat, r.DisableOptCost, r.DisableGuessComplete = 2, false, true },
			func() { r.DisableGuessComplete = false; s.Opt.Params.ReadRate *= 2 },
		} {
			set()
			runScript(t, s, script, 0, want)
		}
		done()
	})
	t.Run("save_open", func(t *testing.T) {
		s := newSess(t)
		script := benchScript(false)
		runScript(t, s, script[:len(script)/2], 0, want)
		dir := t.TempDir()
		if err := persist.Save(s, dir); err != nil {
			t.Fatal(err)
		}
		s2, saved, err := persist.Open(dir, workload.CostParams())
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.RegisterUDFs(s2); err != nil {
			t.Fatal(err)
		}
		saved.ApplyScalars(s2)
		done, _ := oracles(t, s2)
		runScript(t, s2, script, 0, want)
		done()
	})
}

// TestFixOpsMatchesComputeFix: the allocation-free FixOps OPTCOST uses
// agrees with ComputeFix's OpTypes and Empty on every (target, candidate)
// pair of the golden probe state — each target against every single-view
// candidate and every merged candidate the search built.
func TestFixOpsMatchesComputeFix(t *testing.T) {
	s, w := probeState(t, 4)
	s.Opt.ClearEstimates()
	_, search := rewrite.BFRewriteSearch(s.Rew, w, s.Cat.Views())
	var cands []*rewrite.Candidate
	for _, v := range s.Cat.Views() {
		c, err := rewrite.Single(s.Rew, v)
		if err != nil {
			t.Fatal(err)
		}
		cands = append(cands, c)
	}
	merged := 0
	for _, c := range rewrite.MergedTemplates(search) {
		cands = append(cands, c)
		merged++
	}
	if merged == 0 {
		t.Fatal("the search built no merged candidate")
	}
	pairs, empties := 0, 0
	for _, q := range w.Nodes {
		for _, c := range cands {
			ops, empty := afk.FixOps(q.Ann, c.Ann)
			fix := afk.ComputeFix(q.Ann, c.Ann)
			if !slices.Equal(ops, fix.OpTypes()) || empty != fix.Empty() {
				t.Errorf("%s for %s: FixOps = %v, %v; ComputeFix = %v, %v",
					c.Key(), q.ViewName, ops, empty, fix.OpTypes(), fix.Empty())
			}
			pairs++
			if empty {
				empties++
			}
		}
	}
	if empties == 0 || empties == pairs {
		t.Errorf("%d of %d pairs have an empty fix: the oracle misses a branch", empties, pairs)
	}
	t.Logf("%d pairs, %d with an empty fix", pairs, empties)
}

// TestAblationThroughWarmMemo: the memo stores bounds un-ablated, so
// toggling DisableOptCost on a live Rewriter (as -exp ablation does) gives
// exactly the search a fresh Rewriter with the same switch gives, in both
// directions.
func TestAblationThroughWarmMemo(t *testing.T) {
	s, w := probeState(t, 4)
	views := s.Cat.Views()
	type outcome struct {
		plan     string
		costBits uint64
		counters rewrite.Counters
	}
	search := func(r *rewrite.Rewriter, disable bool) outcome {
		r.DisableOptCost = disable
		s.Opt.ClearEstimates()
		res := r.BFRewrite(w, views)
		return outcome{res.Plan.Fingerprint(), math.Float64bits(res.Cost), res.Counters}
	}
	live := rewrite.NewRewriter(s.Cat, s.Opt)
	for _, disable := range []bool{true, false, true, false} {
		got, want := search(live, disable), search(rewrite.NewRewriter(s.Cat, s.Opt), disable)
		if got != want {
			t.Errorf("DisableOptCost=%v through the live memo: %+v, fresh: %+v", disable, got, want)
		}
	}
	if full, ablated := search(live, false), search(live, true); full.counters == ablated.counters {
		t.Errorf("ablating OPTCOST changed no counter (%+v): the switch is not reaching the search", full.counters)
	}
}
