package session

import (
	"slices"
	"testing"

	"opportune/internal/data"
	"opportune/internal/expr"
	"opportune/internal/obs"
	"opportune/internal/plan"
	"opportune/internal/value"
)

// userAbove is a maintainable map-only view of logs.
func userAbove(th int64) *plan.Node {
	return plan.Filter(plan.Scan("logs"), expr.NewCmp("user", expr.Gt, value.NewInt(th)))
}

// planCacheHits is the session's plan-cache hit counter under ModeBFR.
func planCacheHits(s *Session) int64 {
	return s.Obs.Counter("session_plan_cache_hits_total", "mode", "bfr").Value()
}

// askAgain runs stmt under ModeBFR as name and requires its answer to equal
// a ModeOriginal recompute of stmt, whose result is then dropped so no later
// ask reads it. It returns the metrics and whether the plan came from the
// plan cache.
func askAgain(t *testing.T, s *Session, stmt *plan.Node, name string) (*Metrics, bool) {
	t.Helper()
	before := planCacheHits(s)
	m, err := s.Run(stmt, name, ModeBFR)
	if err != nil {
		t.Fatal(err)
	}
	hit := planCacheHits(s) > before
	got, err := s.Store.Read(m.ResultName)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.Run(stmt, name+"_ref", ModeOriginal)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Store.Read(ref.ResultName)
	if err != nil {
		t.Fatal(err)
	}
	s.Store.Delete(ref.ResultName)
	s.Cat.DropView(ref.ResultName)
	if !data.RowsEqual(sortedRows(got), sortedRows(want)) {
		t.Errorf("%s answered from %s (hit %v): %d rows differ from a recompute's %d", name, m.ResultName, hit, got.Len(), want.Len())
	}
	return m, hit
}

// TestPlanCacheValidity: a cached bare scan is served while its dataset is
// listed under the annotation it had when the plan was stored, and planned
// afresh otherwise. Each case stands a statement's view, asks it until it
// is a plan-cache hit, changes the catalog and asks it again; every answer
// equals a ModeOriginal recompute.
func TestPlanCacheValidity(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stmt   *plan.Node
		change func(t *testing.T, s *Session)
		hit    bool
	}{
		{"append_maintains", userAbove(1), func(t *testing.T, s *Session) {
			rep, err := s.AppendRows("logs", ivmBatch(1000, 20))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(rep.Maintained, "res") {
				t.Fatalf("the append did not maintain res: %+v", rep)
			}
		}, true},
		{"append_invalidates", q(), func(t *testing.T, s *Session) {
			rep, err := s.AppendRows("logs", ivmBatch(1000, 20))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(rep.Invalidated, "res") {
				t.Fatalf("the append did not invalidate res: %+v", rep)
			}
			for k, p := range s.plans {
				if p.chosen.Dataset == "res" {
					t.Errorf("the cache still holds %v, which reads the invalidated res", k.result)
				}
			}
		}, false},
		{"unrelated_view_retained", userAbove(1), func(t *testing.T, s *Session) {
			if _, err := s.Run(q(), "other", ModeBFR); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"collect_stats", userAbove(1), func(t *testing.T, s *Session) {
			for i, name := range []string{"logs", "res"} {
				if _, err := s.Cat.CollectStats(s.Eng, name, 77+int64(i)); err != nil {
					t.Fatal(err)
				}
			}
		}, true},
		{"drop_views", userAbove(1), func(t *testing.T, s *Session) {
			s.DropViews()
			if len(s.plans) != 0 {
				t.Errorf("DropViews left %d plan-cache entries", len(s.plans))
			}
		}, false},
		{"evicted", userAbove(1), func(t *testing.T, s *Session) {
			// Evicted, then listed again by a retention that lost the race:
			// the hit is caught by plan's Has check.
			info, _ := s.Cat.Table("res")
			s.Store.ViewCapacityBytes = 1
			s.Store.EnforceBudget()
			s.Store.ViewCapacityBytes = 0
			if s.Store.Has("res") || isListed(s, "res") {
				t.Fatal("the eviction left res stored or listed")
			}
			registerAbsent(t, s, info)
		}, false},
		{"max_views", userAbove(1), func(_ *testing.T, s *Session) { s.Rew.MaxViews = 1 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := demo(t, 300)
			s.Instrument(obs.NewRegistry())
			for i := range 3 {
				m, err := s.Run(tc.stmt, "res", ModeBFR)
				if err != nil {
					t.Fatal(err)
				}
				if hit := planCacheHits(s) > 0; hit != (i == 2) || (i > 0) != (m.Jobs == 0) {
					t.Fatalf("run %d: hit %v, %d jobs: the statement did not settle into a cached bare scan", i, hit, m.Jobs)
				}
			}
			tc.change(t, s)
			m, hit := askAgain(t, s, tc.stmt, "res")
			if hit != tc.hit {
				t.Errorf("asked again after the change: hit %v, want %v", hit, tc.hit)
			}
			if tc.name == "evicted" && m.Jobs == 0 {
				t.Error("the evicted view was not re-planned into jobs")
			}
		})
	}
	t.Run("create_table_rerun", func(t *testing.T) {
		// One result name, two predicates, each asked twice in turn: the
		// second ask caches a bare scan of sel, which the other statement's
		// re-run then overwrites under its own annotation.
		s := demo(t, 300)
		s.Instrument(obs.NewRegistry())
		hits := 0
		for range 3 {
			for _, th := range []int64{1, 3} {
				for range 2 {
					if _, hit := askAgain(t, s, userAbove(th), "sel"); hit {
						hits++
					}
				}
			}
		}
		if hits != 0 {
			t.Errorf("%d asks were served a bare scan of sel the other statement had overwritten", hits)
		}
	})
}
