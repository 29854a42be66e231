package rewrite_test

import "testing"

// bfrSearchAllocBudget is the measured allocation count of one BFREWRITE
// search over the golden probe state (1 705), plus 5 %.
const bfrSearchAllocBudget = 1790

// TestBFRewriteSearchAllocs: one search over the golden probe state (four
// analysts' v1 views, A1v1 as the probe) allocates no more than its
// measured budget, so a regression in what the search builds per candidate
// fails here without a timing test.
func TestBFRewriteSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	s, w := probeState(t, 4)
	views := s.Cat.Views()
	got := testing.AllocsPerRun(20, func() {
		s.Opt.ClearEstimates()
		if !s.Rew.BFRewrite(w, views).Improved {
			t.Fatal("search found no improving rewrite")
		}
	})
	t.Logf("%.0f allocations per search", got)
	if got > bfrSearchAllocBudget {
		t.Errorf("one search allocates %.0f times, budget %d", got, bfrSearchAllocBudget)
	}
}
