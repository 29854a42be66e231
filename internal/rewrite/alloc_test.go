package rewrite_test

import (
	"testing"

	"opportune/internal/rewrite"
)

// Measured allocation counts of one BFREWRITE search over the golden probe
// state, plus 5 %: cold is a fresh Rewriter (every single-view template and
// OPTCOST bound built; 1 117), warm a second search over the unchanged
// catalog (all of them served by the cross-query memo; 942).
const (
	bfrColdSearchAllocBudget = 1173
	bfrWarmSearchAllocBudget = 990
)

// TestBFRewriteSearchAllocs: one search over the golden probe state (four
// analysts' v1 views, A1v1 as the probe) allocates no more than its
// measured budget, cold and warm, so a regression in what the search
// builds per candidate — or a memo that stops serving warm searches —
// fails here without a timing test.
func TestBFRewriteSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	s, w := probeState(t, 4)
	views := s.Cat.Views()
	search := func(r *rewrite.Rewriter) {
		s.Opt.ClearEstimates()
		if !r.BFRewrite(w, views).Improved {
			t.Fatal("search found no improving rewrite")
		}
	}
	cold := testing.AllocsPerRun(20, func() { search(rewrite.NewRewriter(s.Cat, s.Opt)) })
	warmRew := rewrite.NewRewriter(s.Cat, s.Opt)
	search(warmRew)
	warm := testing.AllocsPerRun(20, func() { search(warmRew) })
	t.Logf("%.0f allocations per cold search, %.0f per warm search", cold, warm)
	if cold > bfrColdSearchAllocBudget {
		t.Errorf("one cold search allocates %.0f times, budget %d", cold, bfrColdSearchAllocBudget)
	}
	if warm > bfrWarmSearchAllocBudget {
		t.Errorf("one warm search allocates %.0f times, budget %d", warm, bfrWarmSearchAllocBudget)
	}
	if warm >= cold {
		t.Errorf("a warm search allocates %.0f times, a cold one %.0f: the memo serves nothing", warm, cold)
	}
}
