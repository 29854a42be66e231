package rewrite_test

import (
	"reflect"
	"runtime"
	"testing"

	"opportune/internal/hiveql"
	"opportune/internal/obs"
	"opportune/internal/optimizer"
	"opportune/internal/rewrite"
	"opportune/internal/session"
	"opportune/internal/workload"
)

// probeState builds a search state with several analysts' v1 views in the
// system and compiles A1v1 as the probe query — the same state the search
// benchmarks use.
func probeState(t *testing.T, analysts int) (*session.Session, *optimizer.Work) {
	t.Helper()
	s, err := workload.NewSession(workload.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	for a := 2; a <= 1+analysts; a++ {
		if _, err := workload.Exec(s, workload.QueryFor(a, 1), session.ModeOriginal); err != nil {
			t.Fatal(err)
		}
	}
	st, err := hiveql.ParseOne(workload.QueryFor(1, 1).SQL)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.Opt.Compile(st.Plan)
	if err != nil {
		t.Fatal(err)
	}
	return s, w
}

// searchOutcome captures everything the determinism contract covers: the
// winning plan, its cost, the search-effort counters, and every obs counter
// recorded during the search (estimate-cache hits and misses included).
type searchOutcome struct {
	planFP   string
	cost     float64
	counters rewrite.Counters
	obs      map[string]int64
}

func runSearchAt(t *testing.T, pool int) searchOutcome {
	t.Helper()
	s, w := probeState(t, 4)
	reg := obs.NewRegistry()
	s.Instrument(reg)
	s.Opt.ClearEstimates()
	s.Rew.ProbeWorkers = pool
	res := s.Rew.BFRewrite(w, s.Cat.Views())
	if !res.Improved {
		t.Fatalf("pool=%d: search found no improving rewrite", pool)
	}
	return searchOutcome{
		planFP:   res.Plan.Fingerprint(),
		cost:     res.Cost,
		counters: res.Counters,
		obs:      reg.Snapshot().Counters,
	}
}

// TestBFRewriteDeterministicAcrossPoolSizes is the search-plane determinism
// oracle: the parallel candidate probing must produce the same winning
// rewrite, the same cost, the same search-effort counters, and the same
// estimate-cache counters at every worker-pool size — results fold in a
// deterministic order, and forked estimate accesses replay in that order.
func TestBFRewriteDeterministicAcrossPoolSizes(t *testing.T) {
	ref := runSearchAt(t, 1)
	if len(ref.obs) == 0 {
		t.Fatal("reference search recorded no obs counters")
	}
	pools := []int{4, runtime.GOMAXPROCS(0), 0} // 0 resolves to GOMAXPROCS
	for _, p := range pools {
		got := runSearchAt(t, p)
		if got.planFP != ref.planFP {
			t.Errorf("pool=%d: winner differs\n got %s\nwant %s", p, got.planFP, ref.planFP)
		}
		if got.cost != ref.cost {
			t.Errorf("pool=%d: cost %v, want %v", p, got.cost, ref.cost)
		}
		if got.counters != ref.counters {
			t.Errorf("pool=%d: counters %+v, want %+v", p, got.counters, ref.counters)
		}
		if !reflect.DeepEqual(got.obs, ref.obs) {
			t.Errorf("pool=%d: obs counters differ\n got %v\nwant %v", p, got.obs, ref.obs)
		}
	}
}
