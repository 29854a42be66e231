package rewrite_test

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
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
// winning plan, its cost (as IEEE bits), the search-effort counters, and
// every obs counter recorded during the search (estimate-cache hits and
// misses included).
type searchOutcome struct {
	PlanFP   string           `json:"plan_fp"`
	CostBits uint64           `json:"cost_bits"`
	Counters rewrite.Counters `json:"counters"`
	Obs      map[string]int64 `json:"obs"`
}

func runSearch(t *testing.T) searchOutcome {
	t.Helper()
	s, w := probeState(t, 4)
	reg := obs.NewRegistry()
	s.Instrument(reg)
	s.Opt.ClearEstimates()
	res := s.Rew.BFRewrite(w, s.Cat.Views())
	if !res.Improved {
		t.Fatal("search found no improving rewrite")
	}
	return searchOutcome{
		PlanFP:   res.Plan.Fingerprint(),
		CostBits: math.Float64bits(res.Cost),
		Counters: res.Counters,
		Obs:      reg.Snapshot().Counters,
	}
}

// TestBFRewriteSearchGolden is the search-plane determinism oracle: one
// BFREWRITE search must reproduce, byte for byte, the winner, cost,
// search-effort counters and estimate-cache counters recorded in
// testdata/search_golden.json.
func TestBFRewriteSearchGolden(t *testing.T) {
	got := runSearch(t)
	if len(got.Obs) == 0 {
		t.Fatal("search recorded no obs counters")
	}
	checkGolden(t, "testdata/search_golden.json", got)
}

// checkGolden compares v's indented JSON with the golden file. A missing
// file is written from this run and the test fails, so a golden is only
// ever (re)based by deleting it and reviewing what comes back.
func checkGolden(t *testing.T, path string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: wrote it from this run; review and commit it", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("search diverged from %s\n got %s\nwant %s", path, got, want)
	}
}
