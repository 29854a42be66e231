package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"opportune/internal/rewrite"
	"opportune/internal/service"
	"opportune/internal/session"
	"opportune/internal/workload"
)

// TestRewriteEquivalence pins every rewrite BFREWRITE picks to the query it
// replaces, on the path a user takes: the workload in analyst-major order
// under ModeBFR through Session.Run on one accumulating catalog must produce
// the result multisets of sequential ModeOriginal execution.
func TestRewriteEquivalence(t *testing.T) {
	queries := workload.AllQueries()
	refFPs := seqRef(t, queries, nil).fps
	t.Run("session_run", func(t *testing.T) {
		s, err := newSession(QuickConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			m, err := run(s, q, session.ModeBFR)
			if err != nil {
				t.Fatal(err)
			}
			if resultFP(t, s, m.ResultName) != refFPs[q.Name] {
				t.Errorf("%s: rewritten result differs from the original query's", q.Name)
			}
		}
	})
}

// TestBatchRewriteEquivalence pins rewritten batches to the queries they
// replace: the workload in analyst-major order on one accumulating catalog,
// in batches of 8 under ModeBFR, through Session.RunBatch and through the
// service, must produce the same result multisets as sequential
// ModeOriginal execution.
func TestBatchRewriteEquivalence(t *testing.T) {
	const batchSize = 8
	queries := workload.AllQueries()
	refFPs := seqRef(t, queries, nil).fps

	check := func(t *testing.T, got map[string]uint64, improved int) {
		t.Helper()
		for _, q := range queries {
			if got[q.Name] != refFPs[q.Name] {
				t.Errorf("%s: rewritten batch result differs from the original query's", q.Name)
			}
		}
		if improved == 0 {
			t.Error("no query of any batch was rewritten")
		}
	}

	t.Run("session", func(t *testing.T) {
		s, err := newSession(QuickConfig())
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]uint64)
		improved := 0
		for i := 0; i < len(queries); i += batchSize {
			chunk := queries[i : i+batchSize]
			batch, err := workload.Batch(chunk, session.ModeBFR)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.RunBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			for j, q := range chunk {
				m := res.PerQuery[j]
				got[q.Name] = resultFP(t, s, m.ResultName)
				if m.Rewrite.Improved {
					improved++
				}
			}
		}
		check(t, got, improved)
	})

	t.Run("service", func(t *testing.T) {
		s, err := newSession(QuickConfig())
		if err != nil {
			t.Fatal(err)
		}
		// One tenant: FIFO intake cuts the script into in-order batches.
		svc := service.New(s, service.Config{BatchSize: batchSize, MaxWait: 10 * time.Second, Mode: session.ModeBFR})
		tickets := make([]*service.Ticket, len(queries))
		for i, q := range queries {
			if tickets[i], err = svc.Submit("analyst", q.SQL); err != nil {
				t.Fatal(err)
			}
		}
		svc.Close()
		got := make(map[string]uint64)
		improved := 0
		for i, q := range queries {
			resp := tickets[i].Wait()
			if resp.Err != nil {
				t.Fatalf("%s: %v", q.Name, resp.Err)
			}
			got[q.Name] = resultFP(t, s, resp.Metrics.ResultName)
			if resp.Metrics.Rewrite.Improved {
				improved++
			}
		}
		check(t, got, improved)
	})
}

// TestWorkloadSearchGolden pins the search's decisions on the path a user
// takes: the workload in analyst-major order under ModeBFR through
// Session.Run on one accumulating catalog must reproduce, byte for byte,
// testdata/search_golden.json — per query the chosen plan, its cost (IEEE
// bits) and the search-effort counters, and at the end the estimate-cache
// totals.
func TestWorkloadSearchGolden(t *testing.T) {
	type decision struct {
		Query    string           `json:"query"`
		PlanFP   string           `json:"plan_fp"`
		CostBits uint64           `json:"cost_bits"`
		Counters rewrite.Counters `json:"counters"`
	}
	var got struct {
		Queries       []decision       `json:"queries"`
		EstimateCache map[string]int64 `json:"estimate_cache"`
	}
	s, reg := diffSession(t, nil, 0, 0)
	for _, q := range workload.AllQueries() {
		m, err := run(s, q, session.ModeBFR)
		if err != nil {
			t.Fatal(err)
		}
		got.Queries = append(got.Queries, decision{
			Query:    q.Name,
			PlanFP:   m.Rewrite.Plan.Fingerprint(),
			CostBits: math.Float64bits(m.Rewrite.Cost),
			Counters: m.Rewrite.Counters,
		})
	}
	got.EstimateCache = make(map[string]int64)
	for k, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(k, "optimizer_estimate_cache_") {
			got.EstimateCache[k] = v
		}
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
