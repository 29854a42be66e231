package session_test

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"opportune/internal/data"
	"opportune/internal/hiveql"
	"opportune/internal/session"
	"opportune/internal/storage"
	"opportune/internal/workload"
)

// jobGraph describes the jobs a query compiles to: names, inputs, outputs,
// probes and fusion classification.
func jobGraph(t *testing.T, s *session.Session, sql string) string {
	t.Helper()
	st, err := hiveql.ParseOne(sql)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.Opt.Compile(st.Plan)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := s.Opt.Executable(w, st.Table)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, j := range jobs {
		fmt.Fprintf(&sb, "%s %v -> %s probes %v fused reduce %v est %.9g\n",
			j.Name, j.Inputs, j.Output, j.Probes, j.FusedReduce, w.TotalCost())
	}
	return sb.String()
}

// TestQueriesNeverProbe compiles the 32 workload queries and the 4 ingest
// queries on a session whose tables carry an index on every column, with
// an appended delta registered and marked beside them as AppendRows does,
// and requires the job graphs of a session with neither: queries never
// scan a delta, so none of their joins probes.
func TestQueriesNeverProbe(t *testing.T) {
	sc := workload.SmallScale()
	plain, err := workload.NewSession(sc)
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := workload.NewSession(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range indexed.Store.List(storage.Base) {
		ds, _ := indexed.Store.Meta(name)
		for _, col := range ds.Relation().Schema().Cols() {
			if _, _, err := indexed.Store.Index(ds, col); err != nil {
				t.Fatal(err)
			}
		}
	}
	twtr, ok := indexed.Cat.Table("twtr")
	if !ok {
		t.Fatal("twtr is not in the catalog")
	}
	delta := data.NewRelation(data.NewSchema(twtr.Cols...)).Extend(workload.AppendBatch(sc, 0, 20))
	indexed.Store.Put("~delta~twtr", storage.Base, delta)
	indexed.Cat.RegisterBase("~delta~twtr", twtr.Cols, twtr.KeyCol, twtr.Stats, twtr.Distinct)
	indexed.Cat.MarkDelta("~delta~twtr")

	qs := append(workload.AllQueries(), workload.IngestQueries()...)
	if len(qs) != 36 {
		t.Fatalf("%d queries, want 32 + 4", len(qs))
	}
	for _, q := range qs {
		want, got := jobGraph(t, plain, q.SQL), jobGraph(t, indexed, q.SQL)
		if got != want {
			t.Errorf("%s compiles differently beside indexes and a delta:\n got %s\nwant %s", q.Name, got, want)
		}
		if strings.Contains(got, "probes [{") {
			t.Errorf("%s probes:\n%s", q.Name, got)
		}
	}
}

// TestAppendRowsAllocs pins the bytes one AppendRows of the ingest shape
// allocates — 200 tweets appended to the benchmark-scale log beside the
// four standing ingest views — at the measured value + 5 %: the first
// append, which builds the 4SQ index, and the median of five warm ones.
// Copying the grown log, re-shuffling the 7 000-row 4SQ log to join the
// delta, or building each joined row on the row interpreter allocates far
// more.
func TestAppendRowsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	// Measured: 0.97–1.06 MB for the first append and medians of
	// 0.47–0.52 MB per warm one, the upper ones + 5 %. Before the one-pass
	// index build, the sorted distinct counts, the pooled sample source and
	// the record-sized reduce fan-out: 1.24–1.35 MB and 0.62–0.66 MB (1.07
	// MB warm when the delta join's probe ran on the row interpreter, 4.27
	// MB when each append copied the log and shuffled 4SQ for its delta
	// join).
	const firstBudget, budget = 1_114_000, 550_000
	sc := workload.DefaultScale()
	s, err := workload.NewSession(sc)
	if err != nil {
		t.Fatal(err)
	}
	s.Eng.Workers = 1
	for _, q := range workload.IngestQueries() {
		if _, err := workload.Exec(s, q, session.ModeOriginal); err != nil {
			t.Fatal(err)
		}
	}
	// The first append invalidates the join view, builds the 4SQ index and
	// moves the log into an array with room to grow; the rest are warm.
	epoch := 0
	appendOnce := func() (uint64, *session.AppendReport) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rep, err := s.AppendRows("twtr", workload.AppendBatch(sc, epoch, 200))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		epoch++
		return after.TotalAlloc - before.TotalAlloc, rep
	}
	first, _ := appendOnce()
	t.Logf("bytes allocated by the first append: %d", first)
	if first > firstBudget {
		t.Errorf("the first append allocates %d B, budget %d B", first, firstBudget)
	}
	var got []uint64
	for i := 0; i < 5; i++ {
		n, rep := appendOnce()
		if len(rep.Maintained) != 3 {
			t.Fatalf("maintained %v, invalidated %v: want the three twtr views maintained", rep.Maintained, rep.Reasons)
		}
		got = append(got, n)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	t.Logf("bytes allocated per warm append: %v", got)
	if med := got[len(got)/2]; med > budget {
		t.Errorf("a warm append allocates %d B (median of %v), budget %d B", med, got, budget)
	}
}

// standingIngest is a session holding the four ingest views, installed
// under ModeBFR, after one append. The append invalidates ing_activity's
// result (a projection over a group-by is not maintainable); asked again,
// the statement is a bare scan of the group-by view beneath it, which
// appends maintain, and that plan is in the plan cache. It returns the
// statement and the view it scans.
func standingIngest(tb testing.TB, sc workload.Scale) (*session.Session, workload.Query, string) {
	tb.Helper()
	s, err := workload.NewSession(sc)
	if err != nil {
		tb.Fatal(err)
	}
	s.Eng.Workers = 1
	qs := workload.IngestQueries()
	for _, q := range qs {
		if _, err := workload.Exec(s, q, session.ModeBFR); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := s.AppendRows("twtr", workload.AppendBatch(sc, 0, 200)); err != nil {
		tb.Fatal(err)
	}
	m, err := workload.Exec(s, qs[0], session.ModeBFR)
	if err != nil || m.Jobs != 0 {
		tb.Fatalf("%s asked again: %v, %+v: want a bare scan", qs[0].Name, err, m)
	}
	return s, qs[0], m.ResultName
}

// TestPlanHitAllocs pins the bytes one ask of a standing view's statement
// allocates right after an append maintained the view, at the measured
// value + 5 %. The view still stands under its annotation, so its cached
// bare scan is served and no search runs; re-planning it (compile and
// BFREWRITE over the catalog) allocates several times more.
func TestPlanHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	// Measured: medians of 6 176–6 416 B per ask (parse included), the
	// upper one + 5 %. Re-planning the ask after an append allocates ≈ 23 KB.
	const budget = 6_740
	sc := workload.DefaultScale()
	s, q, view := standingIngest(t, sc)
	var got []uint64
	for epoch := 1; epoch <= 6; epoch++ {
		rep, err := s.AppendRows("twtr", workload.AppendBatch(sc, epoch, 200))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(rep.Maintained, view) {
			t.Fatalf("the append did not maintain %s: %v", view, rep.Reasons)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		m, err := workload.Exec(s, q, session.ModeBFR)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if m.Jobs != 0 || m.ResultName != view {
			t.Fatalf("epoch %d: %s ran %d jobs answering from %s, want a bare scan of %s", epoch, q.Name, m.Jobs, m.ResultName, view)
		}
		got = append(got, after.TotalAlloc-before.TotalAlloc)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	t.Logf("bytes allocated per ask after an append: %v", got)
	if med := got[len(got)/2]; med > budget {
		t.Errorf("asking a standing view after an append allocates %d B (median of %v), budget %d B", med, got, budget)
	}
}

// BenchmarkStandingQuery asks a standing view's statement: hit serves its
// cached bare scan, replan empties the plan cache first and so compiles
// and searches, as every ask after an append did while any catalog change
// emptied the cache. Run with -benchmem for the allocation side.
func BenchmarkStandingQuery(b *testing.B) {
	for _, arm := range []string{"hit", "replan"} {
		b.Run(arm, func(b *testing.B) {
			s, q, _ := standingIngest(b, workload.DefaultScale())
			st, err := hiveql.ParseOne(q.SQL)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for range b.N {
				if arm == "replan" {
					session.ForgetPlans(s)
				}
				if _, err := s.Run(st.Plan, st.Table, session.ModeBFR); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppendSteady times warm appends of the ingest shape: 200 tweets
// appended to the benchmark-scale log beside the four standing ingest views,
// installed under ModeBFR on a session with one worker per CPU, as the
// ingest workload runs them. A session takes ten appends, then a fresh one
// is built. The batches are generated, and each session built and given its
// first append (which builds the 4SQ index), outside the timer. Run with
// -benchmem, or read the reported allocations.
func BenchmarkAppendSteady(b *testing.B) {
	const epochs = 10
	sc := workload.DefaultScale()
	batches := make([][]data.Row, epochs)
	for e := range batches {
		batches[e] = workload.AppendBatch(sc, e, 200)
	}
	b.ReportAllocs()
	var s *session.Session
	for i := range b.N {
		epoch := 1 + i%(epochs-1)
		if epoch == 1 {
			b.StopTimer()
			var err error
			if s, err = workload.NewSession(sc); err != nil {
				b.Fatal(err)
			}
			s.Eng.Workers = runtime.NumCPU()
			for _, q := range workload.IngestQueries() {
				if _, err := workload.Exec(s, q, session.ModeBFR); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := s.AppendRows("twtr", batches[0]); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := s.AppendRows("twtr", batches[epoch]); err != nil {
			b.Fatal(err)
		}
	}
}
