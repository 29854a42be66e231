package session_test

import (
	"fmt"
	"runtime"
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
		fmt.Fprintf(&sb, "%s %v -> %s probes %v fused %v/%q est %.9g\n",
			j.Name, j.Inputs, j.Output, j.Probes, j.Fused, j.FuseFallback, w.TotalCost())
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
			if _, _, err := indexed.Store.Index(name, col); err != nil {
				t.Fatal(err)
			}
		}
	}
	twtr := indexed.Cat.MustTable("twtr")
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

// TestAppendRowsAllocs pins the bytes one warm AppendRows of the ingest
// shape allocates — 200 tweets appended to the benchmark-scale log beside
// the four standing ingest views — at the measured value + 5 %. Copying the
// grown log, re-shuffling the 7 000-row 4SQ log to join the delta, or
// building each joined row on the row interpreter allocates far more.
func TestAppendRowsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	// Measured: medians of 0.66–0.73 MB per warm append (1.07 MB when the
	// delta join's probe ran on the row interpreter, 4.27 MB when each
	// append copied the log and shuffled 4SQ for its delta join), the upper
	// one + 5 %.
	const budget = 768_000
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
	// Warm: the first append invalidates the join view, builds the 4SQ
	// index and moves the log into an array with room to grow.
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
	appendOnce()
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
