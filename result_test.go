package opportune

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"opportune/internal/data"
	"opportune/internal/hiveql"
	"opportune/internal/service"
	"opportune/internal/session"
	"opportune/internal/storage"
	"opportune/internal/value"
)

// TestResultRowsAllocs: converting a stored result into Result.Rows()
// allocates its two backing arrays — the row headers and the cells —
// whatever its row count. The cells here box without allocating (small
// ints, bools, nulls), so the count is the conversion's own.
func TestResultRowsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	rows := make([]data.Row, 1000)
	for i := range rows {
		rows[i] = data.Row{value.NewInt(int64(i % 200)), value.NewBool(i%2 == 0), value.NullV}
	}
	got := testing.AllocsPerRun(20, func() { resultRows(rows) })
	if got > 2 {
		t.Errorf("converting %d rows allocates %.0f times, want 2", len(rows), got)
	}
}

// TestExecResultRowsAppendDoesNotClobber: Rows' rows share one backing
// array, so each must be capped at its own length — an append to one row
// reallocates it and never overwrites the row after it.
func TestExecResultRowsAppendDoesNotClobber(t *testing.T) {
	sys := demoSystem(t)
	r, err := sys.ExecOne(`SELECT id, user FROM logs WHERE id < 10`)
	if err != nil {
		t.Fatal(err)
	}
	rows := r.Rows()
	if len(rows) < 2 {
		t.Fatalf("want at least two rows, got %d", len(rows))
	}
	want := make([][]any, len(rows))
	for i, row := range rows {
		want[i] = append([]any(nil), row...)
	}
	for i := range rows {
		rows[i] = append(rows[i], "appended")
	}
	for i, row := range rows {
		if !reflect.DeepEqual(row[:len(row)-1], want[i]) {
			t.Fatalf("row %d is %v after appending to every row, was %v", i, row, want[i])
		}
	}
}

// TestResultZeroValue: a zero Result is an empty answer, not a crash.
func TestResultZeroValue(t *testing.T) {
	var r Result
	if r.Len() != 0 || r.Rows() != nil {
		t.Errorf("zero Result: Len %d, Rows %v", r.Len(), r.Rows())
	}
}

// TestExecResultSnapshot: a Result reads the rows its statement stored,
// whatever later happens under the stored name — an append that maintains
// the view in place (a map-only view: mr.MergeAppend extends the stored
// rows, sharing their backing array), DropViews, eviction, or a re-run of
// the CREATE TABLE — and the rows Row and Rows hand out are the caller's.
func TestExecResultSnapshot(t *testing.T) {
	const create = `CREATE TABLE sel AS SELECT id, user FROM logs WHERE user = 3`
	appendTo := func(t *testing.T, sys *System, id int) {
		t.Helper()
		rep, err := sys.AppendRows("logs", [][]any{{id, 3, "wine"}})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(rep.Maintained, "sel") {
			t.Fatalf("append did not maintain sel: maintained %v, reasons %v", rep.Maintained, rep.Reasons)
		}
	}
	changes := map[string]func(t *testing.T, sys *System, r *Result){
		"append": func(t *testing.T, sys *System, r *Result) {
			appendTo(t, sys, 1000)
			// A handle on the maintained relation, then an append that
			// extends it into its spare capacity.
			r2, err := sys.ExecOne(`SELECT id, user FROM logs WHERE user = 3`)
			if err != nil {
				t.Fatal(err)
			}
			if r2.Table != "sel" || r2.Len() != r.Len()+1 {
				t.Fatalf("re-asked query answered from %s with %d rows, want sel with %d", r2.Table, r2.Len(), r.Len()+1)
			}
			want2 := r2.Rows()
			appendTo(t, sys, 1001)
			stored, err := sys.s.Store.Read("sel")
			if err != nil {
				t.Fatal(err)
			}
			if stored.Len() != r2.Len()+1 || &stored.Rows()[0] != &r2.rel.Rows()[0] {
				t.Fatal("the second append did not extend sel in place: the case under test did not run")
			}
			if !reflect.DeepEqual(r2.Rows(), want2) {
				t.Errorf("a handle on the maintained view moved after an append that extended it")
			}
		},
		"drop views": func(t *testing.T, sys *System, _ *Result) { sys.DropViews() },
		"evicted": func(t *testing.T, sys *System, _ *Result) {
			if err := sys.SetViewStorageBudget(1, "lru"); err != nil {
				t.Fatal(err)
			}
			// The budget is enforced when the next query ends; enforce it now.
			sys.s.Store.EnforceBudget()
			if sys.s.Store.Has("sel") {
				t.Fatal("a 1-byte budget kept sel")
			}
		},
		"re-exec": func(t *testing.T, sys *System, r *Result) {
			r2, err := sys.ExecOne(`CREATE TABLE sel AS SELECT id, user FROM logs WHERE user = 4`)
			if err != nil {
				t.Fatal(err)
			}
			if r2.Table != "sel" || reflect.DeepEqual(r2.Rows(), r.Rows()) {
				t.Fatalf("re-run of CREATE TABLE sel stored %s with the old rows", r2.Table)
			}
		},
	}
	for name, change := range changes {
		t.Run(name, func(t *testing.T) {
			sys := demoSystem(t)
			r, err := sys.ExecOne(create)
			if err != nil {
				t.Fatal(err)
			}
			n, want := r.Len(), r.Rows()
			if n == 0 || len(want) != n {
				t.Fatalf("Len %d, %d rows", n, len(want))
			}
			change(t, sys, r)
			if r.Len() != n || !reflect.DeepEqual(r.Rows(), want) {
				t.Errorf("the result moved: %d rows, was %d", r.Len(), n)
			}
		})
	}

	t.Run("caller owns rows", func(t *testing.T) {
		sys := demoSystem(t)
		r, err := sys.ExecOne(create)
		if err != nil {
			t.Fatal(err)
		}
		want := r.Rows()
		row := r.Row(0)
		row[0] = "written"
		rows := r.Rows()
		rows[1][0] = "written"
		rows[2] = nil
		if !reflect.DeepEqual(r.Rows(), want) || !reflect.DeepEqual(r.Row(0), want[0]) {
			t.Error("writing into a returned row changed the next call")
		}
		stored, err := sys.s.Store.Read(r.Table)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resultRows(stored.Rows()), want) {
			t.Error("writing into a returned row changed the stored relation")
		}
	})
}

// TestExecOneRejectsBeforeRunning: ExecOne refuses a script that does not
// hold exactly one statement before running any of it — no view retained,
// nothing stored, no result name drawn.
func TestExecOneRejectsBeforeRunning(t *testing.T) {
	sys := demoSystem(t)
	if _, err := sys.ExecOne(`SELECT user, COUNT(*) AS n FROM logs GROUP BY user`); err != nil {
		t.Fatal(err)
	}
	views, stored, nQuery := sys.Views(), sys.s.Store.List(storage.View), sys.nQuery
	for _, script := range []string{
		`CREATE TABLE b1 AS SELECT id FROM logs WHERE user = 1; CREATE TABLE b2 AS SELECT id FROM logs WHERE user = 2`,
		`SELECT id FROM logs WHERE user = 1; SELECT id FROM logs WHERE user = 2`,
		``,
	} {
		if _, err := sys.ExecOne(script); err == nil {
			t.Errorf("ExecOne accepted %q", script)
		}
		if got := sys.Views(); !reflect.DeepEqual(got, views) {
			t.Errorf("rejected %q, yet the views moved: %v, were %v", script, got, views)
		}
		if got := sys.s.Store.List(storage.View); !slices.Equal(got, stored) {
			t.Errorf("rejected %q, yet the store moved: %v, was %v", script, got, stored)
		}
		if sys.nQuery != nQuery {
			t.Errorf("rejected %q, yet it drew result names", script)
		}
	}
}

// TestExecResultColumnsAreACopy: Result.Columns is the caller's; writing
// into it leaves the stored schema and the catalog alone.
func TestExecResultColumnsAreACopy(t *testing.T) {
	sys := demoSystem(t)
	r, err := sys.ExecOne(`CREATE TABLE t1 AS SELECT id, user FROM logs WHERE id < 10`)
	if err != nil {
		t.Fatal(err)
	}
	views := sys.Views()
	r.Columns[0] = "clobbered"
	rel, err := sys.s.Store.Read(r.Table)
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.Schema().Cols(); !slices.Equal(got, []string{"id", "user"}) {
		t.Errorf("stored schema is %v after writing into Result.Columns", got)
	}
	if got := sys.Views(); !reflect.DeepEqual(got, views) {
		t.Errorf("views are %v after writing into Result.Columns, were %v", got, views)
	}
}

// warmQuery returns a system over an n-row logs table and a query selecting
// every row, run once: the next run is answered from the retained view
// without a job. Every id boxes with an allocation (Go interns only small
// integers), so converting the answer eagerly would cost about n
// allocations.
func warmQuery(tb testing.TB, n int) (*System, string) {
	tb.Helper()
	sys := New()
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{1000 + i, i % 10, "t"}
	}
	if err := sys.CreateTable("logs", "id", []string{"id", "user", "text"}, rows); err != nil {
		tb.Fatal(err)
	}
	const q = `SELECT id, user FROM logs WHERE user < 20`
	if _, err := sys.ExecOne(q); err != nil {
		tb.Fatal(err)
	}
	return sys, q
}

// TestExecResultAllocs: ExecOne boxes no cell, so a 5 000-row answer
// allocates what a 50-row one does, give or take resultAllocSlack.
func TestExecResultAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const resultAllocSlack = 5
	allocs := func(n int) float64 {
		sys, q := warmQuery(t, n)
		r, err := sys.ExecOne(q)
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != n || r.Jobs != 0 {
			t.Fatalf("warm query: %d rows from %d jobs, want %d rows from none", r.Len(), r.Jobs, n)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := sys.ExecOne(q); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(50), allocs(5000)
	if large > small+resultAllocSlack {
		t.Errorf("ExecOne allocates %.0f times over 5000 rows, %.0f over 50: the answer is being copied", large, small)
	}
}

// BenchmarkExecResult: a warm ExecOne at two answer sizes, alone and
// followed by Rows — the conversion the caller now pays only on a read.
func BenchmarkExecResult(b *testing.B) {
	for _, n := range []int{50, 5000} {
		for _, read := range []bool{false, true} {
			name := fmt.Sprintf("rows=%d", n)
			if read {
				name += "/Rows"
			}
			b.Run(name, func(b *testing.B) {
				sys, q := warmQuery(b, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r, err := sys.ExecOne(q)
					if err != nil {
						b.Fatal(err)
					}
					if read {
						r.Rows()
					}
				}
			})
		}
	}
}

// TestResultSurvivesItsOwnEviction: a query answers even when the view
// budget evicts its result the moment the query's pins are released —
// under Session.Run, RunBatch, the service and Exec. The answer is taken
// while the pins hold, and taking it counts no store read.
func TestResultSurvivesItsOwnEviction(t *testing.T) {
	const sql = `CREATE TABLE q1 AS SELECT g, COUNT(*) AS n FROM t GROUP BY g`
	newSys := func(t *testing.T) *System {
		t.Helper()
		sys := New()
		rows := make([][]any, 100)
		for i := range rows {
			rows[i] = []any{int64(i), int64(i % 7)}
		}
		if err := sys.CreateTable("t", "id", []string{"id", "g"}, rows); err != nil {
			t.Fatal(err)
		}
		if err := sys.SetViewStorageBudget(1, "lru"); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	check := func(t *testing.T, sys *System, rel *data.Relation) {
		t.Helper()
		if sys.s.Store.Has("q1") {
			t.Fatal("the budget kept q1: the test evicts nothing")
		}
		if rel == nil || rel.Len() != 7 {
			t.Fatalf("result %v, want the 7 groups", rel)
		}
	}
	st, err := hiveql.ParseOne(sql)
	if err != nil {
		t.Fatal(err)
	}
	var runReads storage.Counters // what Session.Run counts, for Exec to match
	t.Run("Run", func(t *testing.T) {
		sys := newSys(t)
		m, err := sys.s.Run(st.Plan, st.Table, session.ModeBFR)
		if err != nil {
			t.Fatal(err)
		}
		check(t, sys, m.Result)
		runReads = sys.s.Store.Counters()
	})
	t.Run("RunBatch", func(t *testing.T) {
		sys := newSys(t)
		out, err := sys.s.RunBatch([]session.BatchQuery{{Plan: st.Plan, ResultName: st.Table, Mode: session.ModeBFR}})
		if err != nil {
			t.Fatal(err)
		}
		check(t, sys, out.PerQuery[0].Result)
	})
	t.Run("service", func(t *testing.T) {
		sys := newSys(t)
		svc := service.New(sys.s, service.Config{})
		defer svc.Close()
		tk, err := svc.Submit("a", sql)
		if err != nil {
			t.Fatal(err)
		}
		resp := tk.Wait()
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		if resp.Metrics.Result != nil {
			t.Error("the response's Metrics keep the answer alive")
		}
		check(t, sys, resp.Result)
	})
	t.Run("Exec", func(t *testing.T) {
		sys := newSys(t)
		r, err := sys.ExecOne(sql)
		if err != nil {
			t.Fatal(err)
		}
		check(t, sys, r.rel)
		if r.Table != "q1" || len(r.Rows()) != 7 {
			t.Errorf("Exec answered %q with %d rows", r.Table, len(r.Rows()))
		}
		// Exec counts the reads its Session.Run counts, and not one more.
		if got := sys.s.Store.Counters(); runReads.ReadOps == 0 || got != runReads {
			t.Errorf("Exec counted %+v, Session.Run %+v", got, runReads)
		}
	})
}
