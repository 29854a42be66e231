package opportune

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"opportune/internal/data"
	"opportune/internal/obs"
	"opportune/internal/plan"
	"opportune/internal/workload"
)

func demoSystem(t *testing.T) *System {
	t.Helper()
	sys := New()
	var rows [][]any
	texts := []string{"wine is great", "bad day", "good wine good life", "coffee", "wine wine wine"}
	for i := 0; i < 500; i++ {
		rows = append(rows, []any{i, i % 10, texts[i%len(texts)]})
	}
	if err := sys.CreateTable("logs", "id", []string{"id", "user", "text"}, rows); err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterMapUDF(MapUDF{
		Name: "WINE", Args: 1, Outputs: []string{"score"}, Weight: 15,
		Fn: func(args, _ []any) [][]any {
			return [][]any{{float64(strings.Count(args[0].(string), "wine"))}}
		},
	}); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestFacadeQuickstartFlow(t *testing.T) {
	sys := demoSystem(t)
	if s, err := sys.CalibrateUDF("WINE", "logs", []string{"text"}); err != nil || s < 10 {
		t.Fatalf("calibration: scalar=%v err=%v", s, err)
	}
	r1, err := sys.ExecOne(`SELECT user, SUM(score) AS s FROM logs APPLY WINE(text) GROUP BY user HAVING s > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rewritten {
		t.Error("first query rewritten with no views")
	}
	if r1.Len() == 0 || len(r1.Columns) != 2 {
		t.Fatalf("result shape: %v %d rows", r1.Columns, r1.Len())
	}
	if len(sys.Views()) == 0 {
		t.Fatal("no opportunistic views retained")
	}
	// Revised threshold: must be rewritten and faster.
	r2, err := sys.ExecOne(`SELECT user, SUM(score) AS s FROM logs APPLY WINE(text) GROUP BY user HAVING s > 30`)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Rewritten {
		t.Error("revised query not rewritten")
	}
	if r2.ExecSeconds >= r1.ExecSeconds {
		t.Errorf("rewrite not faster: %g vs %g", r2.ExecSeconds, r1.ExecSeconds)
	}
	// Ground-truth check against a rewrite-free run.
	off := demoSystem(t)
	off.SetRewriteMode(RewriteOff)
	r3, err := off.ExecOne(`SELECT user, SUM(score) AS s FROM logs APPLY WINE(text) GROUP BY user HAVING s > 30`)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != r3.Len() {
		t.Errorf("rewritten rows %d != original rows %d", r2.Len(), r3.Len())
	}
}

func TestFacadeMultiStatementAndModes(t *testing.T) {
	sys := demoSystem(t)
	rs, err := sys.Exec(`
		CREATE TABLE per_user AS SELECT user, COUNT(*) AS n FROM logs GROUP BY user;
		SELECT user, n FROM per_user WHERE n > 10;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Table != "per_user" || !strings.HasPrefix(rs[1].Table, "_q") {
		t.Fatalf("results: %+v", rs)
	}
	for _, mode := range []RewriteMode{RewriteOff, RewriteDP, RewriteSyntactic, RewriteBFR} {
		sys.SetRewriteMode(mode)
		if _, err := sys.ExecOne(`SELECT user, n FROM per_user WHERE n > 20`); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
	if _, err := sys.Exec("SELECT FROM nope"); err == nil {
		t.Error("bad script accepted")
	}
	if _, err := sys.Exec("SELECT a FROM t; SELECT b FROM u"); err == nil {
		t.Error("unknown tables accepted")
	}
	if _, err := sys.ExecOne("SELECT user FROM logs; SELECT user FROM logs"); err == nil {
		t.Error("ExecOne accepted two statements")
	}
}

func TestFacadeAggUDFAndValues(t *testing.T) {
	sys := New()
	err := sys.CreateTable("t", "", []string{"k", "v", "f", "b", "n"},
		[][]any{
			{"a", 1, 1.5, true, nil},
			{"a", int64(2), 2.5, false, nil},
			{"b", 3, 3.5, true, nil},
		})
	if err != nil {
		t.Fatal(err)
	}
	err = sys.RegisterAggUDF(AggUDF{
		Name: "TOTAL", Args: 2, Keys: []string{"k"}, KeyArgs: []int{0},
		Outputs: []string{"sum"}, Weight: 2,
		Reduce: func(_ []any, rows [][]any, _ []any) []any {
			var s int64
			for _, r := range rows {
				s += r[0].(int64)
			}
			return []any{s}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.ExecOne(`SELECT k, sum FROM t APPLY TOTAL(k, v)`)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, row := range r.Rows() {
		got[row[0].(string)] = row[1].(int64)
	}
	if got["a"] != 3 || got["b"] != 3 {
		t.Errorf("sums = %v", got)
	}
	// unsupported value type rejected
	if err := sys.CreateTable("bad", "", []string{"x"}, [][]any{{struct{}{}}}); err == nil {
		t.Error("struct value accepted")
	}
}

func TestFacadeStorageBudget(t *testing.T) {
	sys := demoSystem(t)
	if err := sys.SetViewStorageBudget(1, "nope"); err == nil {
		t.Error("unknown policy accepted")
	}
	for _, p := range []string{"lru", "lfu", "cost-benefit", "fifo", ""} {
		if err := sys.SetViewStorageBudget(10_000, p); err != nil {
			t.Errorf("policy %q: %v", p, err)
		}
	}
	// Tiny budget: views get evicted, queries still work.
	if err := sys.SetViewStorageBudget(500, "lru"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ExecOne(`SELECT user, COUNT(*) AS n FROM logs GROUP BY user`); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range sys.Views() {
		total += v.SizeBytes
	}
	// Budget only bounds what is retained; the catalog must stay in sync.
	for _, v := range sys.Views() {
		if !sys.s.Store.Has(v.Name) {
			t.Errorf("catalog lists evicted view %s", v.Name)
		}
	}
	sys.DropViews()
	if len(sys.Views()) != 0 {
		t.Error("DropViews left views")
	}
}

func TestFacadeSaveOpen(t *testing.T) {
	dir := t.TempDir()
	sys := demoSystem(t)
	if _, err := sys.CalibrateUDF("WINE", "logs", []string{"text"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ExecOne(`SELECT user, SUM(score) AS s FROM logs APPLY WINE(text) GROUP BY user HAVING s > 1`); err != nil {
		t.Fatal(err)
	}
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}

	restored, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Re-register the UDF library (code is not persisted) and re-apply the
	// saved calibration.
	if err := restored.RegisterMapUDF(MapUDF{
		Name: "WINE", Args: 1, Outputs: []string{"score"}, Weight: 15,
		Fn: func(args, _ []any) [][]any {
			return [][]any{{float64(strings.Count(args[0].(string), "wine"))}}
		},
	}); err != nil {
		t.Fatal(err)
	}
	if applied := restored.ApplySavedCalibrations(); len(applied) != 1 || applied[0] != "WINE" {
		t.Fatalf("applied = %v", applied)
	}
	if len(restored.Views()) != len(sys.Views()) {
		t.Fatalf("views: %d vs %d", len(restored.Views()), len(sys.Views()))
	}
	// A revised query on the restored system reuses the restored views.
	r, err := restored.ExecOne(`SELECT user, SUM(score) AS s FROM logs APPLY WINE(text) GROUP BY user HAVING s > 30`)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Rewritten {
		t.Error("restored system did not reuse its views")
	}
	if _, err := Open(t.TempDir()); err == nil {
		t.Error("Open of empty dir succeeded")
	}
}

func TestFacadeClusterTable(t *testing.T) {
	build := func(cluster bool) *System {
		t.Helper()
		sys := New()
		var logs, visits [][]any
		for i := 0; i < 400; i++ {
			logs = append(logs, []any{i, i % 20, float64(i % 7)})
			visits = append(visits, []any{i, (i * 3) % 20, i % 5})
		}
		if err := sys.CreateTable("logs", "id", []string{"id", "user", "amt"}, logs); err != nil {
			t.Fatal(err)
		}
		if err := sys.CreateTable("visits", "vid", []string{"vid", "visitor", "place"}, visits); err != nil {
			t.Fatal(err)
		}
		if cluster {
			// Co-partitioned: both sides hash-clustered on the join key
			// with the same bucket count.
			if err := sys.ClusterTable("logs", []string{"user"}, 32); err != nil {
				t.Fatal(err)
			}
			if err := sys.ClusterTable("visits", []string{"visitor"}, 32); err != nil {
				t.Fatal(err)
			}
		}
		return sys
	}
	const joinSQL = `SELECT user, COUNT(*) AS events FROM
	  (SELECT user, amt FROM logs) JOIN (SELECT visitor, place FROM visits)
	  ON user = visitor GROUP BY user`

	clustered := build(true)
	reg := obs.NewRegistry()
	clustered.Session().Instrument(reg)
	rc, err := clustered.ExecOne(joinSQL)
	if err != nil {
		t.Fatal(err)
	}
	plain := build(false)
	rp, err := plain.ExecOne(joinSQL)
	if err != nil {
		t.Fatal(err)
	}
	// The layout is execution-invisible except in time: the same rows out,
	// value for value and in the same order.
	if rc.Len() == 0 || !reflect.DeepEqual(rc.Rows(), rp.Rows()) {
		t.Fatalf("results differ:\nclustered %v\nplain     %v", rc.Rows(), rp.Rows())
	}
	snap := reg.Snapshot()
	if snap.Counters["mr_shuffle_bytes_eliminated_total"] == 0 {
		t.Error("co-partitioned join eliminated no shuffle bytes")
	}
	if snap.Counters["mr_partition_local_jobs_total"] == 0 {
		t.Error("no job took the partition-preserving path")
	}
	if rc.ExecSeconds >= rp.ExecSeconds {
		t.Errorf("clustered run not faster: %g vs %g sim-s", rc.ExecSeconds, rp.ExecSeconds)
	}

	// Declaration errors.
	sys := build(false)
	for _, bad := range []struct {
		table string
		cols  []string
		n     int
	}{
		{"nosuch", []string{"user"}, 32},
		{"logs", []string{"nocol"}, 32},
		{"logs", nil, 32},
		{"logs", []string{"user"}, 0},
	} {
		if err := sys.ClusterTable(bad.table, bad.cols, bad.n); err == nil {
			t.Errorf("ClusterTable(%q, %v, %d) accepted", bad.table, bad.cols, bad.n)
		}
	}
}

// TestFacadeIngestMaintainsAggregateOverJoin drives workload.IngestQueries
// the way the ingest benchmark does: the grouped view over the twtr ⋈ fsq
// join is folded from the appended delta on every append — to either log —
// while the join output itself is invalidated the one time it exists, and
// every answer equals a rewrite-free recompute over the grown logs.
func TestFacadeIngestMaintainsAggregateOverJoin(t *testing.T) {
	sc := workload.SmallScale()
	build := func(mode RewriteMode) *System {
		t.Helper()
		sys := New()
		sys.SetRewriteMode(mode)
		if _, err := workload.Install(sys.Session(), sc); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sys, ref := build(RewriteBFR), build(RewriteOff)
	ask := func(when string) {
		t.Helper()
		for _, q := range workload.IngestQueries() {
			got, err := sys.ExecOne(q.SQL)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.ExecOne(q.SQL)
			if err != nil {
				t.Fatal(err)
			}
			if want.Len() == 0 || !reflect.DeepEqual(got.Rows(), want.Rows()) {
				t.Fatalf("%s, %s: answer differs from a RewriteOff recompute (%d vs %d rows)", when, q.Name, got.Len(), want.Len())
			}
		}
	}
	ask("install")
	var grouped, joined string
	for _, v := range sys.Session().Cat.Views() {
		name, pl := v.Name, v.Plan
		switch {
		case pl.Kind == plan.KindJoin:
			joined = name
		case pl.Kind == plan.KindGroupAgg && pl.Inputs[0].Kind == plan.KindJoin:
			grouped = name
		}
	}
	if grouped == "" || joined == "" {
		t.Fatalf("setup: grouped view %q, join output %q", grouped, joined)
	}
	appendBoth := func(table string, rows []data.Row) *AppendReport {
		t.Helper()
		anyRows := make([][]any, len(rows))
		for i, r := range rows {
			for _, v := range r {
				anyRows[i] = append(anyRows[i], v)
			}
		}
		rep, err := sys.AppendRows(table, anyRows)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.AppendRows(table, anyRows); err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(rep.Maintained, grouped) {
			t.Fatalf("append to %s: the grouped view over the join was not maintained (maintained %v, reasons %v)",
				table, rep.Maintained, rep.Reasons)
		}
		return rep
	}
	joinInvalidations := 0
	for epoch := 0; epoch < 3; epoch++ {
		rep := appendBoth("twtr", workload.AppendBatch(sc, epoch, 40))
		if slices.Contains(rep.Invalidated, joined) {
			joinInvalidations++
			if got := rep.Reasons[joined]; got != "join at the root (no grouping above it)" {
				t.Errorf("join output invalidated with reason %q", got)
			}
		}
		ask(fmt.Sprintf("twtr epoch %d", epoch))
	}
	if joinInvalidations != 1 {
		t.Errorf("the join output was invalidated %d times over three appends, want exactly once", joinInvalidations)
	}
	// The other side of the join: re-sent check-ins fold into the same view.
	fsq, err := sys.Session().Store.Read("fsq")
	if err != nil {
		t.Fatal(err)
	}
	appendBoth("fsq", fsq.Rows()[:25])
	ask("fsq append")
}

// TestFacadeRejectsWrongWidthRows: a row whose width differs from the
// table's is an error, not a crash, at CreateTable and at AppendRows, and
// a rejected call leaves the system as it was.
func TestFacadeRejectsWrongWidthRows(t *testing.T) {
	sys := demoSystem(t)
	if err := sys.CreateTable("short", "", []string{"a", "b"}, [][]any{{1, 2}, {3}}); err == nil {
		t.Error("CreateTable took a one-value row into a two-column table")
	}
	if _, err := sys.ExecOne(`SELECT a FROM short`); err == nil {
		t.Error("a rejected CreateTable left a queryable table behind")
	}
	const q = `SELECT user, COUNT(*) AS n FROM logs GROUP BY user`
	before, err := sys.ExecOne(q)
	if err != nil {
		t.Fatal(err)
	}
	views := len(sys.Views())
	if _, err := sys.AppendRows("logs", [][]any{{500, 1, "wine"}, {501, 2}}); err == nil {
		t.Error("AppendRows took a two-value row into a three-column table")
	}
	if got := len(sys.Views()); got != views {
		t.Errorf("a rejected append moved the views: %d, was %d", got, views)
	}
	after, err := sys.ExecOne(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Rows(), before.Rows()) {
		t.Errorf("a rejected append changed an answer:\n got %v\nwant %v", after.Rows(), before.Rows())
	}
}

// TestFacadeUDFContract: a UDF that breaks its declaration fails its query
// with ErrUDFContract — a MapUDF not declared Explode that returns two rows,
// one that returns a row of the wrong width, and a map or agg UDF that
// returns a value of an unsupported type — while a well-behaved query on
// the same system still answers.
func TestFacadeUDFContract(t *testing.T) {
	sys := demoSystem(t)
	maps := map[string]func(args, _ []any) [][]any{
		"TWO": func(args, _ []any) [][]any {
			if args[0] == "coffee" {
				return [][]any{{1}, {2}}
			}
			return [][]any{{0}}
		},
		"WIDE":  func(args, _ []any) [][]any { return [][]any{{0, 1}} },
		"SHORT": func(args, _ []any) [][]any { return [][]any{{}} },
		"ODD":   func(args, _ []any) [][]any { return [][]any{{struct{}{}}} },
	}
	for name, fn := range maps {
		if err := sys.RegisterMapUDF(MapUDF{Name: name, Args: 1, Outputs: []string{"o_" + name}, Fn: fn}); err != nil {
			t.Fatal(err)
		}
		sql := fmt.Sprintf("SELECT id, o_%s FROM logs APPLY %s(text)", name, name)
		if _, err := sys.ExecOne(sql); !errors.Is(err, ErrUDFContract) {
			t.Errorf("%s: error %v, want ErrUDFContract", name, err)
		}
	}
	if err := sys.RegisterAggUDF(AggUDF{
		Name: "ODDAGG", Args: 2, Keys: []string{"user"}, KeyArgs: []int{0}, Outputs: []string{"x"},
		Reduce: func(_ []any, _ [][]any, _ []any) []any { return []any{struct{}{}} },
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ExecOne("SELECT user, x FROM logs APPLY ODDAGG(user, id)"); !errors.Is(err, ErrUDFContract) {
		t.Errorf("ODDAGG: error %v, want ErrUDFContract", err)
	}
	if _, err := sys.ExecOne("SELECT user, SUM(score) AS s FROM logs APPLY WINE(text) GROUP BY user"); err != nil {
		t.Errorf("a query that keeps the contract fails beside the violations: %v", err)
	}
}
