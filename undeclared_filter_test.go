package opportune

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"opportune/internal/data"
	"opportune/internal/hiveql"
	"opportune/internal/service"
	"opportune/internal/session"
	"opportune/internal/storage"
)

// The undeclared-filter reproduction: HALF is a MapUDF declared without
// Filters that returns no row for an odd id. Were its views kept, the
// rewriter would answer halfCount over halfView — the view's annotation
// says it holds every row of t — and the counts would sum to half the
// table.
const (
	halfView  = "CREATE TABLE v1 AS SELECT id, g, h FROM t APPLY HALF(id)"
	halfCount = "SELECT g, COUNT(*) AS n FROM t GROUP BY g"
)

// halfSystem is a system under BFREWRITE holding t(id, g, pad), one row per
// id with a 200-byte pad, and HALF.
func halfSystem(t *testing.T, ids []int) *System {
	t.Helper()
	sys := New()
	if err := sys.CreateTable("t", "id", []string{"id", "g", "pad"}, halfRows(ids)); err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterMapUDF(MapUDF{
		Name: "HALF", Args: 1, Outputs: []string{"h"},
		Fn: func(args, _ []any) [][]any {
			id := args[0].(int64)
			if id%2 != 0 {
				return nil
			}
			return [][]any{{id / 2}}
		},
	}); err != nil {
		t.Fatal(err)
	}
	return sys
}

func halfRows(ids []int) [][]any {
	pad := strings.Repeat("p", 200)
	rows := make([][]any, len(ids))
	for i, id := range ids {
		rows[i] = []any{id, id % 10, pad}
	}
	return rows
}

func idRange(from, to, step int) []int {
	var ids []int
	for id := from; id < to; id += step {
		ids = append(ids, id)
	}
	return ids
}

// countSum is the total of halfCount's n column.
func countSum(t *testing.T, rel *data.Relation) int64 {
	t.Helper()
	var total int64
	for _, r := range rel.Rows() {
		total += r[rel.Schema().MustIndex("n")].Int()
	}
	return total
}

// checkNoHalfView fails if any catalogued view was computed through HALF.
func checkNoHalfView(t *testing.T, sys *System) {
	t.Helper()
	for _, v := range sys.Session().Cat.Views() {
		if strings.Contains(v.Canon(), "HALF") {
			t.Errorf("view %s over HALF was retained: %s", v.Name, v.Canon())
		}
	}
}

func parseOne(t *testing.T, sql string) *hiveql.Statement {
	t.Helper()
	stmts, err := hiveql.Parse(sql)
	if err != nil || len(stmts) != 1 {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return stmts[0]
}

// TestUndeclaredFilterFailsTyped: a map UDF that drops a row without
// declaring Filters fails with ErrUDFContract on every path — calibration,
// Run, RunBatch, the service, and the maintenance of a view over it by
// AppendRows — and no view over it is kept, so halfCount, asked afterwards
// under BFREWRITE, counts every row of t. The failed calibration leaves no
// scratch dataset in the store.
func TestUndeclaredFilterFailsTyped(t *testing.T) {
	const rows = 2000
	t.Run("Calibrate", func(t *testing.T) {
		sys := halfSystem(t, idRange(0, rows, 1))
		if _, err := sys.CalibrateUDF("HALF", "t", []string{"id"}); !errors.Is(err, ErrUDFContract) {
			t.Errorf("calibration error %v, want ErrUDFContract", err)
		}
		for _, kind := range []storage.Kind{storage.Base, storage.View} {
			if names := sys.Session().Store.List(kind); slices.ContainsFunc(names, func(n string) bool { return n != "t" }) {
				t.Errorf("the failed calibration left datasets behind: %v", names)
			}
		}
	})
	t.Run("Run", func(t *testing.T) {
		sys := halfSystem(t, idRange(0, rows, 1))
		if _, err := sys.ExecOne(halfView); !errors.Is(err, ErrUDFContract) {
			t.Errorf("%s: error %v, want ErrUDFContract", halfView, err)
		}
		checkNoHalfView(t, sys)
		res, err := sys.ExecOne(halfCount)
		if err != nil {
			t.Fatal(err)
		}
		if got := countSum(t, res.rel); got != rows {
			t.Errorf("counts sum to %d, want %d", got, rows)
		}
	})
	t.Run("RunBatch", func(t *testing.T) {
		sys := halfSystem(t, idRange(0, rows, 1))
		view, count := parseOne(t, halfView), parseOne(t, halfCount)
		br, err := sys.Session().RunBatch([]session.BatchQuery{
			{Plan: view.Plan, ResultName: view.Table, Mode: session.ModeBFR},
			{Plan: count.Plan, ResultName: "cnt", Mode: session.ModeBFR},
		})
		if err == nil {
			t.Fatalf("a batch over HALF answered: %+v", br)
		}
		if !errors.Is(err, ErrUDFContract) {
			t.Errorf("RunBatch error %v, want ErrUDFContract", err)
		}
		checkNoHalfView(t, sys)
		res, err := sys.ExecOne(halfCount)
		if err != nil {
			t.Fatal(err)
		}
		if got := countSum(t, res.rel); got != rows {
			t.Errorf("counts sum to %d, want %d", got, rows)
		}
	})
	t.Run("Service", func(t *testing.T) {
		sys := halfSystem(t, idRange(0, rows, 1))
		svc := service.New(sys.Session(), service.Config{BatchSize: 2, MaxWait: 10 * time.Second, Mode: session.ModeBFR})
		defer svc.Close()
		bad, err := svc.Submit("t1", halfView)
		if err != nil {
			t.Fatal(err)
		}
		good, err := svc.Submit("t2", "CREATE TABLE cnt AS "+halfCount) // a named result is delivered
		if err != nil {
			t.Fatal(err)
		}
		if resp := bad.Wait(); !errors.Is(resp.Err, ErrUDFContract) {
			t.Errorf("%s: error %v, want ErrUDFContract", halfView, resp.Err)
		}
		resp := good.Wait()
		if resp.Err != nil {
			t.Fatalf("%s: %v", halfCount, resp.Err)
		}
		if got := countSum(t, resp.Result); got != rows {
			t.Errorf("counts sum to %d, want %d", got, rows)
		}
		checkNoHalfView(t, sys)
	})
	t.Run("AppendRows", func(t *testing.T) {
		// Even ids only: HALF keeps every row, so the view is built and
		// kept. The append brings odd ids, and maintaining the view runs
		// HALF on them.
		sys := halfSystem(t, idRange(0, rows, 2))
		if _, err := sys.ExecOne(halfView); err != nil {
			t.Fatal(err)
		}
		rep, err := sys.AppendRows("t", halfRows(idRange(1, rows, 2)))
		if err != nil {
			t.Fatalf("AppendRows failed as a whole: %v", err)
		}
		if !strings.Contains(rep.Reasons["v1"], ErrUDFContract.Error()) {
			t.Errorf("v1: maintained %v, invalidated %v, reasons %v; want invalidated for the contract",
				rep.Maintained, rep.Invalidated, rep.Reasons)
		}
		checkNoHalfView(t, sys)
		res, err := sys.ExecOne(halfCount)
		if err != nil {
			t.Fatal(err)
		}
		if got := countSum(t, res.rel); got != rows {
			t.Errorf("counts sum to %d, want %d", got, rows)
		}
		if _, err := sys.ExecOne(halfView); !errors.Is(err, ErrUDFContract) {
			t.Errorf("%s after the append: error %v, want ErrUDFContract", halfView, err)
		}
	})
}
