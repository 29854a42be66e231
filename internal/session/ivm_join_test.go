package session

import (
	"slices"
	"strings"
	"testing"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/expr"
	"opportune/internal/fault"
	"opportune/internal/plan"
	"opportune/internal/storage"
	"opportune/internal/udf"
	"opportune/internal/value"
)

// ivmUsers builds n rows of the "users" side table starting at row number
// base: uid repeats (two rows for the low uids, so the join multiplies),
// reaches past the users logs ever mention (rows that match nothing) and
// carries an integer bonus, so a SUM over it is exact in a float.
func ivmUsers(base, n int) []data.Row {
	tiers := []string{"gold", "silver", "bronze"}
	rows := make([]data.Row, n)
	for i := range rows {
		u := (base + i) % 12
		rows[i] = data.Row{
			value.NewInt(int64(u)),
			value.NewStr(tiers[(base+i)%len(tiers)]),
			value.NewInt(int64((base+i)*7%5 + 1)),
		}
	}
	return rows
}

// joinDemo is demo plus the tables the join views read beside logs: users
// (uid → tier, bonus; uid is not unique) and tiers (tname → rank), and an
// exploding UDF for the gate's rejections.
func joinDemo(t *testing.T, rows int) *Session {
	t.Helper()
	s := demo(t, rows)
	put := func(name string, cols []string, rs []data.Row) {
		rel := data.NewRelation(data.NewSchema(cols...))
		for _, r := range rs {
			rel.Append(r)
		}
		s.Store.Put(name, storage.Base, rel)
		s.Cat.RegisterBase(name, cols, "", cost.Stats{Rows: int64(rel.Len()), Bytes: rel.EncodedSize()}, nil)
	}
	put("users", []string{"uid", "tier", "bonus"}, ivmUsers(0, 12))
	put("tiers", []string{"tname", "rank"}, []data.Row{
		{value.NewStr("gold"), value.NewInt(1)},
		{value.NewStr("silver"), value.NewInt(2)},
		{value.NewStr("bronze"), value.NewInt(3)},
	})
	if err := s.Cat.UDFs.Register(&udf.Descriptor{
		Name: "WORDS", NArgs: 1, Kind: udf.KindMap, OutNames: []string{"word"}, Explode: true,
		Map: func(args, _ []value.V) [][]value.V {
			var out [][]value.V
			for _, w := range strings.Fields(args[0].Str()) {
				out = append(out, []value.V{value.NewStr(w)})
			}
			return out
		},
		TrueScalar: 2,
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

func logsUsers() *plan.Node {
	return plan.JoinNodes(plan.Scan("logs"), plan.Scan("users"), "user", "uid")
}

// ivmJoinQueries is the join family of the maintenance oracle, every view a
// keyed distributive aggregate over a join that is linear in logs (and in
// users): logs on the left, logs on the right, two joins deep, a filter
// plus a map UDF between the scan and the join, and both join keys renamed.
// SUMs are over integers, so byte identity holds.
func ivmJoinQueries() []BatchQuery {
	count := plan.AggSpec{Func: plan.AggCount, As: "n"}
	left := plan.GroupAgg(logsUsers(), []string{"tier"}, count,
		plan.AggSpec{Func: plan.AggMin, Col: "id", As: "lo"},
		plan.AggSpec{Func: plan.AggMax, Col: "id", As: "hi"},
		plan.AggSpec{Func: plan.AggSum, Col: "bonus", As: "b"})
	right := plan.GroupAgg(
		plan.JoinNodes(plan.Scan("users"), plan.Scan("logs"), "uid", "user"),
		[]string{"uid"}, count, plan.AggSpec{Func: plan.AggMax, Col: "id", As: "hi"})
	deep := plan.GroupAgg(
		plan.JoinNodes(logsUsers(), plan.Scan("tiers"), "tier", "tname"),
		[]string{"rank"}, count, plan.AggSpec{Func: plan.AggSum, Col: "id", As: "ids"})
	below := plan.GroupAgg(
		plan.JoinNodes(
			plan.Filter(plan.Apply(plan.Scan("logs"), "W", []string{"text"}),
				expr.NewCmp("user", expr.Gt, value.NewInt(1))),
			plan.Scan("users"), "user", "uid"),
		[]string{"tier"}, count, plan.AggSpec{Func: plan.AggSum, Col: "w", As: "wine"})
	renamed := plan.GroupAgg(
		plan.JoinNodes(
			plan.ProjectAs(plan.Scan("logs"), []string{"id", "user"}, []string{"lid", "who"}),
			plan.ProjectAs(plan.Scan("users"), []string{"uid", "bonus"}, []string{"u", "b"}),
			"who", "u"),
		[]string{"who"}, count, plan.AggSpec{Func: plan.AggSum, Col: "b", As: "bs"},
		plan.AggSpec{Func: plan.AggMin, Col: "lid", As: "lo"})
	return []BatchQuery{
		{Plan: left, ResultName: "jl", Mode: ModeOriginal},
		{Plan: right, ResultName: "jr", Mode: ModeOriginal},
		{Plan: deep, ResultName: "jd", Mode: ModeOriginal},
		{Plan: below, ResultName: "jb", Mode: ModeOriginal},
		{Plan: renamed, ResultName: "jn", Mode: ModeOriginal},
	}
}

// checkStoreInvariant is what must hold after any AppendRows, whichever way
// each maintenance run ended: every stored view is in the catalog (no test
// that calls this leaves an unregistered caller-named result behind), no
// temporary (~delta~, ~maint~) survives under either kind, no index covers
// other rows than its dataset holds, and the store's view-byte total is the
// sum over the views it lists.
func checkStoreInvariant(t *testing.T, s *Session) {
	t.Helper()
	var sum int64
	for _, name := range s.Store.List(storage.View) {
		if _, listed := s.Cat.Table(name); !listed {
			t.Errorf("stored view %s is not in the catalog", name)
		}
		ds, _ := s.Store.Meta(name)
		sum += ds.SizeBytes
	}
	for _, name := range append(s.Store.List(storage.View), s.Store.List(storage.Base)...) {
		if strings.HasPrefix(name, "~") {
			t.Errorf("temporary dataset %s left in the store", name)
		}
		ds, _ := s.Store.Meta(name)
		for col, rows := range ds.Indexes() {
			if rows != ds.Relation().Len() {
				t.Errorf("stale index: %s.%s covers %d rows, the dataset holds %d", name, col, rows, ds.Relation().Len())
			}
		}
	}
	for _, info := range s.Cat.Views() {
		if strings.HasPrefix(info.Name, "~") {
			t.Errorf("temporary dataset %s left in the catalog", info.Name)
		}
	}
	if got := s.Store.ViewBytes(); got != sum {
		t.Errorf("Store.ViewBytes() = %d, the listed views sum to %d", got, sum)
	}
}

// TestMaintenancePlanGateRejections pins the reason each non-linear or
// non-mergeable shape over a join is invalidated with. The join output
// itself is the row that used to be afk.Maintainable's "multi-source
// lineage": the annotation now admits it and the plan gate turns it down.
func TestMaintenancePlanGateRejections(t *testing.T) {
	count := plan.AggSpec{Func: plan.AggCount, As: "n"}
	cases := []struct {
		name, reason string
		plan         *plan.Node
	}{
		{"self-join on the appended table", "self-join on the appended table",
			plan.GroupAgg(
				plan.JoinNodes(plan.Scan("logs"),
					plan.ProjectAs(plan.Scan("logs"), []string{"id", "user"}, []string{"id2", "user2"}),
					"user", "user2"),
				[]string{"user"}, count)},
		{"root join", "join at the root (no grouping above it)", logsUsers()},
		{"projected root join", "join at the root (no grouping above it)",
			plan.Project(logsUsers(), "id", "tier")},
		{"exploding UDF below the join", "exploding UDF WORDS",
			plan.GroupAgg(
				plan.JoinNodes(plan.Apply(plan.Scan("logs"), "WORDS", []string{"text"}), plan.Scan("users"), "user", "uid"),
				[]string{"tier"}, count)},
		{"LIMIT on the unchanged side", "LIMIT taint: surviving rows depend on execution order",
			plan.GroupAgg(
				plan.JoinNodes(plan.Scan("logs"), plan.Sort(plan.Scan("users"), []string{"uid"}, nil, 5), "user", "uid"),
				[]string{"tier"}, count)},
		{"AVG over the join", "non-distributive aggregate agg_avg",
			plan.GroupAgg(logsUsers(), []string{"tier"}, plan.AggSpec{Func: plan.AggAvg, Col: "id", As: "a"})},
		{"global aggregate over the join", "global aggregate (no group keys)",
			plan.GroupAgg(logsUsers(), nil, count)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := joinDemo(t, 60)
			if _, err := s.Run(c.plan, "res", ModeOriginal); err != nil {
				t.Fatal(err)
			}
			rep, err := s.AppendRows("logs", ivmBatch(500, 9))
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Reasons["res"]; got != c.reason || !slices.Contains(rep.Invalidated, "res") {
				t.Errorf("reason %q (invalidated %v, maintained %v), want invalidation with %q",
					got, rep.Invalidated, rep.Maintained, c.reason)
			}
			checkStoreInvariant(t, s)
		})
	}
}

// TestDeltaRunHygiene drives a delta plan — one group-agg job whose map side
// probes the users index — into each of its exit paths: success, the job
// dying, a read fault on the indexed table (the index open is a read of
// it), and read errors on the delta sink and on the stored view after the
// job ran. It checks that no temporary, pin, stale index or unaccounted byte
// survives any of them, that a failed run falls back to invalidation, and
// that the next query over the grown base is still right.
func TestDeltaRunHygiene(t *testing.T) {
	dead := func(job string) fault.Fault {
		return fault.Fault{Job: job, Phase: fault.PhaseMap, Task: 0, Kind: fault.KindPanic, FailAttempts: 99}
	}
	cases := []struct {
		name   string
		faults []fault.Fault
		fails  bool
	}{
		{"success", nil, false},
		{"group-agg job dies", []fault.Fault{dead("job0-groupagg")}, true},
		{"indexed table unreadable", []fault.Fault{{Kind: fault.KindReadError, Dataset: "users", FailReads: 1}}, true},
		{"delta sink unreadable", []fault.Fault{{Kind: fault.KindReadError, Dataset: "~maint~jl", FailReads: 1}}, true},
		{"stored view unreadable", []fault.Fault{{Kind: fault.KindReadError, Dataset: "jl", FailReads: 1}}, true},
	}
	q := ivmJoinQueries()[0]
	batch := ivmBatch(700, 15)
	ref := joinDemo(t, 90)
	if _, err := ref.AppendRows("logs", batch); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(q.Plan, "jl", ModeOriginal); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Store.Read("jl")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := joinDemo(t, 90)
			if _, err := s.Run(q.Plan, "jl", ModeOriginal); err != nil {
				t.Fatal(err)
			}
			s.InjectFaults(fault.NewInjector(&fault.Plan{Faults: c.faults}))
			rep, err := s.AppendRows("logs", batch)
			if err != nil {
				t.Fatal(err)
			}
			s.InjectFaults(nil)
			checkStoreInvariant(t, s)
			if failed := strings.HasPrefix(rep.Reasons["jl"], "maintenance failed: "); failed != c.fails {
				t.Fatalf("maintained %v, reasons %v; want failure = %v", rep.Maintained, rep.Reasons, c.fails)
			}
			if !c.fails && !slices.Contains(rep.Maintained, "jl") {
				t.Fatalf("jl not maintained: %v", rep.Reasons)
			}
			if _, listed := s.Cat.Table("jl"); listed == c.fails {
				t.Errorf("jl in catalog = %v after a run that failed = %v", listed, c.fails)
			}
			if _, err := s.Run(q.Plan, "jl", ModeBFR); err != nil {
				t.Fatal(err)
			}
			got, err := s.Store.Read("jl")
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("jl after the append differs from a recompute\n got %v\nwant %v", got.Rows(), want.Rows())
			}
			checkStoreInvariant(t, s)
		})
	}
}

// TestDeltaRunKeepsSharedIntermediate: a sub-plan of the delta plan that
// does not read the delta compiles to a job that writes under an existing
// view's own content-addressed name. That dataset is the catalog's, not a
// temporary of the run: it must survive the cleanup, contents intact.
func TestDeltaRunKeepsSharedIntermediate(t *testing.T) {
	usersTiers := func() *plan.Node {
		return plan.JoinNodes(plan.Scan("users"), plan.Scan("tiers"), "tier", "tname")
	}
	q := plan.GroupAgg(plan.JoinNodes(plan.Scan("logs"), usersTiers(), "user", "uid"),
		[]string{"rank"}, plan.AggSpec{Func: plan.AggCount, As: "n"})
	s := joinDemo(t, 90)
	if _, err := s.Run(q, "byrank", ModeOriginal); err != nil {
		t.Fatal(err)
	}
	shared := ""
	for _, v := range s.Cat.Views() {
		if !slices.Contains(v.Ann.Bases(), "logs") {
			shared = v.Name
		}
	}
	if shared == "" {
		t.Fatal("setup: no retained users ⋈ tiers view")
	}
	before, err := s.Store.Read(shared)
	if err != nil {
		t.Fatal(err)
	}
	batch := ivmBatch(700, 15)
	rep, err := s.AppendRows("logs", batch)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(rep.Maintained, "byrank") {
		t.Fatalf("byrank not maintained: %v", rep.Reasons)
	}
	checkStoreInvariant(t, s)
	after, err := s.Store.Read(shared)
	if err != nil {
		t.Fatalf("the delta run's cleanup deleted a catalog view: %v", err)
	}
	if !after.Equal(before) {
		t.Errorf("%s changed under a delta run that does not touch its bases", shared)
	}
	ref := joinDemo(t, 90)
	if _, err := ref.AppendRows("logs", batch); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(q, "byrank", ModeOriginal); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Store.Read("byrank")
	want, _ := ref.Store.Read("byrank")
	if !got.Equal(want) {
		t.Errorf("byrank differs from a recompute\n got %v\nwant %v", got.Rows(), want.Rows())
	}
}

// TestAppendFindsViewsThroughJoinPredicates: a grouped view over a join
// keeps only the grouping side's columns, so the other table survives in
// its annotation only inside F's join predicate. An append to that table
// must still reach the view — here it is maintained; before Bases() read F
// it was skipped and left stale in the catalog.
func TestAppendFindsViewsThroughJoinPredicates(t *testing.T) {
	q := plan.GroupAgg(
		plan.JoinNodes(plan.Project(plan.Scan("logs"), "id", "user"), plan.Project(plan.Scan("users"), "uid"), "user", "uid"),
		[]string{"user"}, plan.AggSpec{Func: plan.AggCount, As: "n"})
	s := joinDemo(t, 60)
	if _, err := s.Run(q, "peruser", ModeOriginal); err != nil {
		t.Fatal(err)
	}
	rep, err := s.AppendRows("users", ivmUsers(12, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(rep.Maintained, "peruser") {
		t.Fatalf("append to users: maintained %v, invalidated %v (%v); want peruser maintained",
			rep.Maintained, rep.Invalidated, rep.Reasons)
	}
	ref := joinDemo(t, 60)
	if _, err := ref.AppendRows("users", ivmUsers(12, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(q, "peruser", ModeOriginal); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Store.Read("peruser")
	want, _ := ref.Store.Read("peruser")
	if !got.Equal(want) {
		t.Errorf("peruser differs from a recompute\n got %v\nwant %v", got.Rows(), want.Rows())
	}
}

// TestAppendInvalidatesGlobalCount: a global COUNT(*) has no attribute, key
// or predicate that mentions its table, so its annotation has no lineage
// at all; the producing plan still reads the table, and an append must not
// leave the view stale in the catalog (FuzzMaintainVsRecompute found it).
func TestAppendInvalidatesGlobalCount(t *testing.T) {
	s := demo(t, 30)
	if _, err := s.Run(plan.GroupAgg(plan.Scan("logs"), nil, plan.AggSpec{Func: plan.AggCount, As: "n"}), "total", ModeOriginal); err != nil {
		t.Fatal(err)
	}
	rep, err := s.AppendRows("logs", ivmBatch(100, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(rep.Invalidated, "total") || rep.Reasons["total"] != `lineage does not include "logs"` {
		t.Errorf("invalidated %v, reasons %v; want the stale global count dropped", rep.Invalidated, rep.Reasons)
	}
}
