package session

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/expr"
	"opportune/internal/meta"
	"opportune/internal/obs"
	"opportune/internal/plan"
	"opportune/internal/storage"
	"opportune/internal/udf"
	"opportune/internal/value"
)

func demo(t *testing.T, rows int) *Session {
	t.Helper()
	s := New(cost.DefaultParams())
	rel := data.NewRelation(data.NewSchema("id", "user", "text"))
	texts := []string{"wine time", "coffee", "wine wine"}
	for i := 0; i < rows; i++ {
		rel.Append(data.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 5)), value.NewStr(texts[i%3])})
	}
	s.Store.Put("logs", storage.Base, rel)
	s.Cat.RegisterBase("logs", []string{"id", "user", "text"}, "id",
		cost.Stats{Rows: int64(rows), Bytes: rel.EncodedSize()}, map[string]int64{"user": 5})
	if err := s.Cat.UDFs.Register(&udf.Descriptor{
		Name: "W", NArgs: 1, Kind: udf.KindMap, OutNames: []string{"w"},
		Map: func(args, _ []value.V) [][]value.V {
			return [][]value.V{{value.NewInt(int64(strings.Count(args[0].Str(), "wine")))}}
		},
		TrueScalar: 5,
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

func q() *plan.Node {
	agg := plan.GroupAgg(
		plan.Apply(plan.Scan("logs"), "W", []string{"text"}),
		[]string{"user"}, plan.AggSpec{Func: plan.AggSum, Col: "w", As: "s"})
	return plan.Filter(agg, expr.NewCmp("s", expr.Gt, value.NewFloat(1)))
}

func TestModeNames(t *testing.T) {
	names := map[Mode]string{
		ModeOriginal: "orig", ModeBFR: "bfr", ModeDP: "dp", ModeSyntactic: "syntactic",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%v name", m)
		}
	}
	if Mode(99).String() != "unknown" {
		t.Error("unknown mode name")
	}
}

func TestRunRegistersViewsAndStats(t *testing.T) {
	s := demo(t, 300)
	m, err := s.Run(q(), "res", ModeOriginal)
	if err != nil {
		t.Fatal(err)
	}
	if m.ExecSeconds <= 0 || m.Jobs != 2 || m.ResultName != "res" {
		t.Fatalf("metrics = %+v", m)
	}
	if m.StatsSeconds <= 0 {
		t.Error("no stats-collection overhead charged")
	}
	views := s.Cat.Views()
	if len(views) != 2 { // agg view + result
		t.Fatalf("views = %d", len(views))
	}
	for _, v := range views {
		if v.Stats.Rows <= 0 || v.Stats.Bytes <= 0 {
			t.Errorf("view %s lacks stats: %+v", v.Name, v.Stats)
		}
		if v.PlanFP == "" {
			t.Errorf("view %s lacks a plan fingerprint", v.Name)
		}
	}
	// Second run of the same plan under ORIG re-registers nothing new and
	// collects no new stats.
	m2, err := s.Run(q(), "res2", ModeOriginal)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cat.Views()) != 3 { // only the new result name
		t.Errorf("views after rerun = %d", len(s.Cat.Views()))
	}
	if m2.StatsSeconds >= m.StatsSeconds {
		t.Error("stats for known views re-collected")
	}
}

func TestRunAllModesAgree(t *testing.T) {
	want := uint64(0)
	for _, mode := range []Mode{ModeOriginal, ModeBFR, ModeDP, ModeSyntactic} {
		s := demo(t, 300)
		if _, err := s.Run(q(), "warm", ModeOriginal); err != nil {
			t.Fatal(err)
		}
		m, err := s.Run(q(), "res_"+mode.String(), mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		rel, err := s.Store.Read(m.ResultName)
		if err != nil {
			t.Fatal(err)
		}
		fp := rel.Fingerprint()
		if want == 0 {
			want = fp
		} else if fp != want {
			t.Errorf("mode %v produced different data", mode)
		}
		if mode != ModeOriginal && (m.Rewrite == nil || !m.Rewrite.Improved) {
			t.Errorf("mode %v found no rewrite for an identical rerun", mode)
		}
	}
}

func TestRunErrors(t *testing.T) {
	s := demo(t, 10)
	if _, err := s.Run(plan.Scan("missing"), "x", ModeOriginal); err == nil {
		t.Error("bad plan accepted")
	}
	if _, err := s.Run(plan.Scan("logs"), "x", ModeOriginal); err == nil {
		t.Error("trivial plan accepted")
	}
}

func TestDropViews(t *testing.T) {
	s := demo(t, 100)
	if _, err := s.Run(q(), "res", ModeOriginal); err != nil {
		t.Fatal(err)
	}
	s.DropViews()
	if len(s.Cat.Views()) != 0 || len(s.Store.List(storage.View)) != 0 {
		t.Error("views remain after DropViews")
	}
	if !s.Store.Has("logs") {
		t.Error("base data dropped")
	}
}

// TestEvictionKeepsCatalogConsistent: an eviction unlists its view as it
// happens, during a run or from an EnforceBudget with no run after it.
func TestEvictionKeepsCatalogConsistent(t *testing.T) {
	s := demo(t, 400)
	listedStored := func(step string) {
		t.Helper()
		for _, v := range s.Cat.Views() {
			if !s.Store.Has(v.Name) {
				t.Errorf("%s: catalog lists evicted view %s", step, v.Name)
			}
		}
	}
	s.Store.ViewCapacityBytes = 600 // tiny: most views evicted
	if _, err := s.Run(q(), "res", ModeOriginal); err != nil {
		t.Fatal(err)
	}
	listedStored("run")
	// queries still run and rewrite correctly afterwards
	if _, err := s.Run(q(), "res2", ModeBFR); err != nil {
		t.Fatal(err)
	}
	before := len(s.Cat.Views())
	s.Store.ViewCapacityBytes = 1
	s.Store.EnforceBudget()
	if n := len(s.Cat.Views()); n >= before {
		t.Fatalf("the budget evicted nothing: %d views listed before, %d after", before, n)
	}
	listedStored("enforce budget")
}

func TestAppendRowsMaintainsAndInvalidatesDerivedViews(t *testing.T) {
	s := demo(t, 100)
	if _, err := s.Run(q(), "res", ModeOriginal); err != nil {
		t.Fatal(err)
	}
	// an unrelated base table and a view over it
	other := data.NewRelation(data.NewSchema("x"))
	other.Append(data.Row{value.NewInt(1)})
	other.Append(data.Row{value.NewInt(2)})
	s.Store.Put("other", storage.Base, other)
	s.Cat.RegisterBase("other", []string{"x"}, "", cost.Stats{Rows: 2, Bytes: other.EncodedSize()}, nil)
	p2 := plan.GroupAgg(plan.Scan("other"), []string{"x"}, plan.AggSpec{Func: plan.AggCount, As: "n"})
	if _, err := s.Run(p2, "other_agg", ModeOriginal); err != nil {
		t.Fatal(err)
	}
	// identify the distributive aggregate view over "logs" (not the Filter sink)
	aggView := ""
	for _, v := range s.Cat.Views() {
		if v.Name != "res" && slices.Contains(v.Ann.Bases(), "logs") {
			aggView = v.Name
		}
	}
	if aggView == "" {
		t.Fatal("setup: no aggregate view over logs")
	}

	delta := []data.Row{
		{value.NewInt(1000), value.NewInt(1), value.NewStr("wine wine wine")},
	}
	rep, err := s.AppendRows("logs", delta)
	if err != nil {
		t.Fatal(err)
	}
	// the GroupAgg(Apply(Scan)) view is distributive → maintained in place;
	// the Filter-over-aggregate sink "res" cannot be → invalidated.
	if len(rep.Maintained) != 1 || rep.Maintained[0] != aggView {
		t.Fatalf("maintained = %v, want [%s]", rep.Maintained, aggView)
	}
	if len(rep.Invalidated) != 1 || rep.Invalidated[0] != "res" {
		t.Fatalf("invalidated = %v, want [res]", rep.Invalidated)
	}
	if rep.Reasons["res"] == "" {
		t.Error("no reason recorded for invalidated sink")
	}
	if rep.MaintainSeconds <= 0 {
		t.Error("maintenance charged no simulated time")
	}
	if _, ok := s.Cat.Table(aggView); !ok || !s.Store.Has(aggView) {
		t.Error("maintained view missing from catalog or store")
	}
	if _, ok := s.Cat.Table("res"); ok {
		t.Error("invalidated sink still in catalog")
	}
	if _, ok := s.Cat.Table("other_agg"); !ok {
		t.Error("unrelated view invalidated")
	}
	if s.Store.Has("~delta~logs") {
		t.Error("temporary delta table leaked")
	}
	// base stats refreshed
	info, _ := s.Cat.Table("logs")
	if info.Stats.Rows != 101 {
		t.Errorf("rows = %d, want 101", info.Stats.Rows)
	}
	// differential oracle: the maintained view must be byte-identical to a
	// clean session that appended first and then computed the view from scratch
	ref := demo(t, 100)
	if _, err := ref.AppendRows("logs", delta); err != nil {
		t.Fatal(err)
	}
	mref, err := ref.Run(q(), "ref", ModeOriginal)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Store.Read(aggView)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Store.Read(aggView) // same annotation → same view name
	if err != nil {
		t.Fatalf("reference session lacks %s: %v", aggView, err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Error("maintained view diverged from full recompute")
	}
	gi, _ := s.Cat.Table(aggView)
	wi, _ := ref.Cat.Table(aggView)
	if gi.Ann.Canon() != wi.Ann.Canon() {
		t.Error("maintained view annotation diverged from full recompute")
	}
	// fresh query over the appended data sees the new record and matches the
	// clean system's result
	m, err := s.Run(q(), "res2", ModeBFR)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Store.Read(m.ResultName)
	b, _ := ref.Store.Read(mref.ResultName)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("post-append result diverged from clean recompute")
	}
	// errors
	if _, err := s.AppendRows("res2", nil); err == nil {
		t.Error("append to a view accepted")
	}
	if _, err := s.AppendRows("missing", nil); err == nil {
		t.Error("append to missing table accepted")
	}
}

func TestAppendRowsReestimatesDistincts(t *testing.T) {
	s := demo(t, 50) // users 0..4 → 5 distinct
	if _, err := s.Run(q(), "res", ModeOriginal); err != nil {
		t.Fatal(err)
	}
	before, _ := s.Cat.Table("logs")
	if before.Distinct["user"] != 5 {
		t.Fatalf("setup distinct = %d", before.Distinct["user"])
	}
	// append rows introducing 40 new user values
	var rows []data.Row
	for i := 0; i < 200; i++ {
		rows = append(rows, data.Row{
			value.NewInt(int64(5000 + i)), value.NewInt(int64(10 + i%40)), value.NewStr("wine"),
		})
	}
	rep, err := s.AppendRows("logs", rows)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StatsSeconds <= 0 {
		t.Error("no stats-collection overhead charged on append")
	}
	after, _ := s.Cat.Table("logs")
	if after.Stats.Rows != 250 {
		t.Errorf("rows = %d, want 250", after.Stats.Rows)
	}
	if after.Distinct["user"] <= 5 {
		t.Errorf("distinct(user) = %d not re-estimated after append", after.Distinct["user"])
	}
}

// TestStaleRetentionDropsLayoutClaim: a plan that raced an append keeps its
// result readable through its handle but unstored and unregistered — so no
// layout is claimed for it, as the catalog entry is the one record of a
// dataset's layout.
func TestStaleRetentionDropsLayoutClaim(t *testing.T) {
	s := demo(t, 100)
	byUser := plan.GroupAgg(plan.Scan("logs"), []string{"user"}, plan.AggSpec{Func: plan.AggCount, As: "n"})
	queries := []BatchQuery{{Plan: byUser, ResultName: "res", Mode: ModeOriginal}}
	spans := make([]*obs.Span, len(queries))
	plans, err := s.plan(queries, spans)
	if err != nil {
		t.Fatal(err)
	}
	s.Cat.BeginAppend() // an AppendRows began between planning and execution
	x, err := s.execute(plans, false)
	if err == nil {
		err = s.retain(queries, plans, x, spans, spans)
	}
	if err != nil {
		t.Fatal(err)
	}
	if plans[0].m.Result == nil || plans[0].m.Result.Len() == 0 {
		t.Fatal("stale result not readable")
	}
	if s.Store.Has("res") {
		t.Fatal("a run planned before an append stored its result")
	}
	if _, known := s.Cat.Table("res"); known {
		t.Fatal("stale result registered")
	}
}

// TestAppendBetweenPlanAndRegister: an append that begins after a run
// planned and before the run registers its materializations wins. The
// catalog refuses what the run computed over the pre-append base, so the
// next rewritten run of the query answers what a clean recompute over the
// grown base answers, the catalog lists only stored views, and the refusal
// counts once for the plan, not once per job.
func TestAppendBetweenPlanAndRegister(t *testing.T) {
	s := demo(t, 300)
	reg := obs.NewRegistry()
	s.Instrument(reg)
	// Two jobs: the per-user sums, then a histogram of them.
	q := func() *plan.Node {
		return plan.GroupAgg(qThresh(0), []string{"s"}, plan.AggSpec{Func: plan.AggCount, As: "n"})
	}
	batch := ivmBatch(10000, 11)
	appended := false
	BeforeRegister(s, func(string) {
		if !appended {
			appended = true
			if _, err := s.AppendRows("logs", batch); err != nil {
				t.Error(err)
			}
		}
	})
	m, err := s.Run(q(), "raced", ModeOriginal)
	BeforeRegister(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !appended || m.Jobs != 2 {
		t.Fatalf("setup: appended %v, %d jobs; want an append inside a two-job run", appended, m.Jobs)
	}
	if got := reg.Counter("session_stale_retention_discarded_total").Value(); got != 1 {
		t.Errorf("stale retention counted %d times, want once for the plan", got)
	}
	if _, listed := s.Cat.Table("raced"); listed || !s.Store.Has("raced") {
		t.Errorf("raced result: listed %v, stored %v; want readable and unregistered", listed, s.Store.Has("raced"))
	}

	ref := demo(t, 300)
	if _, err := ref.AppendRows("logs", batch); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(q(), "after", ModeOriginal); err != nil {
		t.Fatal(err)
	}
	after, err := s.Run(q(), "after", ModeBFR)
	if err != nil {
		t.Fatal(err)
	}
	got, err := multisetFP(s, after.ResultName)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := multisetFP(ref, "after"); got != want {
		t.Error("a run after the raced one answers other rows than a clean recompute")
	}
	for _, v := range s.Cat.Views() {
		if !s.Store.Has(v.Name) {
			t.Errorf("catalog lists view %s missing from the store", v.Name)
		}
	}
}

// registerAbsent lists info again after its bytes were removed: what a
// retention that lost a race with a delete leaves until its CollectStats
// drops the entry, the one window in which the catalog lists missing bytes.
func registerAbsent(t *testing.T, s *Session, info *meta.TableInfo) {
	t.Helper()
	if info.IsView {
		s.Cat.RegisterView(*info, s.Cat.Epoch())
	} else {
		s.Cat.RegisterBase(info.Name, info.Cols, info.KeyCol, info.Stats, info.Distinct)
	}
	if s.Store.Has(info.Name) || !isListed(s, info.Name) {
		t.Fatalf("%s is not listed without its bytes: the case under test did not arise", info.Name)
	}
}

// deleteListed deletes a dataset's bytes, which unlists it, and lists it
// again (registerAbsent).
func deleteListed(t *testing.T, s *Session, name string) {
	t.Helper()
	info, ok := s.Cat.Table(name)
	if !ok {
		t.Fatalf("%s is not listed", name)
	}
	s.Store.Delete(name)
	if isListed(s, name) {
		t.Fatalf("deleting %s did not unlist it", name)
	}
	registerAbsent(t, s, info)
}

// TestRunReplansAroundVanishedView: the catalog can offer a view the store
// no longer holds (registered by a retention that lost a race with a
// delete). Planning takes a handle on each input before it releases
// planMu, so Run must drop the entry and replan in place — never fail,
// never hand back a result that is not there. A missing base table cannot
// be planned around and is a typed error.
func TestRunReplansAroundVanishedView(t *testing.T) {
	s := demo(t, 100)
	if _, err := s.Run(qThresh(1), "first", ModeOriginal); err != nil {
		t.Fatal(err)
	}
	run := func(th float64, name string) {
		t.Helper()
		m, err := s.Run(qThresh(th), name, ModeBFR)
		if err != nil {
			t.Fatalf("%s: run over a vanished view: %v", name, err)
		}
		if m.ResultName != name || !s.Store.Has(name) {
			t.Errorf("%s: result %q, in store %v; want a fresh materialization", name, m.ResultName, s.Store.Has(name))
		}
		for _, v := range s.Cat.Views() {
			if !s.Store.Has(v.Name) {
				t.Errorf("%s: vanished view %s still listed after the replan", name, v.Name)
			}
		}
	}
	// Every view gone behind the catalog's back: the rewrite over the
	// retained aggregate is abandoned for the original plan.
	for _, v := range s.Cat.Views() {
		deleteListed(t, s, v.Name)
	}
	run(2, "second")
	// The identical view gone: the bare-scan answer is abandoned too.
	deleteListed(t, s, "second")
	run(2, "third")

	deleteListed(t, s, "logs")
	if _, err := s.Run(qThresh(1), "fourth", ModeOriginal); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("run over a missing base: err = %v, want storage.ErrNotFound", err)
	}
}
