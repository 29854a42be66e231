package rewrite_test

import (
	"math"
	"testing"
	"testing/quick"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/expr"
	"opportune/internal/plan"
	"opportune/internal/rewrite"
	"opportune/internal/session"
	"opportune/internal/storage"
	"opportune/internal/udf"
	"opportune/internal/value"
)

// geoSys builds a session with a checkin log and a parameterized tiling UDF.
func geoSys(t *testing.T, rows int) *session.Session {
	t.Helper()
	s := session.New(cost.DefaultParams())
	rel := data.NewRelation(data.NewSchema("cid", "user", "lat", "lon", "spend"))
	for i := 0; i < rows; i++ {
		rel.Append(data.Row{
			value.NewInt(int64(i)),
			value.NewInt(int64(i % 9)),
			value.NewFloat(37 + float64(i%50)/25),
			value.NewFloat(-122 + float64(i%40)/20),
			value.NewFloat(float64(i%17) * 1.5),
		})
	}
	s.Store.Put("checkins", storage.Base, rel)
	s.Cat.RegisterBase("checkins", rel.Schema().Cols(), "cid",
		cost.Stats{Rows: int64(rows), Bytes: rel.EncodedSize()},
		map[string]int64{"user": 9, "cid": int64(rows)})
	if err := s.Cat.UDFs.Register(&udf.Descriptor{
		Name: "TILE", NArgs: 2, NParams: 1, Kind: udf.KindMap, OutNames: []string{"tile"},
		Map: func(args, params []value.V) [][]value.V {
			sz := params[0].Float()
			return [][]value.V{{value.NewStr(
				string(rune('a'+int(math.Floor(args[0].Float()/sz))%26)) +
					string(rune('a'+int(math.Floor(args[1].Float()/sz))%26)))}}
		},
		TrueScalar: 4,
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestParameterizedUDFCompensation: a projection view lacks the tiled
// column; the rewrite must re-apply TILE with the ORIGINAL parameter
// (reconstructed from the signature's parameter fingerprint).
func TestParameterizedUDFCompensation(t *testing.T) {
	s := geoSys(t, 600)
	narrow := plan.Project(plan.Scan("checkins"), "user", "lat", "lon")
	if _, err := s.Run(narrow, "narrow", session.ModeOriginal); err != nil {
		t.Fatal(err)
	}
	mk := func() *plan.Node {
		return plan.GroupAgg(
			plan.Apply(plan.Scan("checkins"), "TILE", []string{"lat", "lon"}, value.NewFloat(0.5)),
			[]string{"tile"}, plan.AggSpec{Func: plan.AggCount, As: "n"})
	}
	m, err := s.Run(mk(), "q", session.ModeBFR)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rewrite == nil || !m.Rewrite.Improved {
		t.Fatal("parameterized compensation not found")
	}
	// the compensated plan must reference the original parameter
	found := false
	plan.Walk(m.Rewrite.Plan, func(n *plan.Node) {
		if n.Kind == plan.KindUDF && n.UDFName == "TILE" {
			if len(n.UDFParams) == 1 && n.UDFParams[0].Float() == 0.5 {
				found = true
			}
		}
	})
	if !found {
		t.Error("rewrite lost the UDF parameter")
	}
	ref := geoSys(t, 600)
	if _, err := ref.Run(mk(), "ref", session.ModeOriginal); err != nil {
		t.Fatal(err)
	}
	a, _ := s.Store.Read("q")
	b, _ := ref.Store.Read("ref")
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("parameterized rewrite produced wrong data")
	}
}

// TestMultiAggregateCompensation: the target needs SUM and AVG over the
// same grouping; both must collapse into ONE GroupAgg compensation unit
// (appUnit.merge) applied to a raw projection view.
func TestMultiAggregateCompensation(t *testing.T) {
	s := geoSys(t, 500)
	narrow := plan.Project(plan.Scan("checkins"), "user", "spend")
	if _, err := s.Run(narrow, "narrow", session.ModeOriginal); err != nil {
		t.Fatal(err)
	}
	mk := func() *plan.Node {
		return plan.GroupAgg(plan.Scan("checkins"), []string{"user"},
			plan.AggSpec{Func: plan.AggSum, Col: "spend", As: "total"},
			plan.AggSpec{Func: plan.AggAvg, Col: "spend", As: "avg_spend"},
			plan.AggSpec{Func: plan.AggMax, Col: "spend", As: "max_spend"},
		)
	}
	m, err := s.Run(mk(), "q", session.ModeBFR)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rewrite == nil || !m.Rewrite.Improved {
		t.Fatal("multi-aggregate compensation not found")
	}
	// exactly one groupagg in the compensation (not one per aggregate)
	groupaggs := 0
	plan.Walk(m.Rewrite.Plan, func(n *plan.Node) {
		if n.Kind == plan.KindGroupAgg {
			groupaggs++
			if len(n.Aggs) != 3 {
				t.Errorf("compensation groupagg has %d aggs, want 3", len(n.Aggs))
			}
		}
	})
	if groupaggs != 1 {
		t.Errorf("groupaggs in rewrite = %d, want 1", groupaggs)
	}
	ref := geoSys(t, 500)
	if _, err := ref.Run(mk(), "ref", session.ModeOriginal); err != nil {
		t.Fatal(err)
	}
	a, _ := s.Store.Read("q")
	b, _ := ref.Store.Read("ref")
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("multi-aggregate rewrite produced wrong data")
	}
}

// TestRegroupOverFinerGroupedView: a view grouped on (user, spend), finer
// than a per-user target, holds one row per group. A relational group-by
// over it may recompute the duplicate-insensitive MIN and MAX, but COUNT(*)
// would count groups and SUM would add each distinct spend once, so
// REWRITEENUM must find no rewrite for those targets.
func TestRegroupOverFinerGroupedView(t *testing.T) {
	s := geoSys(t, 500)
	fine := plan.GroupAgg(plan.Scan("checkins"), []string{"user", "spend"},
		plan.AggSpec{Func: plan.AggCount, As: "n"})
	if _, err := s.Run(fine, "fine", session.ModeOriginal); err != nil {
		t.Fatal(err)
	}
	view, ok := s.Cat.Table("fine")
	if !ok {
		t.Fatal("the grouped view was not retained")
	}
	perUser := func(fn plan.AggFunc) *plan.Node {
		col := "spend"
		if fn == plan.AggCount {
			col = ""
		}
		return plan.GroupAgg(plan.Scan("checkins"), []string{"user"}, plan.AggSpec{Func: fn, Col: col, As: "x"})
	}
	for _, fn := range []plan.AggFunc{plan.AggCount, plan.AggSum, plan.AggMin, plan.AggMax} {
		w, err := s.Opt.Compile(perUser(fn))
		if err != nil {
			t.Fatal(err)
		}
		_, p, _ := rewrite.ProbeCandidate(s.Rew, w.Sink(), view)
		regroupable := fn == plan.AggMin || fn == plan.AggMax
		if got := p != nil; got != regroupable {
			t.Errorf("%s per user from the (user, spend) view: rewrite found = %v, want %v", fn, got, regroupable)
		}
	}

	m, err := s.Run(perUser(plan.AggMax), "q", session.ModeBFR)
	if err != nil {
		t.Fatal(err)
	}
	reads := false
	plan.Walk(m.Rewrite.Plan, func(n *plan.Node) { reads = reads || (n.Kind == plan.KindScan && n.Dataset == "fine") })
	if !reads {
		t.Errorf("MAX per user was not answered from the grouped view: %s", m.Rewrite.Plan.Fingerprint())
	}
	ref := geoSys(t, 500)
	if _, err := ref.Run(perUser(plan.AggMax), "ref", session.ModeOriginal); err != nil {
		t.Fatal(err)
	}
	a, _ := s.Store.Read(m.ResultName)
	b, _ := ref.Store.Read("ref")
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("MAX over the grouped view produced wrong data")
	}
}

// TestThresholdPairsProperty: for random threshold pairs (t1, t2), running
// q(t1) then q(t2) with BFR always matches a fresh original run of q(t2) —
// whether t2 is tighter (reuse via implication), equal (identical view), or
// weaker (no reuse of the filtered result).
func TestThresholdPairsProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property runs many sessions")
	}
	check := func(t1Raw, t2Raw uint8) bool {
		t1 := float64(t1Raw % 30)
		t2 := float64(t2Raw % 30)
		mk := func(th float64) *plan.Node {
			agg := plan.GroupAgg(plan.Scan("checkins"), []string{"user"},
				plan.AggSpec{Func: plan.AggSum, Col: "spend", As: "total"})
			return plan.Filter(agg, expr.NewCmp("total", expr.Gt, value.NewFloat(th)))
		}
		s := geoSys(t, 300)
		if _, err := s.Run(mk(t1), "q1", session.ModeBFR); err != nil {
			t.Fatal(err)
		}
		m, err := s.Run(mk(t2), "q2", session.ModeBFR)
		if err != nil {
			t.Fatal(err)
		}
		ref := geoSys(t, 300)
		if _, err := ref.Run(mk(t2), "ref", session.ModeOriginal); err != nil {
			t.Fatal(err)
		}
		got, err := s.Store.Read(m.ResultName)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := ref.Store.Read("ref")
		return got.Fingerprint() == want.Fingerprint()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestCountersAdd covers the counter aggregation helper.
func TestCountersAdd(t *testing.T) {
	a := rewrite.Counters{CandidatesConsidered: 1, RewriteAttempts: 2, RewritesFound: 3}
	a.Add(rewrite.Counters{CandidatesConsidered: 10, RewriteAttempts: 20, RewritesFound: 30})
	if a.CandidatesConsidered != 11 || a.RewriteAttempts != 22 || a.RewritesFound != 33 {
		t.Errorf("Add = %+v", a)
	}
}
