package plan_test

import (
	"strings"
	"testing"

	"opportune/internal/cost"
	"opportune/internal/expr"
	"opportune/internal/meta"
	"opportune/internal/plan"
	"opportune/internal/udf"
	"opportune/internal/value"
)

func testCatalog(t *testing.T) *meta.Catalog {
	t.Helper()
	cat := meta.NewCatalog()
	cat.RegisterBase("twtr", []string{"tweet_id", "user_id", "text", "reply_to"}, "tweet_id",
		cost.Stats{Rows: 1000, Bytes: 100000}, map[string]int64{"user_id": 100})
	cat.RegisterBase("fsq", []string{"checkin_id", "user_id", "location_id"}, "checkin_id",
		cost.Stats{Rows: 500, Bytes: 20000}, nil)
	err := cat.UDFs.Register(&udf.Descriptor{
		Name: "UDF_SENT", NArgs: 1, Kind: udf.KindMap, OutNames: []string{"score"},
		Map: func(args, _ []value.V) [][]value.V {
			return [][]value.V{{value.NewFloat(float64(len(args[0].Str())))}}
		},
		TrueScalar: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = cat.UDFs.Register(&udf.Descriptor{
		Name: "UDF_USERSUM", NArgs: 2, Kind: udf.KindAgg,
		KeyNames: []string{"user_id"}, KeyArgs: []int{0}, OutNames: []string{"total"},
		Reduce: func(_ []value.V, ps [][]value.V, _ []value.V) []value.V {
			var s float64
			for _, p := range ps {
				s += p[0].Float()
			}
			return []value.V{value.NewFloat(s)}
		},
		TrueScalar: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestAnnotateScanProjectFilter(t *testing.T) {
	cat := testCatalog(t)
	p := plan.Filter(
		plan.Project(plan.Scan("twtr"), "user_id", "text"),
		expr.NewCmp("user_id", expr.Gt, value.NewInt(10)),
	)
	if err := plan.Annotate(p, cat); err != nil {
		t.Fatal(err)
	}
	if len(p.OutCols) != 2 {
		t.Errorf("OutCols = %v", p.OutCols)
	}
	if len(p.Ann.F) != 1 {
		t.Errorf("F = %v", p.Ann.F)
	}
	// K survives projection
	if !p.Ann.K.HasID("b:twtr.tweet_id") {
		t.Error("lost record key")
	}
}

func TestAnnotateErrors(t *testing.T) {
	cat := testCatalog(t)
	cases := []*plan.Node{
		plan.Scan("nope"),
		plan.Project(plan.Scan("twtr"), "missing"),
		plan.Filter(plan.Scan("twtr"), expr.NewCmp("missing", expr.Eq, value.NewInt(1))),
		plan.JoinNodes(plan.Scan("twtr"), plan.Scan("fsq"), "missing", "user_id"),
		plan.JoinNodes(plan.Scan("twtr"), plan.Scan("fsq"), "user_id", "missing"),
		plan.GroupAgg(plan.Scan("twtr"), []string{"missing"}),
		plan.GroupAgg(plan.Scan("twtr"), []string{"user_id"}, plan.AggSpec{Func: plan.AggCount, Col: "", As: ""}),
		plan.GroupAgg(plan.Scan("twtr"), []string{"user_id"}, plan.AggSpec{Func: plan.AggSum, Col: "", As: "s"}),
		plan.GroupAgg(plan.Scan("twtr"), []string{"user_id"}, plan.AggSpec{Func: plan.AggSum, Col: "missing", As: "s"}),
		plan.Apply(plan.Scan("twtr"), "NOPE", []string{"text"}),
		plan.Apply(plan.Scan("twtr"), "UDF_SENT", []string{"missing"}),
	}
	for i, p := range cases {
		if err := plan.Annotate(p, cat); err == nil {
			t.Errorf("case %d: bad plan annotated", i)
		}
	}
}

func TestAnnotateJoinSharedKey(t *testing.T) {
	cat := testCatalog(t)
	// user_id of twtr and fsq are DIFFERENT base sigs; join keeps both names?
	// fsq side's user_id collides with twtr's -> ambiguous error expected.
	p := plan.JoinNodes(plan.Scan("twtr"), plan.Scan("fsq"), "user_id", "user_id")
	if err := plan.Annotate(p, cat); err == nil {
		t.Error("ambiguous column accepted")
	} else if !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("unexpected error: %v", err)
	}
	// After projecting away the collision it works.
	p2 := plan.JoinNodes(
		plan.Project(plan.Scan("twtr"), "user_id", "text"),
		plan.Project(plan.Scan("fsq"), "checkin_id", "location_id"),
		"user_id", "checkin_id") // silly join, but name-collision free
	if err := plan.Annotate(p2, cat); err != nil {
		t.Fatal(err)
	}
	if len(p2.OutCols) != 4 {
		t.Errorf("OutCols = %v", p2.OutCols)
	}
	// join condition in F
	hasJoin := false
	for _, pr := range p2.Ann.F {
		if pr.Kind == expr.KindAttrEq {
			hasJoin = true
		}
	}
	if !hasJoin {
		t.Error("join condition not recorded")
	}
}

func TestAnnotateJoinSameSigDedups(t *testing.T) {
	cat := testCatalog(t)
	// Self-join-ish: both sides derive from twtr.user_id (same signature).
	l := plan.GroupAgg(plan.Scan("twtr"), []string{"user_id"}, plan.AggSpec{Func: plan.AggCount, As: "n"})
	r := plan.GroupAgg(plan.Filter(plan.Scan("twtr"), expr.NewCmp("user_id", expr.Gt, value.NewInt(5))),
		[]string{"user_id"}, plan.AggSpec{Func: plan.AggCount, As: "m"})
	p := plan.JoinNodes(l, r, "user_id", "user_id")
	if err := plan.Annotate(p, cat); err != nil {
		t.Fatal(err)
	}
	// user_id appears once in OutCols
	count := 0
	for _, c := range p.OutCols {
		if c == "user_id" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("user_id count = %d in %v", count, p.OutCols)
	}
}

func TestAnnotateGroupAgg(t *testing.T) {
	cat := testCatalog(t)
	p := plan.GroupAgg(plan.Scan("twtr"), []string{"user_id"},
		plan.AggSpec{Func: plan.AggCount, As: "n"},
		plan.AggSpec{Func: plan.AggSum, Col: "reply_to", As: "s"},
	)
	if err := plan.Annotate(p, cat); err != nil {
		t.Fatal(err)
	}
	if len(p.OutCols) != 3 || p.OutCols[0] != "user_id" {
		t.Errorf("OutCols = %v", p.OutCols)
	}
	nSig := p.Ann.MustSig("n")
	if !nSig.Agg {
		t.Error("count sig not Agg")
	}
	// FD registered keys -> agg
	if !cat.FDs.Determines([]string{p.Ann.MustSig("user_id").ID()}, nSig.ID()) {
		t.Error("keys->agg FD missing")
	}
	// grouping context: same agg over filtered input differs
	p2 := plan.GroupAgg(plan.Filter(plan.Scan("twtr"), expr.NewCmp("user_id", expr.Gt, value.NewInt(1))),
		[]string{"user_id"}, plan.AggSpec{Func: plan.AggCount, As: "n"})
	if err := plan.Annotate(p2, cat); err != nil {
		t.Fatal(err)
	}
	if p2.Ann.MustSig("n").ID() == nSig.ID() {
		t.Error("filter context ignored in agg identity")
	}
}

func TestAnnotateUDFNodes(t *testing.T) {
	cat := testCatalog(t)
	p := plan.Apply(plan.Scan("twtr"), "UDF_SENT", []string{"text"})
	if err := plan.Annotate(p, cat); err != nil {
		t.Fatal(err)
	}
	if len(p.OutCols) != 5 || p.OutCols[4] != "score" {
		t.Errorf("OutCols = %v", p.OutCols)
	}
	agg := plan.Apply(p, "UDF_USERSUM", []string{"user_id", "score"})
	if err := plan.Annotate(agg, cat); err != nil {
		t.Fatal(err)
	}
	if len(agg.OutCols) != 2 || agg.OutCols[0] != "user_id" || agg.OutCols[1] != "total" {
		t.Errorf("agg OutCols = %v", agg.OutCols)
	}
	if !agg.Ann.Grouped {
		t.Error("agg UDF output not grouped")
	}
}

func TestFingerprint(t *testing.T) {
	cat := testCatalog(t)
	mk := func(lit int64) *plan.Node {
		p := plan.Filter(plan.Project(plan.Scan("twtr"), "user_id"), expr.NewCmp("user_id", expr.Gt, value.NewInt(lit)))
		if err := plan.Annotate(p, cat); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if mk(5).Fingerprint() != mk(5).Fingerprint() {
		t.Error("same plan, different fingerprints")
	}
	if mk(5).Fingerprint() == mk(6).Fingerprint() {
		t.Error("different literal, same fingerprint")
	}
	// op order matters syntactically (the caching-baseline property, §8.3.4)
	a := plan.Filter(plan.Filter(plan.Scan("twtr"), expr.NewCmp("user_id", expr.Gt, value.NewInt(1))), expr.NewCmp("reply_to", expr.Gt, value.NewInt(2)))
	b := plan.Filter(plan.Filter(plan.Scan("twtr"), expr.NewCmp("reply_to", expr.Gt, value.NewInt(2))), expr.NewCmp("user_id", expr.Gt, value.NewInt(1)))
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("filter order ignored syntactically")
	}
	// ... but the ANNOTATIONS are equal (the semantic win of the paper)
	if err := plan.Annotate(a, cat); err != nil {
		t.Fatal(err)
	}
	if err := plan.Annotate(b, cat); err != nil {
		t.Fatal(err)
	}
	if !a.Ann.Equal(b.Ann) {
		t.Error("reordered filters not semantically equal")
	}
}

func TestCloneAndSubstitute(t *testing.T) {
	cat := testCatalog(t)
	scan := plan.Scan("twtr")
	p := plan.Filter(plan.Project(scan, "user_id", "text"), expr.NewCmp("user_id", expr.Gt, value.NewInt(1)))
	if err := plan.Annotate(p, cat); err != nil {
		t.Fatal(err)
	}
	c := p.Clone()
	c.Inputs[0].Cols[0] = "text" // mutate clone
	if p.Inputs[0].Cols[0] != "user_id" {
		t.Error("Clone aliases")
	}
	// plan.Substitute the scan with a view scan
	repl := map[*plan.Node]*plan.Node{scan: plan.Scan("some_view")}
	s := plan.Substitute(p, repl)
	if s.Inputs[0].Inputs[0].Dataset != "some_view" {
		t.Error("Substitute missed")
	}
	if p.Inputs[0].Inputs[0].Dataset != "twtr" {
		t.Error("Substitute mutated original")
	}
}

func TestWalkOrder(t *testing.T) {
	p := plan.Filter(plan.Project(plan.Scan("twtr"), "user_id"), expr.NewCmp("user_id", expr.Gt, value.NewInt(1)))
	var kinds []plan.Kind
	plan.Walk(p, func(n *plan.Node) { kinds = append(kinds, n.Kind) })
	want := []plan.Kind{plan.KindScan, plan.KindProject, plan.KindFilter}
	if len(kinds) != 3 {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("walk order = %v", kinds)
		}
	}
}

func TestStringRendering(t *testing.T) {
	p := plan.JoinNodes(plan.Scan("a"), plan.GroupAgg(plan.Scan("b"), []string{"k"}), "x", "k")
	s := p.String()
	for _, want := range []string{"join", "scan a", "groupagg", "scan b"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
	if plan.KindScan.String() != "scan" || plan.Kind(99).String() != "kind(99)" {
		t.Error("Kind names")
	}
}

func TestSortNodeAnnotation(t *testing.T) {
	cat := testCatalog(t)
	base := plan.Project(plan.Scan("twtr"), "user_id", "reply_to")
	s := plan.Sort(base, []string{"reply_to"}, []bool{true}, 10)
	if err := plan.Annotate(s, cat); err != nil {
		t.Fatal(err)
	}
	if !s.Ann.Limited {
		t.Error("LIMIT did not taint")
	}
	if len(s.OutCols) != 2 {
		t.Errorf("OutCols = %v", s.OutCols)
	}
	// pure sort: no taint, annotation identical to input
	s2 := plan.Sort(plan.Project(plan.Scan("twtr"), "user_id", "reply_to"), []string{"user_id"}, nil, -1)
	if err := plan.Annotate(s2, cat); err != nil {
		t.Fatal(err)
	}
	if s2.Ann.Limited {
		t.Error("pure ORDER BY tainted")
	}
	if !s2.Ann.Equal(s2.Inputs[0].Ann) {
		t.Error("sort changed the set-semantics annotation")
	}
	// fingerprints distinguish sort specs
	mk := func(desc bool, lim int64) string {
		n := plan.Sort(plan.Scan("twtr"), []string{"user_id"}, []bool{desc}, lim)
		return n.Fingerprint()
	}
	if mk(true, 5) == mk(false, 5) || mk(true, 5) == mk(true, 6) {
		t.Error("sort fingerprint ignores spec")
	}
	// clone copies sort fields
	c := s.Clone()
	c.SortCols[0] = "user_id"
	if s.SortCols[0] != "reply_to" {
		t.Error("Clone aliases SortCols")
	}
	// rendering
	if !strings.Contains(s.String(), "sort reply_to limit=10") {
		t.Errorf("String = %q", s.String())
	}
	// errors
	bad := plan.Sort(plan.Scan("twtr"), []string{"missing"}, nil, -1)
	if err := plan.Annotate(bad, cat); err == nil {
		t.Error("sort on missing column accepted")
	}
	bad2 := plan.Sort(plan.Scan("twtr"), []string{"user_id"}, []bool{true, false}, -1)
	if err := plan.Annotate(bad2, cat); err == nil {
		t.Error("mismatched desc flags accepted")
	}
}

func TestProjectAsValidation(t *testing.T) {
	cat := testCatalog(t)
	p := plan.ProjectAs(plan.Scan("twtr"), []string{"user_id", "text"}, []string{"uid", "msg"})
	if err := plan.Annotate(p, cat); err != nil {
		t.Fatal(err)
	}
	if p.OutCols[0] != "uid" || p.Ann.SigOf("uid") == nil || p.Ann.SigOf("user_id") != nil {
		t.Errorf("rename wrong: %v", p.OutCols)
	}
	// signature preserved under rename
	if p.Ann.MustSig("uid").ID() != "b:twtr.user_id" {
		t.Error("rename changed identity")
	}
	bad := plan.ProjectAs(plan.Scan("twtr"), []string{"user_id"}, []string{"a", "b"})
	if err := plan.Annotate(bad, cat); err == nil {
		t.Error("length-mismatched rename accepted")
	}
}
