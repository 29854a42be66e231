package afk

import (
	"slices"
	"strings"
	"testing"

	"opportune/internal/expr"
	"opportune/internal/value"
)

func baseAnn() Annotation {
	return NewBase("logs", []string{"id", "user", "text"}, "id")
}

// aggAnn models GroupAgg(logs, keys=[user], f(text) AS out) the way plan
// annotation mints it: an "agg_"+func signature grouped by the key sigs.
func aggAnn(fn string) Annotation {
	b := baseAnn()
	keys := []*Sig{b.MustSig("user")}
	s := AggSig("agg_"+fn, "", []*Sig{b.MustSig("text")}, "", keys)
	return b.GroupBy([]string{"user"}, []Attr{{Name: "out", Sig: s}})
}

func TestMaintainableAccepts(t *testing.T) {
	cases := map[string]Annotation{
		"base scan":       baseAnn(),
		"projection":      baseAnn().Project("user", "text"),
		"filtered":        baseAnn().WithFilter(expr.NewCmp("user", expr.Gt, value.NewInt(2))),
		"count":           aggAnn("count"),
		"sum":             aggAnn("sum"),
		"min":             aggAnn("min"),
		"max":             aggAnn("max"),
		"filter then agg": baseAnn().WithFilter(expr.NewCmp("user", expr.Gt, value.NewInt(1))).GroupBy([]string{"user"}, nil),
		// A join is not an annotation-level rejection: whether the view is
		// linear in the appended table is the plan gate's question.
		"join": Join(baseAnn(), NewBase("users", []string{"uid", "name"}, "uid"), "user", "uid"),
	}
	for name, ann := range cases {
		if v := Maintainable(ann, "logs"); !v.OK {
			t.Errorf("%s rejected: %s", name, v.Reason)
		}
	}
}

// TestBasesSeesThroughJoinPredicates: a grouped view over a join keeps only
// the grouping side's columns in A and K; the other table survives in F's
// join predicate, and an append to it must still find the view.
func TestBasesSeesThroughJoinPredicates(t *testing.T) {
	j := Join(baseAnn(), NewBase("users", []string{"uid", "name"}, "uid"), "user", "uid")
	g := j.GroupBy([]string{"user"}, []Attr{{Name: "n", Sig: AggSig("agg_count", "", []*Sig{j.MustSig("user")}, j.F.Canon(), []*Sig{j.MustSig("user")})}})
	if got := g.Bases(); !slices.Equal(got, []string{"logs", "users"}) {
		t.Errorf("Bases() = %v, want [logs users]", got)
	}
	if got := baseAnn().Project("user").Bases(); !slices.Equal(got, []string{"logs"}) {
		t.Errorf("Bases() = %v, want [logs]", got)
	}
	for _, table := range []string{"logs", "users"} {
		if v := Maintainable(g, table); !v.OK {
			t.Errorf("append to %s rejected: %s", table, v.Reason)
		}
	}
}

// TestRollups pins how each distributive aggregate folds two finalized
// outputs: kind of the result, null-skipping, and the compensated SUM.
func TestRollups(t *testing.T) {
	null := value.NullV
	a, b := 0.1, 0.2 // variables: a constant 0.1+0.2 is the exact 0.3
	cases := []struct {
		agg              string
		old, delta, want value.V
	}{
		{"agg_count", value.NewInt(3), value.NewInt(4), value.NewInt(7)},
		{"agg_sum", value.NewFloat(1e16), value.NewFloat(1), value.NewFloat(1e16 + 1)},
		{"agg_sum", value.NewFloat(a), value.NewFloat(b), value.NewFloat(a + b)},
		{"agg_min", value.NewInt(3), value.NewInt(2), value.NewInt(2)},
		{"agg_min", value.NewInt(2), value.NewInt(3), value.NewInt(2)},
		{"agg_min", null, value.NewInt(3), value.NewInt(3)},
		{"agg_min", value.NewInt(3), null, value.NewInt(3)},
		{"agg_max", value.NewStr("a"), value.NewStr("b"), value.NewStr("b")},
		{"agg_max", value.NewStr("b"), value.NewStr("a"), value.NewStr("b")},
		{"agg_max", null, null, null},
	}
	for _, c := range cases {
		if got := Rollups[c.agg](c.old, c.delta); !value.Identical(got, c.want) {
			t.Errorf("%s(%v, %v) = %v, want %v", c.agg, c.old, c.delta, got, c.want)
		}
	}
	if Rollups["agg_avg"] != nil {
		t.Error("AVG has a rollup; it does not merge from finalized outputs")
	}
}

func TestMaintainableRejects(t *testing.T) {
	b := baseAnn()
	aggOut := aggAnn("sum")

	// a derived attribute consuming an aggregate output
	derived := aggOut.WithAttr("d", DerivedSig("scale", "", []*Sig{aggOut.MustSig("out")}))

	// an aggregate over an aggregate (re-aggregation of a grouped view)
	inner := aggOut.MustSig("out")
	nested := aggOut.GroupBy([]string{"user"},
		[]Attr{{Name: "n2", Sig: AggSig("agg_sum", "", []*Sig{inner}, "", []*Sig{aggOut.MustSig("user")})}})

	cases := []struct {
		name   string
		ann    Annotation
		table  string
		reason string
	}{
		{"limit taint", b.WithLimited(), "logs", "LIMIT"},
		{"avg", aggAnn("avg"), "logs", "non-distributive"},
		{"black-box agg UDF", aggAnn("SKETCH"), "logs", "non-distributive"},
		{"wrong table", b, "users", "lineage"},
		{"filter over aggregate", aggOut.WithFilter(expr.NewCmp("out", expr.Gt, value.NewFloat(1))), "logs", "filter over aggregate"},
		{"derived over aggregate", derived, "logs", "consumes aggregate"},
		{"nested aggregate", nested, "logs", "nested aggregate"},
	}
	for _, c := range cases {
		v := Maintainable(c.ann, c.table)
		if v.OK {
			t.Errorf("%s accepted, want rejection", c.name)
			continue
		}
		if !strings.Contains(v.Reason, c.reason) {
			t.Errorf("%s: reason %q does not mention %q", c.name, v.Reason, c.reason)
		}
	}
}
