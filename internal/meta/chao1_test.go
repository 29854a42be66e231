package meta

import (
	"math"
	"math/rand"
	"testing"

	"opportune/internal/data"
	"opportune/internal/value"
)

// chao1Text is the reference chao1: frequencies keyed by each value's text.
func chao1Text(sample *data.Relation, col string, sampleRows, totalRows int64) int64 {
	ix := sample.Schema().MustIndex(col)
	counts := make(map[string]int64)
	for _, r := range sample.Rows() {
		counts[r[ix].String()]++
	}
	d := int64(len(counts))
	if d == sampleRows && sampleRows > 1 {
		return totalRows
	}
	var f1, f2 int64
	for _, n := range counts {
		switch n {
		case 1:
			f1++
		case 2:
			f2++
		}
	}
	est := d + (f1*(f1-1))/(2*(f2+1))
	if est > totalRows {
		est = totalRows
	}
	if est < 1 && totalRows > 0 {
		est = 1
	}
	return est
}

// column builds a one-column relation c holding vals.
func column(vals ...value.V) *data.Relation {
	rel := data.NewRelation(data.NewSchema("c"))
	for _, v := range vals {
		rel.Append(data.Row{v})
	}
	return rel
}

// TestChao1MatchesText requires chao1 to give the text-keyed reference's
// estimate on every kind and on the values whose text and bits disagree:
// -0 and 0 (two texts), NaNs with different payloads (one text), an Int, a
// Float and a Str spelling "1", Null beside Str "NULL", Bool true beside
// Str "true", and mixed-kind columns. Then on random columns drawn from
// all of those.
func TestChao1MatchesText(t *testing.T) {
	i, f, s := value.NewInt, value.NewFloat, value.NewStr
	nan := func(bits uint64) value.V { return f(math.Float64frombits(bits)) }
	negZero := f(math.Copysign(0, -1))
	cases := map[string]*data.Relation{
		"empty":         column(),
		"one":           column(i(7)),
		"ints":          column(i(1), i(1), i(2), i(3), i(3), i(3), i(-4), i(0), i(0), i(math.MaxInt64), i(math.MinInt64)),
		"ints-unique":   column(i(1), i(2), i(3), i(4)),
		"floats":        column(f(1.5), f(1.5), f(0.1), f(0.1+0.2), f(0.3), f(1e300), f(2)),
		"zeros":         column(f(0), negZero, f(0), negZero, negZero, f(1)),
		"nans":          column(nan(0x7ff8000000000001), nan(0x7ff0000000000001), nan(0xfff8000000000000), f(math.NaN()), f(1)),
		"infs":          column(f(math.Inf(1)), f(math.Inf(-1)), f(math.Inf(1)), f(math.MaxFloat64), f(-math.MaxFloat64)),
		"strs":          column(s("a"), s("a"), s(""), s(""), s("b"), s("NaN"), s("c")),
		"bools":         column(value.NewBool(true), value.NewBool(false), value.NewBool(true)),
		"nulls":         column(value.NullV, value.NullV, value.NullV),
		"one-texts":     column(i(1), f(1), s("1"), i(2), f(2.5)),
		"null-text":     column(value.NullV, s("NULL"), value.NullV, s("null")),
		"bool-text":     column(value.NewBool(true), s("true"), value.NewBool(false), s("false"), s("false")),
		"int-and-null":  column(i(1), value.NullV, i(1), i(2), value.NullV),
		"null-first":    column(value.NullV, f(2), f(2), nan(0x7ff8000000000003), value.NullV, f(math.NaN())),
		"float-and-int": column(f(3), i(3), f(3.5), i(4), f(4), nan(0x7ff8000000000002), s("NaN")),
		"float-and-str": column(f(-0.5), s("-0.5"), negZero, s("-0"), f(math.Inf(1)), s("+Inf")),
	}
	check := func(name string, rel *data.Relation) {
		t.Helper()
		n := int64(rel.Len())
		for _, total := range []int64{0, 1, n, 3 * n, 100 * n} {
			if got, want := chao1(rel, "c", n, total), chao1Text(rel, "c", n, total); got != want {
				t.Errorf("%s (%d rows, total %d): chao1 %d, text reference %d", name, n, total, got, want)
			}
		}
	}
	for name, rel := range cases {
		check(name, rel)
	}

	// Random columns over a small alphabet, so most values repeat: Ints and
	// nulls, Floats and nulls, and mixed draws.
	ints := []value.V{i(0), i(1), i(2), i(-1), value.NullV}
	floats := []value.V{f(0), negZero, f(1), f(2.5), f(math.Inf(-1)), nan(0x7ff8000000000001), nan(0xfff0000000000003), value.NullV}
	alphabet := append(append(ints, floats...), s("1"), s("0"), s("NULL"), s("NaN"), s("true"), s(""),
		value.NewBool(true), value.NewBool(false))
	rng := rand.New(rand.NewSource(53))
	for round := 0; round < 300; round++ {
		from := [][]value.V{ints, floats, alphabet}[round%3]
		vals := make([]value.V, rng.Intn(40))
		for k := range vals {
			vals[k] = from[rng.Intn(len(from))]
		}
		check("random", column(vals...))
	}
}
