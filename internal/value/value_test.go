package value

import (
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Null: "null", Int: "int", Float: "float", Str: "string", Bool: "bool",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := NewInt(42); v.Kind() != Int || v.Int() != 42 {
		t.Errorf("NewInt roundtrip failed: %v", v)
	}
	if v := NewFloat(2.5); v.Kind() != Float || v.Float() != 2.5 {
		t.Errorf("NewFloat roundtrip failed: %v", v)
	}
	if v := NewStr("hi"); v.Kind() != Str || v.Str() != "hi" {
		t.Errorf("NewStr roundtrip failed: %v", v)
	}
	if v := NewBool(true); v.Kind() != Bool || !v.Bool() {
		t.Errorf("NewBool(true) roundtrip failed: %v", v)
	}
	if v := NewBool(false); v.Bool() {
		t.Errorf("NewBool(false) roundtrip failed: %v", v)
	}
	if !NullV.IsNull() || NullV.Kind() != Null {
		t.Error("NullV is not null")
	}
	if NewInt(1).IsNull() {
		t.Error("NewInt(1).IsNull() = true")
	}
}

func TestFloatWidening(t *testing.T) {
	if got := NewInt(3).Float(); got != 3.0 {
		t.Errorf("NewInt(3).Float() = %v", got)
	}
	if got := NewBool(true).Float(); got != 1.0 {
		t.Errorf("NewBool(true).Float() = %v", got)
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Str.Int", func() { NewStr("x").Int() })
	mustPanic("Str.Float", func() { NewStr("x").Float() })
	mustPanic("Int.Str", func() { NewInt(1).Str() })
	mustPanic("Int.Bool", func() { NewInt(1).Bool() })
}

func TestCompare(t *testing.T) {
	tests := []struct {
		a, b V
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewInt(2), -1},
		{NewInt(2), NewFloat(2.0), 0},
		{NewStr("a"), NewStr("b"), -1},
		{NewStr("b"), NewStr("b"), 0},
		{NullV, NewInt(0), -1},
		{NewInt(0), NullV, 1},
		{NullV, NullV, 0},
		{NewBool(false), NewBool(true), -1},
		{NewBool(true), NewBool(true), 0},
		// cross-kind non-numeric: orders by kind
		{NewFloat(1), NewStr("a"), -1},
	}
	for _, tc := range tests {
		if got := Compare(tc.a, tc.b); got != tc.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestEqualHashConsistency(t *testing.T) {
	pairs := [][2]V{
		{NewInt(7), NewInt(7)},
		{NewStr("abc"), NewStr("abc")},
		{NewBool(true), NewBool(true)},
		{NullV, NullV},
		{NewFloat(1.25), NewFloat(1.25)},
	}
	for _, p := range pairs {
		if !Equal(p[0], p[1]) {
			t.Errorf("Equal(%v,%v) = false", p[0], p[1])
		}
		if p[0].Hash() != p[1].Hash() {
			t.Errorf("hash mismatch for equal values %v", p[0])
		}
	}
	if NewInt(1).Hash() == NewInt(2).Hash() {
		t.Error("distinct ints hash equal (suspicious)")
	}
	if NewStr("a").Hash() == NewStr("b").Hash() {
		t.Error("distinct strings hash equal (suspicious)")
	}
}

func TestEncodedSize(t *testing.T) {
	tests := []struct {
		v    V
		want int
	}{
		{NullV, 1},
		{NewInt(5), 9},
		{NewFloat(5), 9},
		{NewBool(true), 2},
		{NewStr("abcd"), 1 + 4 + 4},
		{NewStr(""), 5},
	}
	for _, tc := range tests {
		if got := tc.v.EncodedSize(); got != tc.want {
			t.Errorf("EncodedSize(%v) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestStringAndParseRoundTrip(t *testing.T) {
	vals := []V{NewInt(-3), NewFloat(2.5), NewStr("hello"), NewBool(true), NewBool(false), NullV}
	for _, v := range vals {
		got := Parse(v.String())
		if !Equal(got, v) {
			t.Errorf("Parse(String(%v)) = %v", v, got)
		}
	}
	// Strings that look numeric parse as numbers; that is intended.
	if Parse("10").Kind() != Int {
		t.Error(`Parse("10") not Int`)
	}
	if Parse("1.5").Kind() != Float {
		t.Error(`Parse("1.5") not Float`)
	}
	if Parse("NULL").Kind() != Null {
		t.Error(`Parse("NULL") not Null`)
	}
}

func TestCompareTotalOrderProperties(t *testing.T) {
	// Property: Compare is antisymmetric and consistent with Equal for
	// arbitrary int/float/string triples.
	f := func(ai int64, bf float64, s string) bool {
		vs := []V{NewInt(ai), NewFloat(bf), NewStr(s), NullV, NewBool(ai%2 == 0)}
		for _, a := range vs {
			for _, b := range vs {
				if Compare(a, b) != -Compare(b, a) {
					return false
				}
				if (Compare(a, b) == 0) != Equal(a, b) {
					return false
				}
			}
			if Compare(a, a) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareTransitivityProperty(t *testing.T) {
	f := func(a, b, c float64, x, y, z int64) bool {
		vs := []V{NewFloat(a), NewFloat(b), NewFloat(c), NewInt(x), NewInt(y), NewInt(z)}
		for _, p := range vs {
			for _, q := range vs {
				for _, r := range vs {
					if Compare(p, q) <= 0 && Compare(q, r) <= 0 && Compare(p, r) > 0 {
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestFloatSpecials(t *testing.T) {
	inf := NewFloat(math.Inf(1))
	if Compare(inf, NewFloat(1e300)) != 1 {
		t.Error("+inf should be greater than 1e300")
	}
	if inf.EncodedSize() != 9 {
		t.Error("inf size")
	}
}

// TestStrCellsKeepTheirBytesAcrossGC: strings built at run time and held only
// through V cells, beside cells of every other kind, survive collections —
// the cell's data pointer is what the collector traces — and read back
// unchanged after memory freed around them has been reused.
func TestStrCellsKeepTheirBytesAcrossGC(t *testing.T) {
	const n = 5000
	build := func(i int) string { return strings.Repeat(strconv.Itoa(i), 1+i%7) + "|" }
	cells := make([]V, 0, 5*n)
	for i := 0; i < n; i++ {
		s := build(i)
		cells = append(cells, NewStr(s), NewInt(int64(i)), NewStr(s[len(s):]), NewFloat(float64(i)/2), NullV)
	}
	for round := 0; round < 3; round++ {
		runtime.GC()
		junk := make([]string, n)
		for i := range junk {
			junk[i] = strings.Repeat("x", 1+i%40)
		}
		runtime.KeepAlive(junk)
	}
	runtime.GC()
	for i := 0; i < n; i++ {
		c := cells[5*i : 5*i+5]
		if got, want := c[0].Str(), build(i); got != want {
			t.Fatalf("cell %d reads %q after GC, want %q", i, got, want)
		}
		if c[1].Int() != int64(i) || c[2].Kind() != Str || c[2].Str() != "" || c[3].Float() != float64(i)/2 || !c[4].IsNull() {
			t.Fatalf("cells beside string %d changed after GC: %v", i, c)
		}
	}
}
