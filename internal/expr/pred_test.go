package expr

import (
	"testing"
	"testing/quick"

	"opportune/internal/value"
)

func TestCmpOpStringParse(t *testing.T) {
	for _, tok := range []string{"=", "!=", "<", "<=", ">", ">="} {
		op, ok := ParseCmpOp(tok)
		if !ok {
			t.Fatalf("ParseCmpOp(%q) failed", tok)
		}
		if op.String() != tok {
			t.Errorf("round trip %q -> %q", tok, op.String())
		}
	}
	if op, ok := ParseCmpOp("=="); !ok || op != Eq {
		t.Error("== not parsed as Eq")
	}
	if op, ok := ParseCmpOp("<>"); !ok || op != Ne {
		t.Error("<> not parsed as Ne")
	}
	if _, ok := ParseCmpOp("~~"); ok {
		t.Error("~~ parsed")
	}
}

func TestCanonEquality(t *testing.T) {
	a := NewCmp("x", Gt, value.NewFloat(0.5))
	b := NewCmp("x", Gt, value.NewFloat(0.5))
	if a.Canon() != b.Canon() {
		t.Error("identical predicates differ canonically")
	}
	// Int 1 and Float 1 are different canonical predicates even though they
	// compare equal as values — canonical form includes the kind.
	c := NewCmp("x", Gt, value.NewInt(1))
	d := NewCmp("x", Gt, value.NewFloat(1))
	if c.Canon() == d.Canon() {
		t.Error("int/float literals canonicalize identically")
	}
	// AttrEq symmetry
	if NewAttrEq("a", "b").Canon() != NewAttrEq("b", "a").Canon() {
		t.Error("attr equality not symmetric in canonical form")
	}
	// Opaque arg order matters
	if NewOpaque("f", "a", "b").Canon() == NewOpaque("f", "b", "a").Canon() {
		t.Error("opaque arg order ignored")
	}
}

func TestImpliesComparisons(t *testing.T) {
	f := func(v float64) value.V { return value.NewFloat(v) }
	tests := []struct {
		p, q Pred
		want bool
	}{
		// x < 5 ⇒ x < 10
		{NewCmp("x", Lt, f(5)), NewCmp("x", Lt, f(10)), true},
		// x < 10 ⇏ x < 5
		{NewCmp("x", Lt, f(10)), NewCmp("x", Lt, f(5)), false},
		// x < 5 ⇒ x <= 5
		{NewCmp("x", Lt, f(5)), NewCmp("x", Le, f(5)), true},
		// x <= 5 ⇏ x < 5
		{NewCmp("x", Le, f(5)), NewCmp("x", Lt, f(5)), false},
		// x <= 4 ⇒ x < 5
		{NewCmp("x", Le, f(4)), NewCmp("x", Lt, f(5)), true},
		// x > 5 ⇒ x > 5 (self)
		{NewCmp("x", Gt, f(5)), NewCmp("x", Gt, f(5)), true},
		// x > 5 ⇒ x >= 5
		{NewCmp("x", Gt, f(5)), NewCmp("x", Ge, f(5)), true},
		// x >= 6 ⇒ x > 5
		{NewCmp("x", Ge, f(6)), NewCmp("x", Gt, f(5)), true},
		// x >= 5 ⇏ x > 5
		{NewCmp("x", Ge, f(5)), NewCmp("x", Gt, f(5)), false},
		// x = 3 ⇒ x < 10
		{NewCmp("x", Eq, f(3)), NewCmp("x", Lt, f(10)), true},
		// x = 3 ⇒ x >= 3
		{NewCmp("x", Eq, f(3)), NewCmp("x", Ge, f(3)), true},
		// x = 3 ⇏ x > 3
		{NewCmp("x", Eq, f(3)), NewCmp("x", Gt, f(3)), false},
		// x = 3 ⇒ x != 5
		{NewCmp("x", Eq, f(3)), NewCmp("x", Ne, f(5)), true},
		// x < 5 ⇒ x != 7
		{NewCmp("x", Lt, f(5)), NewCmp("x", Ne, f(7)), true},
		// x < 5 ⇒ x != 5
		{NewCmp("x", Lt, f(5)), NewCmp("x", Ne, f(5)), true},
		// x <= 5 ⇏ x != 5
		{NewCmp("x", Le, f(5)), NewCmp("x", Ne, f(5)), false},
		// different attributes never imply
		{NewCmp("x", Lt, f(5)), NewCmp("y", Lt, f(10)), false},
		// x != 3 implies only itself
		{NewCmp("x", Ne, f(3)), NewCmp("x", Ne, f(3)), true},
		{NewCmp("x", Ne, f(3)), NewCmp("x", Lt, f(10)), false},
		// string comparisons
		{NewCmp("s", Eq, value.NewStr("a")), NewCmp("s", Lt, value.NewStr("b")), true},
		// mixed kinds: conservatively no implication beyond identity
		{NewCmp("x", Lt, f(5)), NewCmp("x", Lt, value.NewStr("z")), false},
	}
	for _, tc := range tests {
		if got := Implies(tc.p, tc.q); got != tc.want {
			t.Errorf("Implies(%v, %v) = %v, want %v", tc.p, tc.q, got, tc.want)
		}
	}
}

func TestImpliesOpaqueOnlyIdentity(t *testing.T) {
	p := NewOpaque("is_wine", "text")
	q := NewOpaque("is_wine", "text")
	r := NewOpaque("is_wine", "other")
	if !Implies(p, q) {
		t.Error("identical opaque predicates should imply")
	}
	if Implies(p, r) {
		t.Error("different opaque predicates should not imply")
	}
}

// TestImpliesSoundness property-checks implication against brute-force
// evaluation: if p ⇒ q is claimed, then every float satisfying p satisfies q.
func TestImpliesSoundness(t *testing.T) {
	ops := []CmpOp{Eq, Ne, Lt, Le, Gt, Ge}
	f := func(aRaw, bRaw int8, opA, opB uint8, probe int8) bool {
		a := value.NewFloat(float64(aRaw))
		b := value.NewFloat(float64(bRaw))
		p := NewCmp("x", ops[int(opA)%len(ops)], a)
		q := NewCmp("x", ops[int(opB)%len(ops)], b)
		if !Implies(p, q) {
			return true // only soundness is claimed
		}
		x := value.NewFloat(float64(probe))
		pHolds := holds(sign(value.Compare(x, p.Lit)), p.Op)
		qHolds := holds(sign(value.Compare(x, q.Lit)), q.Op)
		return !pHolds || qHolds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestSetOperations(t *testing.T) {
	p1 := NewCmp("x", Lt, value.NewFloat(5))
	p2 := NewCmp("y", Gt, value.NewFloat(0))
	p3 := NewOpaque("f", "z")
	s := NewSet(p1, p2)
	if len(s) != 2 || !s.Has(p1) || s.Has(p3) {
		t.Fatal("set construction wrong")
	}
	s2 := s.Clone().Add(p3)
	if len(s) != 2 || len(s2) != 3 {
		t.Error("Clone/Add aliasing")
	}
	u := NewSet(p1).Union(NewSet(p2, p3))
	if len(u) != 3 {
		t.Error("Union size")
	}
	if !NewSet(p1, p2).Equal(NewSet(p2, p1)) {
		t.Error("Equal order sensitivity")
	}
	if NewSet(p1).Equal(NewSet(p2)) {
		t.Error("Equal on different sets")
	}
}

func TestImpliesAll(t *testing.T) {
	q := NewSet(
		NewCmp("x", Lt, value.NewFloat(5)),
		NewCmp("y", Gt, value.NewFloat(10)),
	)
	// view filters weaker: x < 100
	vWeak := NewSet(NewCmp("x", Lt, value.NewFloat(100)))
	if !q.ImpliesAll(vWeak) {
		t.Error("q should imply weaker view filters")
	}
	// view has a filter q does not imply
	vStrong := NewSet(NewCmp("z", Eq, value.NewStr("a")))
	if q.ImpliesAll(vStrong) {
		t.Error("q should not imply unrelated view filter")
	}
	// empty view filter set: always implied
	if !q.ImpliesAll(NewSet()) {
		t.Error("empty set should be implied")
	}
}

func TestSetCanonDeterministic(t *testing.T) {
	p1 := NewCmp("x", Lt, value.NewFloat(5))
	p2 := NewCmp("y", Gt, value.NewFloat(0))
	a := NewSet(p1, p2).Canon()
	b := NewSet(p2, p1).Canon()
	if a != b {
		t.Errorf("canon differs: %q vs %q", a, b)
	}
}

func TestRename(t *testing.T) {
	up := func(s string) string { return "sig:" + s }
	p := NewCmp("x", Lt, value.NewFloat(1)).Rename(up)
	if p.Attr != "sig:x" {
		t.Errorf("cmp rename = %v", p)
	}
	q := NewAttrEq("b", "a").Rename(up)
	if q.Attr != "sig:a" || q.Attr2 != "sig:b" {
		t.Errorf("attr-eq rename = %v", q)
	}
	o := NewOpaque("f", "u", "v").Rename(up)
	if o.Args[0] != "sig:u" || o.Args[1] != "sig:v" {
		t.Errorf("opaque rename = %v", o)
	}
}

func TestAttrs(t *testing.T) {
	if got := NewCmp("x", Lt, value.NewInt(1)).Attrs(); len(got) != 1 || got[0] != "x" {
		t.Errorf("cmp attrs = %v", got)
	}
	if got := NewAttrEq("a", "b").Attrs(); len(got) != 2 {
		t.Errorf("attr-eq attrs = %v", got)
	}
	if got := NewOpaque("f", "p", "q").Attrs(); len(got) != 2 || got[0] != "p" {
		t.Errorf("opaque attrs = %v", got)
	}
}
