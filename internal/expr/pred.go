// Package expr defines the predicate algebra used by filters in plans and by
// the (A,F,K) annotation model.
//
// A filter set F is always a conjunction of Preds. Each Pred has a canonical
// string form so that annotation equality is syntactic-on-canonical-forms,
// and a sound (conservative) implication test so that the rewriter can check
// the "view has weaker filters" condition and compute filter compensations.
package expr

import (
	"fmt"
	"sort"
	"strings"

	"opportune/internal/value"
)

// CmpOp is a comparison operator in an attribute-vs-literal predicate.
type CmpOp uint8

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// String renders the operator in SQL syntax.
func (o CmpOp) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	default:
		return "?"
	}
}

// ParseCmpOp converts an operator token to a CmpOp.
func ParseCmpOp(s string) (CmpOp, bool) {
	switch s {
	case "=", "==":
		return Eq, true
	case "!=", "<>":
		return Ne, true
	case "<":
		return Lt, true
	case "<=":
		return Le, true
	case ">":
		return Gt, true
	case ">=":
		return Ge, true
	}
	return 0, false
}

// Kind discriminates predicate shapes.
type Kind uint8

const (
	// KindCmp is attribute-vs-literal comparison, e.g. sent_sum > 0.5.
	KindCmp Kind = iota
	// KindAttrEq is attribute-vs-attribute equality, e.g. a join condition
	// t1.user_id = t2.user_id.
	KindAttrEq
	// KindOpaque is an arbitrary user-code predicate (a filter UDF),
	// identified by name and argument attributes. Two opaque predicates
	// are comparable only by canonical identity.
	KindOpaque
)

// Pred is one conjunct of a filter set.
//
// The Attr fields hold *canonical attribute identities*. At plan level these
// are column names; the afk package substitutes attribute signatures so that
// the same logical filter matches across plans that renamed columns.
type Pred struct {
	Kind  Kind
	Attr  string   // left attribute (KindCmp, KindAttrEq, unused for KindOpaque)
	Op    CmpOp    // KindCmp only
	Lit   value.V  // KindCmp only
	Attr2 string   // KindAttrEq only
	Name  string   // KindOpaque: predicate UDF name
	Args  []string // KindOpaque: attribute arguments (order significant)

	canon string // cached canonical form (set by the constructors)
}

// NewCmp builds an attribute-vs-literal comparison predicate.
func NewCmp(attr string, op CmpOp, lit value.V) Pred {
	p := Pred{Kind: KindCmp, Attr: attr, Op: op, Lit: lit}
	p.canon = p.computeCanon()
	return p
}

// NewAttrEq builds an attribute equality predicate. The two attribute
// identities are stored in sorted order so a=b and b=a canonicalize equally.
func NewAttrEq(a, b string) Pred {
	if b < a {
		a, b = b, a
	}
	p := Pred{Kind: KindAttrEq, Attr: a, Attr2: b}
	p.canon = p.computeCanon()
	return p
}

// NewOpaque builds an opaque user-code predicate.
func NewOpaque(name string, args ...string) Pred {
	p := Pred{Kind: KindOpaque, Name: name, Args: append([]string(nil), args...)}
	p.canon = p.computeCanon()
	return p
}

// Canon returns the canonical string form of the predicate. Predicates are
// equal iff their canonical forms are equal. The form is cached by the
// constructors — Canon is on the rewrite search's hot path — with a
// fallback for zero-value predicates built outside them.
func (p Pred) Canon() string {
	if p.canon != "" {
		return p.canon
	}
	return p.computeCanon()
}

func (p Pred) computeCanon() string {
	switch p.Kind {
	case KindCmp:
		return fmt.Sprintf("cmp(%s %s %s:%s)", p.Attr, p.Op, p.Lit.Kind(), p.Lit)
	case KindAttrEq:
		return fmt.Sprintf("eq(%s,%s)", p.Attr, p.Attr2)
	case KindOpaque:
		return fmt.Sprintf("udf(%s;%s)", p.Name, strings.Join(p.Args, ","))
	default:
		return "invalid"
	}
}

// String renders the predicate for humans.
func (p Pred) String() string {
	switch p.Kind {
	case KindCmp:
		return fmt.Sprintf("%s %s %s", p.Attr, p.Op, p.Lit)
	case KindAttrEq:
		return fmt.Sprintf("%s = %s", p.Attr, p.Attr2)
	case KindOpaque:
		return fmt.Sprintf("%s(%s)", p.Name, strings.Join(p.Args, ","))
	default:
		return "invalid"
	}
}

// Attrs returns every attribute identity the predicate references.
func (p Pred) Attrs() []string {
	switch p.Kind {
	case KindCmp:
		return []string{p.Attr}
	case KindAttrEq:
		return []string{p.Attr, p.Attr2}
	case KindOpaque:
		return append([]string(nil), p.Args...)
	default:
		return nil
	}
}

// Rename returns a copy of the predicate with attribute identities mapped
// through f. Used by the afk package to lift column-level predicates to
// signature-level predicates.
func (p Pred) Rename(f func(string) string) Pred {
	q := p
	switch p.Kind {
	case KindCmp:
		q.Attr = f(p.Attr)
	case KindAttrEq:
		return NewAttrEq(f(p.Attr), f(p.Attr2))
	case KindOpaque:
		q.Args = make([]string, len(p.Args))
		for i, a := range p.Args {
			q.Args[i] = f(a)
		}
	}
	q.canon = q.computeCanon()
	return q
}

// Implies reports whether p ⇒ q, conservatively. False negatives are
// allowed (they only reduce reuse); false positives are not.
func Implies(p, q Pred) bool {
	if p.Canon() == q.Canon() {
		return true
	}
	// Only same-attribute comparison predicates admit a richer test.
	if p.Kind != KindCmp || q.Kind != KindCmp || p.Attr != q.Attr {
		return false
	}
	return cmpImplies(p.Op, p.Lit, q.Op, q.Lit)
}

// cmpImplies decides whether (x op1 a) ⇒ (x op2 b) for all x.
func cmpImplies(op1 CmpOp, a value.V, op2 CmpOp, b value.V) bool {
	// Only handle comparable literal kinds.
	bothNum := a.IsNumeric() && b.IsNumeric()
	bothStr := a.Kind() == value.Str && b.Kind() == value.Str
	if !bothNum && !bothStr {
		return false
	}
	c := value.Compare(a, b) // sign of a-b
	switch op1 {
	case Eq: // x = a ⇒ x op2 b  iff  a op2 b
		return holds(c, op2)
	case Lt: // x < a
		switch op2 {
		case Lt:
			return c <= 0 // a <= b
		case Le:
			return c <= 0
		case Ne:
			return c <= 0 // x < a <= b means x < b so x != b
		}
	case Le: // x <= a
		switch op2 {
		case Le:
			return c <= 0
		case Lt:
			return c < 0
		case Ne:
			return c < 0
		}
	case Gt: // x > a
		switch op2 {
		case Gt:
			return c >= 0
		case Ge:
			return c >= 0
		case Ne:
			return c >= 0
		}
	case Ge: // x >= a
		switch op2 {
		case Ge:
			return c >= 0
		case Gt:
			return c > 0
		case Ne:
			return c > 0
		}
	case Ne:
		// x != a implies nothing but itself (handled by Canon equality).
		return false
	}
	return false
}

// Holds evaluates "a op b" given c = sign(Compare(a,b)). Exported for the
// optimizer's fused filter kernels, which must decide comparisons with
// exactly the semantics Compile's closures use.
func Holds(c int, op CmpOp) bool { return holds(c, op) }

// holds evaluates "a op b" given c = sign(Compare(a,b)).
func holds(c int, op CmpOp) bool {
	switch op {
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	case Ge:
		return c >= 0
	}
	return false
}

// Set is a conjunctive predicate set keyed by canonical form.
type Set map[string]Pred

// NewSet builds a set from predicates.
func NewSet(preds ...Pred) Set {
	s := make(Set, len(preds))
	for _, p := range preds {
		s[p.Canon()] = p
	}
	return s
}

// Add inserts a predicate, returning the set for chaining.
func (s Set) Add(p Pred) Set {
	s[p.Canon()] = p
	return s
}

// Has reports whether an identical (canonical) predicate is in the set.
func (s Set) Has(p Pred) bool {
	_, ok := s[p.Canon()]
	return ok
}

// Clone returns a copy of the set.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// Union returns a new set holding predicates of both sets.
func (s Set) Union(o Set) Set {
	c := s.Clone()
	for k, v := range o {
		c[k] = v
	}
	return c
}

// Equal reports whether the two sets hold exactly the same canonical
// predicates.
func (s Set) Equal(o Set) bool {
	if len(s) != len(o) {
		return false
	}
	for k := range s {
		if _, ok := o[k]; !ok {
			return false
		}
	}
	return true
}

// ImpliesAll reports whether the conjunction s implies the conjunction o:
// every predicate of o is implied by some predicate of s. This is the
// "view has weaker filters than query" check with s = q.F and o = v.F.
func (s Set) ImpliesAll(o Set) bool {
	for _, q := range o {
		implied := false
		for _, p := range s {
			if Implies(p, q) {
				implied = true
				break
			}
		}
		if !implied {
			return false
		}
	}
	return true
}

// Reduced returns the set with implication-redundant predicates removed: a
// predicate implied by another member is dropped (one representative of a
// mutually-implying pair survives, chosen by canonical order). Reduced sets
// are semantically equal to their originals, so canonical fingerprints of
// semantically equal conjunctions coincide — e.g. {x>3, x>5} and {x>5}.
func (s Set) Reduced() Set {
	out := make(Set, len(s))
	for k, p := range s {
		redundant := false
		for k2, q := range s {
			if k == k2 || !Implies(q, p) {
				continue
			}
			// q implies p: p is redundant unless they mutually imply and p
			// is the designated representative.
			if Implies(p, q) && k < k2 {
				continue
			}
			redundant = true
			break
		}
		if !redundant {
			out[k] = p
		}
	}
	return out
}

// Preds returns the predicates in canonical order.
func (s Set) Preds() []Pred {
	out := make([]Pred, 0, len(s))
	for _, p := range s {
		out = append(out, p)
	}
	sortPreds(out)
	return out
}

// Canon returns a canonical rendering of the whole conjunction. The set is
// first reduced under implication so that semantically equal conjunctions
// share a fingerprint (annotation canonical forms, view identity, and
// aggregate filter contexts all rely on this).
func (s Set) Canon() string {
	r := s.Reduced()
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return "{" + strings.Join(keys, " && ") + "}"
}

// String renders the set for humans.
func (s Set) String() string {
	ps := s.Preds()
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.String()
	}
	return "{" + strings.Join(parts, " AND ") + "}"
}

func sortPreds(ps []Pred) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Canon() < ps[j].Canon() })
}
