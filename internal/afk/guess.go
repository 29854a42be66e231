package afk

import (
	"opportune/internal/cost"
	"opportune/internal/expr"
)

// CanProduce reports whether an attribute with signature s can be computed
// from the attributes avail: it is already present, or it is derived and
// each of its inputs can be produced (recursively). This is condition (i)
// of GUESSCOMPLETE — deliberately optimistic: it ignores whether the key
// context required by an aggregate attribute still holds (the paper's Fig 5
// false-positive: grouping may have destroyed the tuples needed to compute
// the attribute). REWRITEENUM performs the strict check.
func CanProduce(s *Sig, avail SigSet) bool {
	if avail.Has(s) {
		return true
	}
	if s.IsBase() {
		return false
	}
	for _, in := range s.Inputs {
		if !CanProduce(in, avail) {
			return false
		}
	}
	return len(s.Inputs) > 0
}

// GuessComplete is the containment heuristic of §4.1: a quick, conservative
// guess that view v can produce a complete rewrite of target q. It checks
// the necessary conditions
//
//	(i)   v contains all attributes q requires, or the attributes needed
//	      to produce them,
//	(ii)  v has weaker selection predicates than q (q.F ⇒ v.F), and any
//	      compensation filter only references producible attributes,
//	(iii) v is less aggregated than q (v.K refines q.K under the FDs).
//
// False positives are possible (REWRITEENUM may still fail); false
// negatives are not — see TestGuessCompleteNeverFalseNegative.
func GuessComplete(q, v Annotation, fds *FDSet) bool {
	// LIMIT-tainted data is outside the model: which rows a limited view
	// holds depends on physical execution, and no compensation operator
	// can produce a LIMIT. Only syntactic plan identity may reuse it.
	if v.Limited || q.Limited {
		return false
	}
	// (i) attribute coverage.
	for _, s := range q.A {
		if !CanProduce(s, v.A) {
			return false
		}
	}
	// (ii) weaker filters.
	if !q.F.ImpliesAll(v.F) {
		return false
	}
	for _, p := range q.F.Preds() {
		if impliedByAny(v.F, p) {
			continue
		}
		for _, id := range p.Attrs() {
			s, ok := findSig(q, id)
			if !ok || !CanProduce(s, v.A) {
				return false
			}
		}
	}
	// (iii) less aggregated.
	return v.LessAggregated(q, fds)
}

func impliedByAny(f expr.Set, p expr.Pred) bool {
	for _, vp := range f {
		if expr.Implies(vp, p) {
			return true
		}
	}
	return false
}

// findSig resolves a signature ID referenced by a query predicate to the
// signature object: first in the query's attributes and keys, then in the
// global registry (the attribute may have been consumed by the filter and
// projected away before the target's output).
func findSig(q Annotation, id string) (*Sig, bool) {
	if s, ok := q.A[id]; ok {
		return s, true
	}
	if s, ok := q.K[id]; ok {
		return s, true
	}
	return Lookup(id)
}

// Fix is the set-difference compensation between a target and a view
// (§4.3): the operations that, applied to v, would produce q.
type Fix struct {
	// NewAttrs are attributes of q missing from v.
	NewAttrs []*Sig
	// Filters are q's predicates not already implied by v's.
	Filters []expr.Pred
	// Rekey is set when the grouping differs; RekeyTo is q.K.
	Rekey   bool
	RekeyTo SigSet
	// DropAttrs are attributes of v absent from q (a projection is needed).
	DropAttrs []*Sig
}

// ComputeFix computes the fix of v with respect to q. It is meaningful when
// GuessComplete(q, v) holds but is defined for any pair.
func ComputeFix(q, v Annotation) Fix {
	var fix Fix
	for _, s := range q.A.Sigs() {
		if !v.A.Has(s) {
			fix.NewAttrs = append(fix.NewAttrs, s)
		}
	}
	for _, s := range v.A.Sigs() {
		if !q.A.Has(s) {
			fix.DropAttrs = append(fix.DropAttrs, s)
		}
	}
	for _, p := range q.F.Preds() {
		if !impliedByAny(v.F, p) {
			fix.Filters = append(fix.Filters, p)
		}
	}
	if !q.K.Equal(v.K) {
		fix.Rekey = true
		fix.RekeyTo = q.K.Clone()
	}
	return fix
}

// Empty reports whether no compensation is needed beyond (possibly) a
// projection — i.e. v already answers q up to column pruning.
func (f Fix) Empty() bool {
	return len(f.NewAttrs) == 0 && len(f.Filters) == 0 && !f.Rekey
}

// OpTypes returns the operation types the fix requires, the input to the
// non-subsumable cost rule in OPTCOST: the synthesized local function that
// "performs the fix" costs as the cheapest of these.
func (f Fix) OpTypes() []cost.OpType {
	var ops []cost.OpType
	if len(f.NewAttrs) > 0 || len(f.DropAttrs) > 0 {
		ops = append(ops, cost.OpAttr)
	}
	if len(f.Filters) > 0 {
		ops = append(ops, cost.OpFilter)
	}
	if f.Rekey {
		ops = append(ops, cost.OpGroup)
	}
	return ops
}

// opTypeSets holds every OpTypes result, indexed by attr | filter<<1 |
// group<<2, so FixOps can hand one out without allocating.
var opTypeSets = [8][]cost.OpType{
	nil,
	{cost.OpAttr},
	{cost.OpFilter},
	{cost.OpAttr, cost.OpFilter},
	{cost.OpGroup},
	{cost.OpAttr, cost.OpGroup},
	{cost.OpFilter, cost.OpGroup},
	{cost.OpAttr, cost.OpFilter, cost.OpGroup},
}

// FixOps returns ComputeFix(q, v).OpTypes() and ComputeFix(q, v).Empty()
// without building the fix — no sorted attribute or predicate lists, no
// cloned key set, no allocation. OPTCOST needs only these two answers;
// REWRITEENUM, which sequences the fix's operators, uses ComputeFix. The
// returned slice is shared: callers must not modify it.
func FixOps(q, v Annotation) (ops []cost.OpType, empty bool) {
	newAttrs := !q.A.Subset(v.A)
	// With q.A ⊆ v.A, v holds an attribute q lacks iff it holds more.
	attr := newAttrs || len(v.A) != len(q.A)
	filter := false
	for _, p := range q.F {
		if !impliedByAny(v.F, p) {
			filter = true
			break
		}
	}
	rekey := !q.K.Equal(v.K)
	i := 0
	if attr {
		i |= 1
	}
	if filter {
		i |= 2
	}
	if rekey {
		i |= 4
	}
	return opTypeSets[i], !newAttrs && !filter && !rekey
}
