package afk

import (
	"fmt"
	"sort"
	"strings"

	"opportune/internal/expr"
)

// Attr is an attribute as it appears in a relation: a presentation name
// (the column name) bound to a signature (the semantic identity). Plans may
// rename columns freely; identity follows the signature.
type Attr struct {
	Name string
	Sig  *Sig
}

// Annotation is the (A, F, K) model of a relation (paper §3.1):
//
//	A — the attribute set (name → signature),
//	F — the conjunction of filters applied so far, expressed over
//	    signature IDs so the same logical filter matches across plans,
//	K — the current grouping of the data ("the keys of the data"): the
//	    record key for raw logs (e.g. tweet_id), the group-by keys after
//	    an aggregation, empty after a global aggregate.
//
// Annotations are value-like: every operation returns a new Annotation.
//
// Grouped disambiguates an empty K: raw, never-grouped data is record-level
// (the finest partition) even when no record-key column is declared, while
// a global aggregate (GroupBy with no keys) is the coarsest. Grouped is set
// once any grouping local function has been applied.
type Annotation struct {
	byName  map[string]*Attr
	A       SigSet
	F       expr.Set
	K       SigSet
	Grouped bool

	// Limited taints data that passed through a LIMIT: which rows survive
	// depends on physical execution order, which the model cannot express.
	// Limited views are excluded from semantic reuse and limited targets
	// are not semantically rewritable (syntactic plan-identity reuse still
	// applies). Ordering alone does NOT taint — under set semantics a
	// sorted relation equals its input.
	Limited bool
}

// New builds an annotation from attributes, filters, and keys. Grouped is
// inferred as "has keys" — correct for grouped data and for base scans
// keyed by a record key (where the FDs make the distinction irrelevant);
// use NewBase for raw scans and GroupBy for explicit grouping.
func New(attrs []Attr, f expr.Set, k SigSet) Annotation {
	return mk(attrs, f, k, len(k) > 0)
}

func mk(attrs []Attr, f expr.Set, k SigSet, grouped bool) Annotation {
	a := Annotation{
		byName:  make(map[string]*Attr, len(attrs)),
		A:       make(SigSet, len(attrs)),
		F:       f.Clone(),
		K:       k.Clone(),
		Grouped: grouped,
	}
	for i := range attrs {
		at := attrs[i]
		if _, dup := a.byName[at.Name]; dup {
			panic(fmt.Sprintf("afk: duplicate attribute name %q", at.Name))
		}
		a.byName[at.Name] = &at
		a.A.Add(at.Sig)
	}
	return a
}

// NewBase builds the annotation of a raw log scan: base signatures for each
// column, no filters, keyed by the record-key column.
func NewBase(dataset string, columns []string, keyColumn string) Annotation {
	attrs := make([]Attr, len(columns))
	var key *Sig
	for i, c := range columns {
		s := BaseSig(dataset, c)
		attrs[i] = Attr{Name: c, Sig: s}
		if c == keyColumn {
			key = s
		}
	}
	k := NewSigSet()
	if key != nil {
		k.Add(key)
	}
	return mk(attrs, expr.NewSet(), k, false)
}

// Clone deep-copies the annotation.
func (a Annotation) Clone() Annotation {
	return a.derive(a.Attrs(), a.F, a.K, a.Grouped)
}

// derive builds a new annotation preserving the Limited taint.
func (a Annotation) derive(attrs []Attr, f expr.Set, k SigSet, grouped bool) Annotation {
	out := mk(attrs, f, k, grouped)
	out.Limited = a.Limited
	return out
}

// WithLimited returns the annotation with the LIMIT taint set.
func (a Annotation) WithLimited() Annotation {
	out := a.Clone()
	out.Limited = true
	return out
}

// Attrs returns the attributes sorted by name.
func (a Annotation) Attrs() []Attr {
	names := make([]string, 0, len(a.byName))
	for n := range a.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Attr, len(names))
	for i, n := range names {
		out[i] = *a.byName[n]
	}
	return out
}

// Names returns the attribute names sorted.
func (a Annotation) Names() []string {
	names := make([]string, 0, len(a.byName))
	for n := range a.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Attr looks up an attribute by presentation name.
func (a Annotation) Attr(name string) (Attr, bool) {
	at, ok := a.byName[name]
	if !ok {
		return Attr{}, false
	}
	return *at, true
}

// SigOf returns the signature of the named attribute, or nil.
func (a Annotation) SigOf(name string) *Sig {
	if at, ok := a.byName[name]; ok {
		return at.Sig
	}
	return nil
}

// NameOfSig returns the presentation name currently bound to a signature
// ID, or "" when the annotation does not carry that attribute.
func (a Annotation) NameOfSig(id string) string {
	for n, at := range a.byName {
		if at.Sig.ID() == id {
			return n
		}
	}
	return ""
}

// MustSig is SigOf but panics for unknown names (plan building bug).
func (a Annotation) MustSig(name string) *Sig {
	s := a.SigOf(name)
	if s == nil {
		panic(fmt.Sprintf("afk: unknown attribute %q (have %v)", name, a.Names()))
	}
	return s
}

// Project keeps only the named attributes (operation type 1, discard).
// F and K are unchanged: filters already applied remain applied, and the
// data keeps its granularity even if key columns are projected away.
func (a Annotation) Project(names ...string) Annotation {
	attrs := make([]Attr, 0, len(names))
	for _, n := range names {
		at, ok := a.byName[n]
		if !ok {
			panic(fmt.Sprintf("afk: project: unknown attribute %q", n))
		}
		attrs = append(attrs, *at)
	}
	return a.derive(attrs, a.F, a.K, a.Grouped)
}

// WithAttr adds a derived attribute (operation type 1, add).
func (a Annotation) WithAttr(name string, sig *Sig) Annotation {
	attrs := append(a.Attrs(), Attr{Name: name, Sig: sig})
	return a.derive(attrs, a.F, a.K, a.Grouped)
}

// Rename rebinds an attribute to a new presentation name, keeping its
// signature.
func (a Annotation) Rename(old, new string) Annotation {
	attrs := a.Attrs()
	for i := range attrs {
		if attrs[i].Name == old {
			attrs[i].Name = new
		}
	}
	return a.derive(attrs, a.F, a.K, a.Grouped)
}

// RebindAll replaces the signatures of the named attributes, keeping
// everything else. Used to disambiguate same-signature columns that reach a
// join via different paths (a set-based A cannot hold one attribute twice).
func (a Annotation) RebindAll(repl map[string]*Sig) Annotation {
	if len(repl) == 0 {
		return a
	}
	attrs := a.Attrs()
	for i := range attrs {
		if s, ok := repl[attrs[i].Name]; ok {
			attrs[i].Sig = s
		}
	}
	return a.derive(attrs, a.F, a.K, a.Grouped)
}

// ProjectRename projects to the named attributes and renames them in one
// pass: column cols[i] appears as as[i].
func (a Annotation) ProjectRename(cols, as []string) Annotation {
	attrs := make([]Attr, len(cols))
	for i, c := range cols {
		at, ok := a.byName[c]
		if !ok {
			panic(fmt.Sprintf("afk: project: unknown attribute %q", c))
		}
		attrs[i] = Attr{Name: as[i], Sig: at.Sig}
	}
	return a.derive(attrs, a.F, a.K, a.Grouped)
}

// Rekey replaces the key set without implying an aggregation: grouped
// reports whether the data has been aggregated. Used for record-level
// re-keying, e.g. a tokenizer exploding tweets into sentences keyed by a
// derived per-sentence signature.
func (a Annotation) Rekey(k SigSet, grouped bool) Annotation {
	return a.derive(a.Attrs(), a.F, k, grouped)
}

// LiftPred rewrites a column-name predicate into signature-ID terms.
func (a Annotation) LiftPred(p expr.Pred) expr.Pred {
	return p.Rename(func(col string) string {
		s := a.SigOf(col)
		if s == nil {
			panic(fmt.Sprintf("afk: predicate references unknown attribute %q", col))
		}
		return s.ID()
	})
}

// WithFilter applies a filter predicate given in column-name terms
// (operation type 2).
func (a Annotation) WithFilter(p expr.Pred) Annotation {
	out := a.Clone()
	out.F = out.F.Clone().Add(a.LiftPred(p))
	return out
}

// GroupBy re-keys the data on the named columns (operation type 3),
// keeping the key attributes plus the supplied aggregate output attributes.
func (a Annotation) GroupBy(keyNames []string, aggAttrs []Attr) Annotation {
	attrs := make([]Attr, 0, len(keyNames)+len(aggAttrs))
	k := NewSigSet()
	for _, n := range keyNames {
		at, ok := a.byName[n]
		if !ok {
			panic(fmt.Sprintf("afk: groupby: unknown key attribute %q", n))
		}
		attrs = append(attrs, *at)
		k.Add(at.Sig)
	}
	attrs = append(attrs, aggAttrs...)
	return a.derive(attrs, a.F, k, true)
}

// Join combines two annotations on an equi-join condition (multi-input
// rule, §3.1): A is the union of both sides (the right-side join column —
// same value as the left by definition — is dropped to avoid a duplicate),
// F is the conjunction of both filter sets plus the join condition, and K
// follows the paper's rule (K1 ∪ K2) ∩ joinSigs, falling back to K1 ∪ K2
// when the intersection is empty so granularity information is preserved.
func Join(l, r Annotation, lCol, rCol string) Annotation {
	ls, rs := l.MustSig(lCol), r.MustSig(rCol)
	attrs := l.Attrs()
	for _, at := range r.Attrs() {
		if at.Sig.ID() == rs.ID() && rs.ID() == ls.ID() {
			continue // same signature joining column appears once
		}
		attrs = append(attrs, at)
	}
	f := l.F.Union(r.F)
	if ls.ID() != rs.ID() {
		f = f.Clone().Add(expr.NewAttrEq(ls.ID(), rs.ID()))
	}
	joinSigs := NewSigSet(ls, rs)
	union := l.K.Clone()
	for id, s := range r.K {
		union[id] = s
	}
	k := NewSigSet()
	for id, s := range union {
		if joinSigs.HasID(id) {
			k.Add(s)
		}
	}
	if len(k) == 0 {
		k = union
	}
	out := mk(dedupAttrs(attrs), f, k, l.Grouped || r.Grouped)
	out.Limited = l.Limited || r.Limited
	return out
}

// dedupAttrs drops attributes whose signature already appeared (keeping the
// first name binding). Join can surface the same signature from both sides.
func dedupAttrs(attrs []Attr) []Attr {
	seen := make(map[string]bool, len(attrs))
	names := make(map[string]bool, len(attrs))
	out := attrs[:0]
	for _, at := range attrs {
		if seen[at.Sig.ID()] || names[at.Name] {
			continue
		}
		seen[at.Sig.ID()] = true
		names[at.Name] = true
		out = append(out, at)
	}
	return out
}

// LessAggregated reports whether a (the view) is less aggregated than q:
// never-grouped data is record-level and qualifies unconditionally;
// otherwise the view's grouping must refine the target's under the FDs.
func (a Annotation) LessAggregated(q Annotation, fds *FDSet) bool {
	if !a.Grouped {
		return true
	}
	return fds.Refines(a.K, q.K)
}

// Equal is the semantic equivalence test of §4.1: identical attribute sets
// (by signature), mutually-implying filter sets, and identical keys.
// Grouped is deliberately not compared: with equal K the partitions match.
func (a Annotation) Equal(b Annotation) bool {
	if a.Limited != b.Limited {
		return false
	}
	return a.A.Equal(b.A) &&
		a.F.ImpliesAll(b.F) && b.F.ImpliesAll(a.F) &&
		a.K.Equal(b.K)
}

// Canon returns a canonical fingerprint of the annotation; equal
// annotations (up to filter-set syntactic identity) share a fingerprint.
func (a Annotation) Canon() string {
	var sb strings.Builder
	sb.WriteString("A=")
	sb.WriteString(a.A.Canon())
	sb.WriteString(" F=")
	sb.WriteString(a.F.Canon())
	sb.WriteString(" K=")
	sb.WriteString(a.K.Canon())
	if a.Limited {
		sb.WriteString(" LIMITED")
	}
	return sb.String()
}

// String renders the annotation with presentation names for humans.
func (a Annotation) String() string {
	return fmt.Sprintf("A=%v F=%s K=%s", a.Names(), a.F, a.K.Canon())
}
