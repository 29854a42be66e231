package afk

import (
	"fmt"
	"slices"
	"sort"

	"opportune/internal/value"
)

// This file implements the annotation-level half of incremental view
// maintenance classification (ROADMAP item 2). Under append-only ingest a
// view is a candidate for delta maintenance when its (A, F, K) annotation
// proves that new base rows can only *add* output rows or *fold into*
// existing groups — never retract or rewrite rows already emitted:
//
//   - lineage must include the appended table (a join with other tables is
//     the plan gate's business: whether the view is linear in the appended
//     table is a property of the producing plan, not of a lineage count);
//   - every aggregate attribute must be distributive (a Rollups entry), so
//     per-group partial states merge associatively; AVG and any black-box
//     aggregate UDF are not mergeable from finalized outputs;
//   - no filter or derived attribute may consume an aggregate (a filter
//     over a group total can retract a group when its total crosses the
//     threshold; a per-tuple UDF over a group value would need recomputing
//     for every touched group);
//   - no LIMIT taint: which rows survive a LIMIT depends on execution
//     order, so "append then merge" and "recompute" legitimately disagree.
//
// The plan-level half (linearity in the appended table, UDF explode flags)
// lives in the session, which holds the producing plans; both gates must
// pass.

// Rollup folds two finalized outputs of one distributive aggregate, computed
// for the same group over disjoint inputs, into the value a single pass over
// both inputs would finalize.
type Rollup func(old, delta value.V) value.V

// Rollups is the one table of distributive aggregates, keyed by the
// "agg_"+AggFunc signature plan annotation mints for relational aggregates:
// which aggregates merge from their own finalized outputs, and how. COUNT is
// an integer add of the retained counts; SUM a compensated two-term add, so
// the merged sum is the exactly rounded old+delta and an append chain drifts
// from a recompute by at most one rounding per append; MIN/MAX are their own
// rollup and skip nulls the way the aggregate folds do.
var Rollups = map[string]Rollup{
	"agg_count": func(old, delta value.V) value.V { return value.NewInt(old.Int() + delta.Int()) },
	"agg_sum": func(old, delta value.V) value.V {
		var k value.Kahan
		k.Add(old.Float())
		k.Add(delta.Float())
		return value.NewFloat(k.Value())
	},
	"agg_min": extreme(-1),
	"agg_max": extreme(+1),
}

// Regroupable is the precondition of a relational aggregate compensation:
// whether the aggregate of signature UDF fn ("agg_"+AggFunc) may be computed
// by one group-by over input whose annotation has the given Grouped flag.
// Over grouped input each row is a group, not a base row, so only the
// duplicate-insensitive MIN and MAX give what one pass over the base rows
// gives: COUNT would count groups, and SUM and AVG weight each group once.
// Rolling COUNT up as a SUM of retained counts is not modelled.
func Regroupable(fn string, grouped bool) bool {
	return !grouped || fn == "agg_min" || fn == "agg_max"
}

// extreme keeps whichever non-null side lies further in sign's direction.
func extreme(sign int) Rollup {
	return func(old, delta value.V) value.V {
		if delta.IsNull() || (!old.IsNull() && sign*value.Compare(delta, old) <= 0) {
			return old
		}
		return delta
	}
}

// walk visits every signature the annotation's contents derive from — the
// attributes in A, the keys in K and the attributes F's predicates mention
// (a join leaves its other side's key there even when no column of that
// side survives a projection) — then their dependencies, parents first.
// insideAgg is set below an aggregate signature.
func (a Annotation) walk(visit func(s *Sig, insideAgg bool)) {
	var rec func(s *Sig, insideAgg bool)
	rec = func(s *Sig, insideAgg bool) {
		visit(s, insideAgg)
		insideAgg = insideAgg || s.Agg
		for _, in := range s.Inputs {
			rec(in, insideAgg)
		}
		for _, k := range s.GroupBy {
			rec(k, insideAgg)
		}
	}
	for _, at := range a.Attrs() {
		rec(at.Sig, false)
	}
	for _, k := range a.K.Sigs() {
		rec(k, false)
	}
	for _, p := range a.F.Preds() {
		for _, id := range p.Attrs() {
			if s, ok := Lookup(id); ok {
				rec(s, false)
			}
		}
	}
}

// Bases returns the base datasets the annotation's contents derive from,
// sorted: the lineage an append to one of them invalidates.
func (a Annotation) Bases() []string {
	seen := make(map[string]bool)
	a.walk(func(s *Sig, _ bool) {
		if s.IsBase() {
			seen[s.Dataset] = true
		}
	})
	out := make([]string, 0, len(seen))
	for ds := range seen {
		out = append(out, ds)
	}
	sort.Strings(out)
	return out
}

// Verdict is the result of a maintainability classification.
type Verdict struct {
	OK     bool
	Reason string // populated when !OK: why the view must be invalidated
}

func reject(format string, args ...any) Verdict {
	return Verdict{Reason: fmt.Sprintf(format, args...)}
}

// Maintainable classifies a view annotation for incremental maintenance
// under appends to the given base table. OK means the annotation admits
// delta maintenance; the caller must still verify the producing plan's
// shape (it may use plan constructs the annotation cannot see).
func Maintainable(ann Annotation, table string) Verdict {
	if ann.Limited {
		return reject("LIMIT taint: surviving rows depend on execution order")
	}
	var aggViolation string
	ann.walk(func(s *Sig, insideAgg bool) {
		switch {
		case !s.Agg || aggViolation != "":
		case insideAgg:
			aggViolation = fmt.Sprintf("nested aggregate %s", s.UDF)
		case Rollups[s.UDF] == nil:
			aggViolation = fmt.Sprintf("non-distributive aggregate %s", s.UDF)
		}
	})
	if aggViolation != "" {
		return reject("%s", aggViolation)
	}
	if !slices.Contains(ann.Bases(), table) {
		return reject("lineage does not include %q", table)
	}

	// Filters must precede aggregation: a predicate over an aggregate
	// signature can retract an already-emitted group when its total moves.
	for _, p := range ann.F.Preds() {
		for _, id := range p.Attrs() {
			if s, ok := Lookup(id); ok && sigContainsAgg(s) {
				return reject("filter over aggregate %s", s.UDF)
			}
		}
	}

	// Per-tuple derived attributes over aggregates (the dual of the filter
	// rule): recomputable only by touching every group.
	for _, at := range ann.Attrs() {
		s := at.Sig
		if s.IsBase() || s.Agg {
			continue
		}
		for _, in := range s.Inputs {
			if sigContainsAgg(in) {
				return reject("derived attribute %s consumes aggregate", s.UDF)
			}
		}
	}
	return Verdict{OK: true}
}

// sigContainsAgg reports whether the signature or any dependency is an
// aggregate.
func sigContainsAgg(s *Sig) bool {
	if s == nil {
		return false
	}
	if s.Agg {
		return true
	}
	for _, in := range s.Inputs {
		if sigContainsAgg(in) {
			return true
		}
	}
	return false
}
