package rewrite

import (
	"slices"
	"sort"
	"strings"

	"opportune/internal/afk"
	"opportune/internal/expr"
	"opportune/internal/optimizer"
	"opportune/internal/plan"
	"opportune/internal/udf"
	"opportune/internal/value"
)

// maxUnits bounds the number of compensation operators enumerated; fixes
// larger than this are abandoned (the paper equivalently keeps the rewrite
// operator set small because enumeration is exponential, §5).
const maxUnits = 7

// unit is one compensation operator to be sequenced: applying it wraps the
// current plan in one more node. op is the operator name for the k-repeat
// limit ("select", "groupagg", or the UDF name).
type unit struct {
	op    string
	apply func(cur *plan.Node) (*plan.Node, bool)
}

// RewriteEnum searches for a valid equivalent rewrite of target q using
// candidate c (which must have passed GUESSCOMPLETE): it derives the fix,
// expands it into compensation operators, enumerates their permutations
// (§7.2's brute-force enumeration), checks (A,F,K)-equivalence of each
// outcome, and returns the cheapest valid rewrite plan with its cost (the
// first one on ties) — or (nil, +Inf).
func (r *Rewriter) RewriteEnum(q *optimizer.JobNode, c *Candidate) (*plan.Node, float64) {
	units, ok := r.compensationUnits(q, c)
	if !ok || len(units) > maxUnits || exceedsRepeatLimit(units, r.MaxOpRepeat) {
		return nil, inf
	}
	var bestPlan *plan.Node
	bestCost := inf
	permute(units, func(order []unit) {
		if p, cost, ok := r.tryOrder(q, c, order); ok && cost < bestCost {
			bestPlan, bestCost = p, cost
		}
	})
	return bestPlan, bestCost
}

// tryOrder applies one compensation-operator sequence to the candidate and
// validates the outcome.
func (r *Rewriter) tryOrder(q *optimizer.JobNode, c *Candidate, order []unit) (*plan.Node, float64, bool) {
	cur := c.Plan
	for _, u := range order {
		next, ok := u.apply(cur)
		if !ok {
			return nil, 0, false
		}
		if plan.Annotate(next, r.Cat) != nil {
			return nil, 0, false
		}
		cur = next
	}
	final, ok := r.finalProjection(q, cur)
	if !ok {
		return nil, 0, false
	}
	if plan.Annotate(final, r.Cat) != nil {
		return nil, 0, false
	}
	if !final.Ann.Equal(q.Ann) {
		return nil, 0, false
	}
	cost, err := r.compileCost(final)
	if err != nil {
		return nil, 0, false
	}
	return final, cost, true
}

// finalProjection projects and renames the current plan's columns to
// exactly the target's output columns. When the columns already match —
// including a bare scan of a column-identical view, the identical-view fast
// path, which then costs zero because the result is already on disk — no
// projection node is added.
func (r *Rewriter) finalProjection(q *optimizer.JobNode, cur *plan.Node) (*plan.Node, bool) {
	cols := make([]string, len(q.OutCols))
	for i, out := range q.OutCols {
		sig := q.Ann.SigOf(out)
		if sig == nil {
			return nil, false
		}
		name := cur.Ann.NameOfSig(sig.ID())
		if name == "" {
			return nil, false
		}
		cols[i] = name
	}
	if slices.Equal(cols, cur.OutCols) && slices.Equal(cols, q.OutCols) {
		return cur, true
	}
	return plan.ProjectAs(cur, cols, append([]string(nil), q.OutCols...)), true
}

// compensationUnits derives the operator set that must be sequenced to turn
// the candidate into the target: the fix's filters, the (transitively)
// missing attribute derivations, and a distinct-style regroup when the key
// change is not already produced by an aggregate application.
func (r *Rewriter) compensationUnits(q *optimizer.JobNode, c *Candidate) ([]unit, bool) {
	fix := afk.ComputeFix(q.Ann, c.Ann)
	var units []unit

	// Derivation units for missing attributes, transitively.
	apps := make(map[string]*appUnit)  // application identity -> unit builder
	requested := make(map[string]bool) // signatures already handled
	var need func(s *afk.Sig) bool
	need = func(s *afk.Sig) bool {
		if c.Ann.A.HasID(s.ID()) || requested[s.ID()] {
			return true
		}
		requested[s.ID()] = true
		if s.IsBase() {
			return false // a missing base column can never be recomputed
		}
		for _, in := range s.Inputs {
			if !need(in) {
				return false
			}
		}
		for _, k := range s.GroupBy {
			if !need(k) {
				return false
			}
		}
		a, ok := r.appFor(q, s)
		if !ok {
			return false
		}
		if prev, dup := apps[a.id]; dup {
			prev.merge(a)
		} else {
			apps[a.id] = a
		}
		return true
	}
	rekeyCovered := !fix.Rekey
	for _, s := range fix.NewAttrs {
		if !need(s) {
			return nil, false
		}
	}
	// Filter units; predicate attributes must also be producible.
	for _, p := range fix.Filters {
		for _, id := range p.Attrs() {
			if c.Ann.A.HasID(id) {
				continue
			}
			s, ok := afk.Lookup(id)
			if !ok || !need(s) {
				return nil, false
			}
		}
		pred := p
		units = append(units, unit{op: "select", apply: func(cur *plan.Node) (*plan.Node, bool) {
			named, ok := bindPred(pred, cur.Ann)
			if !ok {
				return nil, false
			}
			return plan.Filter(cur, named), true
		}})
	}
	// Emit application units; note whether any aggregation lands on q.K.
	ids := make([]string, 0, len(apps))
	for id := range apps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		a := apps[id]
		if a.groups && a.keySet.Equal(q.Ann.K) {
			rekeyCovered = true
		}
		units = append(units, a.unit(r))
	}
	// Residual regroup (DISTINCT-style) when the fix re-keys but no
	// aggregate application produces that key.
	if !rekeyCovered {
		keySigs := q.Ann.K.Sigs()
		units = append(units, unit{op: "groupagg", apply: func(cur *plan.Node) (*plan.Node, bool) {
			keys := make([]string, len(keySigs))
			for i, s := range keySigs {
				keys[i] = cur.Ann.NameOfSig(s.ID())
				if keys[i] == "" {
					return nil, false
				}
			}
			return plan.GroupAgg(cur, keys), true
		}})
	}
	return units, true
}

// appUnit describes one producing application (a UDF call or a relational
// group-by) that yields one or more needed attributes.
type appUnit struct {
	id     string
	groups bool
	keySet afk.SigSet

	// UDF application
	desc   *udf.Descriptor
	params []value.V
	args   []*afk.Sig

	// Relational aggregation
	keys []*afk.Sig
	aggs []relAgg
}

type relAgg struct {
	fn  plan.AggFunc
	in  *afk.Sig // nil for COUNT(*)
	sig *afk.Sig // the produced attribute, for naming
}

func (a *appUnit) merge(b *appUnit) {
	a.aggs = append(a.aggs, b.aggs...)
	if b.groups {
		a.groups = true
		if len(a.keySet) == 0 {
			a.keySet = b.keySet
		}
	}
}

// appFor resolves the application that produces signature s.
func (r *Rewriter) appFor(q *optimizer.JobNode, s *afk.Sig) (*appUnit, bool) {
	if fn, isRel := relAggFunc(s.UDF); isRel {
		if !s.Agg {
			return nil, false
		}
		var in *afk.Sig
		if fn != plan.AggCount || len(s.Inputs) != len(s.GroupBy) || !afk.NewSigSet(s.Inputs...).Equal(afk.NewSigSet(s.GroupBy...)) {
			if len(s.Inputs) != 1 {
				return nil, false
			}
			in = s.Inputs[0]
		}
		keyIDs := make([]string, len(s.GroupBy))
		for i, k := range s.GroupBy {
			keyIDs[i] = k.ID()
		}
		return &appUnit{
			id:     "rel:" + strings.Join(keyIDs, ",") + "|" + s.CtxF,
			groups: true,
			keySet: afk.NewSigSet(s.GroupBy...),
			keys:   s.GroupBy,
			aggs:   []relAgg{{fn: fn, in: in, sig: s}},
		}, true
	}
	d, _, ok := r.Cat.UDFs.ForOutput(s.UDF)
	if !ok {
		return nil, false
	}
	params := parseParams(s.Params)
	if len(params) != d.NParams {
		return nil, false
	}
	args, ok := reconstructArgs(d, s)
	if !ok {
		return nil, false
	}
	// The identity deliberately excludes the filter context: an aggregate
	// output and a derived key of the *same application* must collapse into
	// one unit (applying the UDF once yields both).
	a := &appUnit{
		id:     "udf:" + d.Name + "[" + s.Params + "]" + sigIDs(args),
		desc:   d,
		params: params,
		args:   args,
	}
	if d.Kind == udf.KindAgg {
		a.groups = true
		a.keySet = afk.NewSigSet(d.KeySigs(args, params)...)
	}
	return a, true
}

// unit converts the application into a sequencable compensation operator.
func (a *appUnit) unit(r *Rewriter) unit {
	if a.desc != nil {
		desc, params, args := a.desc, a.params, a.args
		return unit{op: desc.Name, apply: func(cur *plan.Node) (*plan.Node, bool) {
			argCols := make([]string, len(args))
			for i, s := range args {
				argCols[i] = cur.Ann.NameOfSig(s.ID())
				if argCols[i] == "" {
					return nil, false
				}
			}
			return plan.Apply(cur, desc.Name, argCols, params...), true
		}}
	}
	keys, aggs := a.keys, a.aggs
	return unit{op: "groupagg", apply: func(cur *plan.Node) (*plan.Node, bool) {
		keyCols := make([]string, len(keys))
		for i, s := range keys {
			keyCols[i] = cur.Ann.NameOfSig(s.ID())
			if keyCols[i] == "" {
				return nil, false
			}
		}
		specs := make([]plan.AggSpec, len(aggs))
		for i, ra := range aggs {
			if !afk.Regroupable(ra.sig.UDF, cur.Ann.Grouped) {
				return nil, false
			}
			col := ""
			if ra.in != nil {
				col = cur.Ann.NameOfSig(ra.in.ID())
				if col == "" {
					return nil, false
				}
			}
			name := "c_" + shortID(ra.sig.ID())
			specs[i] = plan.AggSpec{Func: ra.fn, Col: col, As: name}
		}
		return plan.GroupAgg(cur, keyCols, specs...), true
	}}
}

// reconstructArgs rebuilds the UDF's positional argument signatures from a
// produced signature: map UDFs and derived-key aggregates store all args as
// Inputs in order; passthrough-key aggregates interleave GroupBy signatures
// back into their KeyArgs positions.
func reconstructArgs(d *udf.Descriptor, s *afk.Sig) ([]*afk.Sig, bool) {
	if d.Kind == udf.KindMap || d.DerivedKeys {
		if len(s.Inputs) != d.NArgs {
			return nil, false
		}
		return s.Inputs, true
	}
	if len(s.GroupBy) != len(d.KeyArgs) || len(s.Inputs)+len(s.GroupBy) != d.NArgs {
		return nil, false
	}
	args := make([]*afk.Sig, d.NArgs)
	for i, ka := range d.KeyArgs {
		args[ka] = s.GroupBy[i]
	}
	j := 0
	for i := range args {
		if args[i] == nil {
			args[i] = s.Inputs[j]
			j++
		}
	}
	return args, true
}

// bindPred rewrites a signature-ID predicate into the column names the
// current annotation binds those signatures to.
func bindPred(p expr.Pred, ann afk.Annotation) (expr.Pred, bool) {
	ok := true
	out := p.Rename(func(id string) string {
		n := ann.NameOfSig(id)
		if n == "" {
			ok = false
		}
		return n
	})
	return out, ok
}
