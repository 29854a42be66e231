// Package plan defines logical query plans: DAGs of relational operators
// and UDF applications over base logs and views. Plans are annotated
// bottom-up with (A,F,K) expressions — the first of the two per-node
// annotations the paper's optimizer produces (§2.1); the cost annotation is
// added by the optimizer package.
package plan

import (
	"fmt"
	"strings"

	"opportune/internal/afk"
	"opportune/internal/expr"
	"opportune/internal/udf"
	"opportune/internal/value"
)

// Catalog is what annotation reads of the metadata store, meta.Catalog,
// which keeps each view's producing plan and so cannot be imported here.
type Catalog interface {
	// Source returns a dataset's annotation, columns and stored layout.
	Source(name string) (afk.Annotation, []string, afk.Partitioning, bool)
	// Deps returns the functional dependencies annotation adds to.
	Deps() *afk.FDSet
	// UDF looks a registered UDF up.
	UDF(name string) (*udf.Descriptor, bool)
}

// Kind enumerates operator kinds.
type Kind uint8

const (
	// KindScan reads a base log or a materialized view.
	KindScan Kind = iota
	// KindProject keeps a subset of columns.
	KindProject
	// KindFilter applies one predicate.
	KindFilter
	// KindJoin equi-joins two inputs.
	KindJoin
	// KindGroupAgg groups on key columns and computes aggregates.
	KindGroupAgg
	// KindUDF applies a registered UDF.
	KindUDF
	// KindSort totally orders the result and optionally limits it.
	KindSort
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindScan:
		return "scan"
	case KindProject:
		return "project"
	case KindFilter:
		return "filter"
	case KindJoin:
		return "join"
	case KindGroupAgg:
		return "groupagg"
	case KindUDF:
		return "udf"
	case KindSort:
		return "sort"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// AggFunc is a built-in aggregate function.
type AggFunc string

// Built-in aggregates.
const (
	AggCount AggFunc = "count"
	AggSum   AggFunc = "sum"
	AggAvg   AggFunc = "avg"
	AggMin   AggFunc = "min"
	AggMax   AggFunc = "max"
)

// AggSpec is one aggregate in a group-by: Func over Col, named As. AggCount
// with empty Col is COUNT(*).
type AggSpec struct {
	Func AggFunc
	Col  string
	As   string
}

// Node is one logical operator. Inputs are nil for scans, one element for
// unary operators, two for joins.
type Node struct {
	Kind   Kind
	Inputs []*Node

	// KindScan
	Dataset string
	// KindProject
	Cols []string
	// As optionally renames the projected columns (same length as Cols).
	As []string
	// KindFilter (column-name terms)
	Pred expr.Pred
	// KindJoin
	LCol, RCol string
	// KindGroupAgg
	Keys []string
	Aggs []AggSpec
	// KindUDF
	UDFName   string
	UDFArgs   []string
	UDFParams []value.V
	// KindSort
	SortCols []string
	SortDesc []bool
	// Limit caps the result rows after sorting; -1 means no limit.
	Limit int64

	// Computed by Annotate.
	Ann     afk.Annotation
	OutCols []string // physical output column order
	// Part is the physical-layout annotation propagated alongside (A,F,K):
	// how the node's output rows are hash-distributed. Scans take the
	// stored layout from the catalog; per-row operators preserve it (rows
	// keep their bucket residency); boundary operators (GroupAgg, Join,
	// grouping UDFs) produce output bucketed on their own shuffle key with
	// Parts=0 — "keys known, count chosen by the writer" — which the
	// optimizer resolves against cost.Params; Sort funnels through one
	// reducer and clears it.
	Part afk.Partitioning

	// annotated memoizes Annotate: rewrite-candidate construction wraps
	// already-annotated subtrees thousands of times, and re-deriving their
	// annotations bottom-up dominated the search cost. Clone and
	// Substitute clear the flag on every node they copy.
	annotated bool
	// annCanon caches Ann.Canon() from its first use: the estimator
	// resolves cross-plan estimates by canon for every node on every
	// compile, and the search compiles the same subtrees many times over —
	// but most join trees the search builds are never compiled at all.
	annCanon string
}

// AnnCanon returns the canonical fingerprint of the node's annotation,
// computed on first use and cached until the node is re-annotated.
func (n *Node) AnnCanon() string {
	if n.annCanon == "" {
		n.annCanon = n.Ann.Canon()
	}
	return n.annCanon
}

// Scan builds a scan node.
func Scan(dataset string) *Node { return &Node{Kind: KindScan, Dataset: dataset} }

// Project builds a projection node.
func Project(in *Node, cols ...string) *Node {
	return &Node{Kind: KindProject, Inputs: []*Node{in}, Cols: cols}
}

// ProjectAs builds a projection that also renames: column cols[i] is output
// as as[i]. Signatures are preserved, so renamed attributes keep their
// semantic identity.
func ProjectAs(in *Node, cols, as []string) *Node {
	return &Node{Kind: KindProject, Inputs: []*Node{in}, Cols: cols, As: as}
}

// Filter builds a filter node.
func Filter(in *Node, pred expr.Pred) *Node {
	return &Node{Kind: KindFilter, Inputs: []*Node{in}, Pred: pred}
}

// JoinNodes builds an equi-join node.
func JoinNodes(l, r *Node, lCol, rCol string) *Node {
	return &Node{Kind: KindJoin, Inputs: []*Node{l, r}, LCol: lCol, RCol: rCol}
}

// GroupAgg builds a group-by-aggregate node.
func GroupAgg(in *Node, keys []string, aggs ...AggSpec) *Node {
	return &Node{Kind: KindGroupAgg, Inputs: []*Node{in}, Keys: keys, Aggs: aggs}
}

// Apply builds a UDF application node.
func Apply(in *Node, udfName string, args []string, params ...value.V) *Node {
	return &Node{Kind: KindUDF, Inputs: []*Node{in}, UDFName: udfName, UDFArgs: args, UDFParams: params}
}

// Sort builds a total-order node over the named columns (desc[i] flips
// column i); limit caps the output (-1 for none). MR executes this as a
// single-reducer job, as naive Hive ORDER BY does.
func Sort(in *Node, cols []string, desc []bool, limit int64) *Node {
	return &Node{Kind: KindSort, Inputs: []*Node{in}, SortCols: cols, SortDesc: desc, Limit: limit}
}

// Annotate computes (A,F,K) annotations and output column lists bottom-up.
// It returns an error for invalid plans (unknown tables/columns/UDFs,
// ambiguous join column names).
func Annotate(n *Node, cat Catalog) error {
	if n.annotated {
		return nil
	}
	for _, in := range n.Inputs {
		if err := Annotate(in, cat); err != nil {
			return err
		}
	}
	switch n.Kind {
	case KindScan:
		ann, cols, part, ok := cat.Source(n.Dataset)
		if !ok {
			return fmt.Errorf("plan: unknown dataset %q", n.Dataset)
		}
		n.Ann = ann
		n.OutCols = append([]string(nil), cols...)
		n.Part = part.Clone()

	case KindProject:
		in := n.Inputs[0]
		for _, c := range n.Cols {
			if in.Ann.SigOf(c) == nil {
				return fmt.Errorf("plan: project: column %q not in input %v", c, in.OutCols)
			}
		}
		if len(n.As) > 0 && len(n.As) != len(n.Cols) {
			return fmt.Errorf("plan: project: %d rename targets for %d columns", len(n.As), len(n.Cols))
		}
		if len(n.As) > 0 {
			n.Ann = in.Ann.ProjectRename(n.Cols, n.As)
			n.OutCols = append([]string(nil), n.As...)
		} else {
			n.Ann = in.Ann.Project(n.Cols...)
			n.OutCols = append([]string(nil), n.Cols...)
		}
		// Rows keep their bucket residency under projection, and renames
		// keep signature identity, so the layout property carries through.
		n.Part = in.Part.Clone()

	case KindFilter:
		in := n.Inputs[0]
		for _, c := range n.Pred.Attrs() {
			if in.Ann.SigOf(c) == nil {
				return fmt.Errorf("plan: filter: column %q not in input %v", c, in.OutCols)
			}
		}
		n.Ann = in.Ann.WithFilter(n.Pred)
		n.OutCols = append([]string(nil), in.OutCols...)
		n.Part = in.Part.Clone() // deleting rows never moves survivors

	case KindJoin:
		l, r := n.Inputs[0], n.Inputs[1]
		if l.Ann.SigOf(n.LCol) == nil {
			return fmt.Errorf("plan: join: column %q not in left input %v", n.LCol, l.OutCols)
		}
		if r.Ann.SigOf(n.RCol) == nil {
			return fmt.Errorf("plan: join: column %q not in right input %v", n.RCol, r.OutCols)
		}
		sameSig := l.Ann.MustSig(n.LCol).ID() == r.Ann.MustSig(n.RCol).ID()
		n.OutCols = append([]string(nil), l.OutCols...)
		lset := make(map[string]bool, len(l.OutCols))
		for _, c := range l.OutCols {
			lset[c] = true
		}
		// A set-based A cannot carry the same attribute twice; when a
		// right-side column (other than the shared join column) has a
		// signature already present on the left — e.g. the same per-user
		// aggregate joined once through the user and once through a friend
		// — rebind it to a role-tagged derived signature. This is sound
		// (no false reuse conflation) at the price of reuse opportunities
		// for that column.
		rebinds := make(map[string]*afk.Sig)
		for _, c := range r.OutCols {
			if c == n.RCol && sameSig {
				continue
			}
			s := r.Ann.MustSig(c)
			if _, dup := l.Ann.A[s.ID()]; dup {
				role := afk.DerivedSig("rolecopy:"+c, "", []*afk.Sig{s})
				cat.Deps().Add([]string{s.ID()}, role.ID())
				rebinds[c] = role
			}
		}
		rAnn := r.Ann.RebindAll(rebinds)
		for _, c := range r.OutCols {
			if c == n.RCol && sameSig {
				continue // same logical column; keep the left copy only
			}
			if lset[c] {
				return fmt.Errorf("plan: join: ambiguous column %q (rename one side first)", c)
			}
			n.OutCols = append(n.OutCols, c)
		}
		n.Ann = afk.Join(l.Ann, rAnn, n.LCol, n.RCol)
		// A compiled join shuffles both sides on the join key, so its
		// output is bucketed on that key; the count is the writer's choice.
		n.Part = afk.Partitioning{Sigs: []string{l.Ann.MustSig(n.LCol).ID()}}

	case KindGroupAgg:
		in := n.Inputs[0]
		for _, k := range n.Keys {
			if in.Ann.SigOf(k) == nil {
				return fmt.Errorf("plan: groupagg: key %q not in input %v", k, in.OutCols)
			}
		}
		keySigs := make([]*afk.Sig, len(n.Keys))
		keyIDs := make([]string, len(n.Keys))
		for i, k := range n.Keys {
			keySigs[i] = in.Ann.MustSig(k)
			keyIDs[i] = keySigs[i].ID()
		}
		ctxF := in.Ann.F.Canon()
		aggAttrs := make([]afk.Attr, 0, len(n.Aggs))
		n.OutCols = append([]string(nil), n.Keys...)
		for _, a := range n.Aggs {
			if a.As == "" {
				return fmt.Errorf("plan: groupagg: aggregate %s(%s) needs a name", a.Func, a.Col)
			}
			var inputs []*afk.Sig
			if a.Col == "" {
				if a.Func != AggCount {
					return fmt.Errorf("plan: groupagg: %s requires a column", a.Func)
				}
				inputs = keySigs
			} else {
				s := in.Ann.SigOf(a.Col)
				if s == nil {
					return fmt.Errorf("plan: groupagg: column %q not in input %v", a.Col, in.OutCols)
				}
				inputs = []*afk.Sig{s}
			}
			sig := afk.AggSig("agg_"+string(a.Func), "", inputs, ctxF, keySigs)
			cat.Deps().Add(keyIDs, sig.ID())
			aggAttrs = append(aggAttrs, afk.Attr{Name: a.As, Sig: sig})
			n.OutCols = append(n.OutCols, a.As)
		}
		n.Ann = in.Ann.GroupBy(n.Keys, aggAttrs)
		// A keyed GroupAgg's output is bucketed on its ordered key — the
		// layout the retained view inherits for free.
		if len(keyIDs) > 0 {
			n.Part = afk.Partitioning{Sigs: append([]string(nil), keyIDs...)}
		} else {
			n.Part = afk.Partitioning{}
		}

	case KindUDF:
		in := n.Inputs[0]
		d, ok := cat.UDF(n.UDFName)
		if !ok {
			return fmt.Errorf("plan: unknown UDF %q", n.UDFName)
		}
		ann, err := d.Annotate(in.Ann, n.UDFArgs, n.UDFParams, cat.Deps())
		if err != nil {
			return fmt.Errorf("plan: %w", err)
		}
		n.Ann = ann
		n.OutCols = udfOutCols(d, in.OutCols, ann)
		n.Part = udfPart(d, in.Part, ann)

	case KindSort:
		in := n.Inputs[0]
		if len(n.SortDesc) != 0 && len(n.SortDesc) != len(n.SortCols) {
			return fmt.Errorf("plan: sort: %d desc flags for %d columns", len(n.SortDesc), len(n.SortCols))
		}
		for _, c := range n.SortCols {
			if in.Ann.SigOf(c) == nil {
				return fmt.Errorf("plan: sort: column %q not in input %v", c, in.OutCols)
			}
		}
		// Ordering alone does not change the (A,F,K) model (set semantics);
		// a LIMIT taints the output as physically-order-dependent.
		n.Ann = in.Ann
		if n.Limit >= 0 {
			n.Ann = in.Ann.WithLimited()
		}
		n.OutCols = append([]string(nil), in.OutCols...)
		n.Part = afk.Partitioning{} // total order funnels through one reducer

	default:
		return fmt.Errorf("plan: invalid node kind %d", n.Kind)
	}
	n.annCanon = ""
	n.annotated = true
	return nil
}

// udfPart derives the layout annotation of a UDF application: per-row UDFs
// keep rows (and any extra rows they explode into) in their input's bucket,
// so the layout carries through; grouping UDFs are boundary operators whose
// output is bucketed on their key columns — provided every key survives
// into the output annotation — and otherwise clear the property.
func udfPart(d *udf.Descriptor, in afk.Partitioning, ann afk.Annotation) afk.Partitioning {
	if d.Kind != udf.KindAgg {
		return in.Clone()
	}
	if len(d.KeyNames) == 0 {
		return afk.Partitioning{}
	}
	sigs := make([]string, 0, len(d.KeyNames))
	for _, k := range d.KeyNames {
		s := ann.SigOf(k)
		if s == nil {
			return afk.Partitioning{}
		}
		sigs = append(sigs, s.ID())
	}
	return afk.Partitioning{Sigs: sigs}
}

// udfOutCols derives the physical column order of a UDF application.
func udfOutCols(d *udf.Descriptor, inCols []string, ann afk.Annotation) []string {
	var out []string
	have := make(map[string]bool)
	add := func(c string) {
		if ann.SigOf(c) != nil && !have[c] {
			have[c] = true
			out = append(out, c)
		}
	}
	if d.Kind == udf.KindAgg {
		for _, k := range d.KeyNames {
			add(k)
		}
		for _, o := range d.OutNames {
			add(o)
		}
		return out
	}
	for _, c := range inCols {
		add(c)
	}
	for _, o := range d.OutNames {
		add(o)
	}
	// Exploding UDFs add a hidden row-key column; pick up any annotation
	// attribute not yet covered (deterministic order via ann.Names()).
	for _, c := range ann.Names() {
		add(c)
	}
	return out
}

// Fingerprint is the syntactic identity of the plan: operator structure,
// datasets, predicates, parameters — everything except annotation-level
// semantics. Two plans are "identical" to caching-based systems (ReStore,
// §8.3.4) iff fingerprints match.
func (n *Node) Fingerprint() string {
	var sb strings.Builder
	n.fp(&sb)
	return sb.String()
}

func (n *Node) fp(sb *strings.Builder) {
	sb.WriteString(n.Kind.String())
	sb.WriteByte('(')
	switch n.Kind {
	case KindScan:
		sb.WriteString(n.Dataset)
	case KindProject:
		sb.WriteString(strings.Join(n.Cols, ","))
		if len(n.As) > 0 {
			sb.WriteString(">" + strings.Join(n.As, ","))
		}
	case KindFilter:
		sb.WriteString(n.Pred.Canon())
	case KindJoin:
		sb.WriteString(n.LCol + "=" + n.RCol)
	case KindGroupAgg:
		sb.WriteString(strings.Join(n.Keys, ","))
		for _, a := range n.Aggs {
			fmt.Fprintf(sb, ";%s:%s:%s", a.Func, a.Col, a.As)
		}
	case KindUDF:
		sb.WriteString(n.UDFName)
		sb.WriteString(";")
		sb.WriteString(strings.Join(n.UDFArgs, ","))
		for _, p := range n.UDFParams {
			sb.WriteString(";" + p.String())
		}
	case KindSort:
		sb.WriteString(strings.Join(n.SortCols, ","))
		for _, d := range n.SortDesc {
			fmt.Fprintf(sb, ";%v", d)
		}
		fmt.Fprintf(sb, ";limit=%d", n.Limit)
	}
	for _, in := range n.Inputs {
		sb.WriteByte('|')
		in.fp(sb)
	}
	sb.WriteByte(')')
}

// Clone deep-copies the plan tree. Annotations are value-like and shared.
func (n *Node) Clone() *Node {
	c := *n
	c.annotated = false
	c.annCanon = ""
	c.Inputs = make([]*Node, len(n.Inputs))
	for i, in := range n.Inputs {
		c.Inputs[i] = in.Clone()
	}
	c.Cols = append([]string(nil), n.Cols...)
	c.As = append([]string(nil), n.As...)
	c.Keys = append([]string(nil), n.Keys...)
	c.Aggs = append([]AggSpec(nil), n.Aggs...)
	c.UDFArgs = append([]string(nil), n.UDFArgs...)
	c.UDFParams = append([]value.V(nil), n.UDFParams...)
	c.SortCols = append([]string(nil), n.SortCols...)
	c.SortDesc = append([]bool(nil), n.SortDesc...)
	c.OutCols = append([]string(nil), n.OutCols...)
	c.Part = n.Part.Clone()
	return &c
}

// Substitute returns a copy of root where every node present (by pointer)
// in repl is replaced by its substitute subtree (not descended into).
// This is how rewrites found at upstream targets compose into downstream
// plans (PROPBESTREWRITE).
func Substitute(root *Node, repl map[*Node]*Node) *Node {
	if r, ok := repl[root]; ok {
		return r
	}
	c := *root
	c.annotated = false
	c.annCanon = ""
	c.Inputs = make([]*Node, len(root.Inputs))
	for i, in := range root.Inputs {
		c.Inputs[i] = Substitute(in, repl)
	}
	return &c
}

// Walk visits the tree bottom-up (inputs before node).
func Walk(n *Node, fn func(*Node)) {
	for _, in := range n.Inputs {
		Walk(in, fn)
	}
	fn(n)
}

// String renders the plan tree compactly for debugging.
func (n *Node) String() string {
	var sb strings.Builder
	n.str(&sb, 0)
	return sb.String()
}

func (n *Node) str(sb *strings.Builder, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	switch n.Kind {
	case KindScan:
		fmt.Fprintf(sb, "scan %s", n.Dataset)
	case KindProject:
		fmt.Fprintf(sb, "project %s", strings.Join(n.Cols, ","))
	case KindFilter:
		fmt.Fprintf(sb, "filter %s", n.Pred)
	case KindJoin:
		fmt.Fprintf(sb, "join %s=%s", n.LCol, n.RCol)
	case KindGroupAgg:
		fmt.Fprintf(sb, "groupagg keys=%s", strings.Join(n.Keys, ","))
	case KindUDF:
		fmt.Fprintf(sb, "udf %s(%s)", n.UDFName, strings.Join(n.UDFArgs, ","))
	case KindSort:
		fmt.Fprintf(sb, "sort %s limit=%d", strings.Join(n.SortCols, ","), n.Limit)
	}
	sb.WriteByte('\n')
	for _, in := range n.Inputs {
		in.str(sb, depth+1)
	}
}
