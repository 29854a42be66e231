// Package rewrite implements the paper's query-rewriting machinery: the
// OPTCOST lower bound (§4.3), the VIEWFINDER incremental candidate search
// (§7), the BFREWRITE best-first algorithm (§6), and the two baselines of
// §8 — exhaustive DP and syntactic-only matching (BFR-SYNTACTIC).
package rewrite

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"opportune/internal/afk"
	"opportune/internal/cost"
	"opportune/internal/meta"
	"opportune/internal/optimizer"
	"opportune/internal/plan"
)

// Candidate is a candidate view for rewriting a target: a single
// materialized view, or several merged (joined) views. Its Plan is the
// pre-compensation scan/join tree over the constituent views.
//
// A Candidate is an immutable template: a view's is built once per catalog
// entry (the cross-query memo), a view set's once per search, and every
// target's queue shares it, pairing it with that target's OPTCOST
// (candHeap).
type Candidate struct {
	Views []*meta.TableInfo
	Plan  *plan.Node
	Ann   afk.Annotation
	Stats cost.Stats // combined read volume of the constituents

	key   string   // dedup key
	names []string // constituent view names, sorted once at construction
	sigs  []string // Ann.A signature IDs, sorted once at construction
}

// Key is the candidate's canonical identity: constituent views plus merge
// structure.
func (c *Candidate) Key() string { return c.key }

// Rewriter holds the shared machinery: the catalog, the optimizer (for
// costing rewrites), and the algorithm parameters J and k (§5).
//
// A Rewriter is single-threaded: every search is one serial loop, and the
// optimizer's estimate cache it costs plans through is unsynchronized.
// Session serializes all use of it under planMu.
type Rewriter struct {
	Cat *meta.Catalog
	Opt *optimizer.Optimizer
	// MaxViews is J: the maximum number of views merged into one rewrite.
	MaxViews int
	// MaxOpRepeat is k: how often one operator may repeat in a compensation.
	MaxOpRepeat int

	// Ablation switches (normally false), quantifying each pruning source:
	// DisableOptCost makes every relevant candidate's lower bound zero, so
	// BFREWRITE loses both its candidate ordering and its early
	// termination; DisableGuessComplete attempts REWRITEENUM on every
	// candidate examined.
	DisableOptCost       bool
	DisableGuessComplete bool

	// cross caches single-view templates and OPTCOST bounds across queries;
	// read it through crossMemo (memo.go).
	cross crossMemo
}

// NewRewriter creates a rewriter with the paper's experimental parameters
// J=4, k=2.
func NewRewriter(cat *meta.Catalog, opt *optimizer.Optimizer) *Rewriter {
	return &Rewriter{Cat: cat, Opt: opt, MaxViews: 4, MaxOpRepeat: 2}
}

// sortedSigIDs caches a candidate's attribute signature IDs in sorted
// order, so joinSig can scan ascending and stop at the first (= smallest)
// shared keyed signature instead of re-sorting per merge attempt.
func sortedSigIDs(ann afk.Annotation) []string {
	ids := make([]string, 0, len(ann.A))
	for id := range ann.A {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// mergeSortedNames merges two sorted, internally-duplicate-free name lists,
// reporting whether they overlap.
func mergeSortedNames(a, b []string) (merged []string, overlap bool) {
	merged = make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return nil, true
		case a[i] < b[j]:
			merged = append(merged, a[i])
			i++
		default:
			merged = append(merged, b[j])
			j++
		}
	}
	merged = append(merged, a[i:]...)
	merged = append(merged, b[j:]...)
	return merged, false
}

// merge attempts to merge two candidates (the MERGE function of
// Algorithm 4, a standard view-merging step), returning nil when they do
// not merge. A merged candidate's identity is its *set* of constituent
// views, and its join tree is built canonically (see buildMerged), so its
// cost is well-defined regardless of the order the search discovered the
// set in — which the optimality of the best-first search relies on. skip,
// when non-nil, suppresses already-seen sets before the (costly) plan
// construction.
func (s *search) merge(a, b *Candidate, skip func(key string) bool) *Candidate {
	if len(a.Views)+len(b.Views) > s.r.MaxViews {
		return nil
	}
	// Reject merges of overlapping view sets; the merged sorted name list
	// doubles as the canonical identity of the union.
	merged, overlap := mergeSortedNames(a.names, b.names)
	if overlap {
		return nil
	}
	// The sides must share at least one joinable signature (an attribute
	// of both with key status on one side) for the set to be connected.
	if joinSig(a, b) == "" {
		return nil
	}
	key := strings.Join(merged, "+")
	if skip != nil && skip(key) {
		return nil
	}
	// The merged candidate depends only on the view set (the join tree is
	// canonical), not on the pair the search discovered it through or the
	// target — build it once per search, nil marking a set with no
	// canonical tree. Every target shares it, and every larger set built on
	// it shares it as a prefix.
	t, ok := s.merges[key]
	if !ok {
		t, _ = s.buildMerged(append(append([]*meta.TableInfo(nil), a.Views...), b.Views...))
		s.merges[key] = t
	}
	return t
}

// buildMerged constructs the canonical join tree of a view set: views
// ordered by (size, name) ascending, accumulated left-deep, each step
// joining in the first remaining view that shares a joinable signature
// with the accumulated side (on the smallest such signature ID).
//
// The tree cut after j views is the canonical tree of those j views: they
// sort in the same relative order, and a view the greedy step skipped as
// unjoinable is skipped again, so the subset's pick is the same view. Each
// prefix is therefore taken from the search's merges when present, and
// stored when built — a set one view larger than a known set costs one
// join.
func (s *search) buildMerged(views []*meta.TableInfo) (*Candidate, error) {
	ordered := append([]*meta.TableInfo(nil), views...)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Stats.Bytes != ordered[j].Stats.Bytes {
			return ordered[i].Stats.Bytes < ordered[j].Stats.Bytes
		}
		return ordered[i].Name < ordered[j].Name
	})
	cur, err := s.r.single(ordered[0])
	if err != nil {
		return nil, err
	}
	remaining := ordered[1:]
	for len(remaining) > 0 {
		i, side, sigID, err := s.r.pickNext(cur, remaining)
		if err != nil {
			return nil, err
		}
		remaining = append(remaining[:i], remaining[i+1:]...)
		names, _ := mergeSortedNames(cur.names, side.names)
		key := strings.Join(names, "+")
		next := s.merges[key]
		if next == nil {
			if next, err = s.r.mergeOn(cur, side, sigID, names, key); err != nil {
				return nil, err
			}
			s.merges[key] = next
		}
		cur = next
	}
	return cur, nil
}

// pickNext is the greedy step of buildMerged: the index and template of the
// first remaining view that shares a joinable signature with cur, and that
// signature.
func (r *Rewriter) pickNext(cur *Candidate, remaining []*meta.TableInfo) (int, *Candidate, string, error) {
	for i, v := range remaining {
		side, err := r.single(v)
		if err != nil {
			return 0, nil, "", err
		}
		if sigID := joinSig(cur, side); sigID != "" {
			return i, side, sigID, nil
		}
	}
	return 0, nil, "", fmt.Errorf("rewrite: view set not connected")
}

// joinSig picks the canonical join signature between two candidates: the
// smallest shared signature ID that is a grouping key of either side. The
// cached sorted ID list makes the first match the smallest.
func joinSig(a, b *Candidate) string {
	for _, id := range a.sigs {
		if _, ok := b.Ann.A[id]; !ok {
			continue
		}
		if a.Ann.K.HasID(id) || b.Ann.K.HasID(id) {
			return id
		}
	}
	return ""
}

// mergeOn joins two candidates on the given common signature ID into the
// candidate of their union, whose sorted names and key the caller passes.
func (r *Rewriter) mergeOn(a, b *Candidate, sigID string, names []string, key string) (*Candidate, error) {
	lCol := a.Ann.NameOfSig(sigID)
	rCol := b.Ann.NameOfSig(sigID)
	if lCol == "" || rCol == "" {
		return nil, fmt.Errorf("rewrite: join signature unnamed")
	}
	right := b.Plan
	// Resolve column-name collisions (other than the shared join column,
	// which annotation-level dedup handles) by renaming the right side.
	lNames := make(map[string]bool, len(a.Plan.OutCols))
	for _, c := range a.Plan.OutCols {
		lNames[c] = true
	}
	taken := make(map[string]bool, len(a.Plan.OutCols)+len(b.Plan.OutCols))
	for _, c := range a.Plan.OutCols {
		taken[c] = true
	}
	for _, c := range b.Plan.OutCols {
		taken[c] = true
	}
	var cols, as []string
	renamed := false
	for _, c := range b.Plan.OutCols {
		cols = append(cols, c)
		if lNames[c] && !(c == rCol && c == lCol) {
			fresh := "m_" + c
			for taken[fresh] {
				fresh = "m_" + fresh
			}
			taken[fresh] = true
			as = append(as, fresh)
			renamed = true
		} else {
			as = append(as, c)
		}
	}
	if renamed {
		right = plan.ProjectAs(right, cols, as)
		if rNew := indexRename(cols, as, rCol); rNew != "" {
			rCol = rNew
		}
	}
	p := plan.JoinNodes(a.Plan, right, lCol, rCol)
	if err := plan.Annotate(p, r.Cat); err != nil {
		return nil, err
	}
	views := append(append([]*meta.TableInfo(nil), a.Views...), b.Views...)
	c := &Candidate{
		Views: views,
		Plan:  p,
		Ann:   p.Ann,
		Stats: cost.Stats{Rows: a.Stats.Rows + b.Stats.Rows, Bytes: a.Stats.Bytes + b.Stats.Bytes},
		key:   key,
		names: names,
		sigs:  sortedSigIDs(p.Ann),
	}
	return c, nil
}

func indexRename(cols, as []string, col string) string {
	for i, c := range cols {
		if c == col {
			return as[i]
		}
	}
	return ""
}

// relevantWith reports whether a candidate can possibly participate in a
// complete rewrite of q: it must carry at least one signature useful to q
// (useful = usefulSigs(q): an attribute of q or an ingredient of one), and
// its filters must be implied by q's (a view that excluded tuples q needs
// can never join back to completeness, since merges only conjoin filters).
func (r *Rewriter) relevantWith(q afk.Annotation, c *Candidate, useful map[string]bool) bool {
	if c.Ann.Limited || q.Limited {
		return false // see GuessComplete: LIMIT is outside the model
	}
	if !q.F.ImpliesAll(c.Ann.F) {
		return false
	}
	for id := range c.Ann.A {
		if useful[id] {
			return true
		}
	}
	return false
}

// usefulSigs collects the signature IDs of q's attributes, keys, filter
// columns, and (recursively) every ingredient needed to derive them.
func usefulSigs(q afk.Annotation) map[string]bool {
	useful := make(map[string]bool)
	var add func(s *afk.Sig)
	add = func(s *afk.Sig) {
		if useful[s.ID()] {
			return
		}
		useful[s.ID()] = true
		for _, in := range s.Inputs {
			add(in)
		}
		for _, k := range s.GroupBy {
			add(k)
		}
	}
	for _, s := range q.A {
		add(s)
	}
	for _, s := range q.K {
		add(s)
	}
	for _, p := range q.F.Preds() {
		for _, id := range p.Attrs() {
			if s, ok := afk.Lookup(id); ok {
				add(s)
			}
		}
	}
	return useful
}

// ablate applies DisableOptCost to a bound: every relevant candidate's
// lower bound becomes zero.
func (r *Rewriter) ablate(b float64) float64 {
	if r.DisableOptCost && b < inf {
		return 0
	}
	return b
}

// optCost is the lower bound of §4.3 on the cost of any rewrite of target q
// that uses this candidate's views, computed from scratch (the memo's miss
// path; tb holds q's useful signatures): the cost of a synthesized
// single-local-function UDF that applies the fix to the candidate — reading
// the candidate's data plus, by the non-subsumable cost property, the
// cheapest operation of the fix per row. Irrelevant candidates get +Inf.
//
// The bound is sound for the optimizer's COST: any rewrite using these
// views reads at least their bytes and runs at least one local function
// over their rows.
func (r *Rewriter) optCost(q *optimizer.JobNode, tb *targetBounds, c *Candidate) float64 {
	if tb.useful == nil {
		tb.useful = usefulSigs(q.Ann)
	}
	if !r.relevantWith(q.Ann, c, tb.useful) {
		return inf
	}
	ops, empty := afk.FixOps(q.Ann, c.Ann)
	if empty && len(c.Views) == 1 {
		// No compensation needed: the view may answer the target as-is,
		// straight off disk, at zero execution cost.
		return 0
	}
	read := float64(c.Stats.Bytes) / r.Opt.Params.ReadRate
	var cpu float64
	if len(ops) > 0 {
		cpu = float64(c.Stats.Rows) * r.Opt.Params.CPUSecondsPerTuple(cost.LocalFn{Ops: ops, Scalar: 1})
	}
	return read + cpu
}

var inf = math.Inf(1)
