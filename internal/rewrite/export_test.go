package rewrite

import (
	"fmt"
	"math"
	"slices"
	"time"

	"opportune/internal/afk"
	"opportune/internal/cost"
	"opportune/internal/meta"
	"opportune/internal/optimizer"
	"opportune/internal/plan"
)

// Search is the state of one search, for tests that inspect the merged
// templates it built.
type Search = search

// BFRewriteSearch is BFRewrite, also returning the search's state.
func BFRewriteSearch(r *Rewriter, w *optimizer.Work, views []*meta.TableInfo) (*Result, *Search) {
	s := r.begin(views)
	return r.bfRewrite(time.Now(), w, s), s
}

// NewSearch is the state of a search that has built nothing yet.
func NewSearch(r *Rewriter) *Search {
	return &search{r: r, merges: make(map[string]*Candidate)}
}

// MergedTemplates returns the merged-candidate templates s holds, by the
// view-set key they are stored under (sets with no canonical tree left
// out).
func MergedTemplates(s *Search) map[string]*Candidate {
	out := make(map[string]*Candidate)
	for k, t := range s.merges {
		if t != nil {
			out[k] = t
		}
	}
	return out
}

// BuildMergedFresh builds the canonical merged candidate of a view set the
// way a rewriter with an empty memo does: every join from scratch.
func BuildMergedFresh(r *Rewriter, views []*meta.TableInfo) (*Candidate, error) {
	return NewSearch(fresh(r)).buildMerged(views)
}

func fresh(r *Rewriter) *Rewriter {
	return &Rewriter{Cat: r.Cat, Opt: r.Opt, MaxViews: r.MaxViews, MaxOpRepeat: r.MaxOpRepeat}
}

// BuildMerged builds the canonical merged candidate of a view set through
// s's merged templates, reusing and storing prefixes.
func BuildMerged(s *Search, views []*meta.TableInfo) (*Candidate, error) {
	return s.buildMerged(views)
}

// Merge is MERGE of two candidates within search s (nil: no merge).
func Merge(s *Search, a, b *Candidate) *Candidate { return s.merge(a, b, nil) }

// Single is the single-view candidate of v.
func Single(r *Rewriter, v *meta.TableInfo) (*Candidate, error) { return r.single(v) }

// SigIDs is the candidate's sorted attribute signature list.
func SigIDs(c *Candidate) []string { return c.sigs }

// ProbeCandidate evaluates one view as a candidate for one target: it
// returns the candidate's OPTCOST and, when the view is guessed complete
// and REWRITEENUM succeeds, the rewrite plan with its cost.
func ProbeCandidate(r *Rewriter, q *optimizer.JobNode, v *meta.TableInfo) (float64, *plan.Node, float64) {
	c, err := r.single(v)
	if err != nil {
		return inf, nil, inf
	}
	oc := r.ablate(r.bound(q, r.boundsOf(q), c))
	if !afk.GuessComplete(q.Ann, c.Ann, r.Cat.FDs) {
		return oc, nil, inf
	}
	p, cost := r.RewriteEnum(q, c)
	return oc, p, cost
}

// CheckMemoHits makes r recompute every OPTCOST bound its cross-query memo
// serves from scratch — the candidate rebuilt by a rewriter with an empty
// memo, the bound derived the way optCost did before the memo (ComputeFix,
// fresh useful signatures) — and report each whose bits differ through
// fail. It returns the number of hits checked so far.
func CheckMemoHits(r *Rewriter, fail func(format string, args ...any)) (hits func() int) {
	n := 0
	r.crossMemo().hitCheck = func(q *optimizer.JobNode, c *Candidate, b float64) {
		n++
		var ref *Candidate
		var err error
		if len(c.Views) == 1 {
			ref, err = fresh(r).single(c.Views[0])
		} else {
			ref, err = BuildMergedFresh(r, c.Views)
		}
		if err != nil {
			fail("%s for %s: rebuilding the candidate: %v", c.key, q.ViewName, err)
			return
		}
		if want := refOptCost(r, q, ref); math.Float64bits(want) != math.Float64bits(b) {
			fail("%s for %s: memo serves OPTCOST %v, from scratch %v", c.key, q.ViewName, b, want)
		}
	}
	return func() int { return n }
}

// refOptCost is OPTCOST as derived before the memo, un-ablated.
func refOptCost(r *Rewriter, q *optimizer.JobNode, c *Candidate) float64 {
	if !r.relevantWith(q.Ann, c, usefulSigs(q.Ann)) {
		return inf
	}
	fix := afk.ComputeFix(q.Ann, c.Ann)
	if fix.Empty() && len(c.Views) == 1 {
		return 0
	}
	read := float64(c.Stats.Bytes) / r.Opt.Params.ReadRate
	var cpu float64
	if ops := fix.OpTypes(); len(ops) > 0 {
		cpu = float64(c.Stats.Rows) * r.Opt.Params.CPUSecondsPerTuple(cost.LocalFn{Ops: ops, Scalar: 1})
	}
	return read + cpu
}

// MemoViews is the number of catalog entries r's cross-query memo holds.
func MemoViews(r *Rewriter) int { return len(r.cross.views) }

// StaleMemoEntries lists what r's cross-query memo should no longer hold:
// entries whose view is not the catalog's current entry under its name,
// merged bounds over a view without an entry, and single bounds in a slot
// no entry owns. It also reports broken slot bookkeeping.
func StaleMemoEntries(r *Rewriter) []string {
	m := &r.cross
	var out []string
	owned := make(map[int]bool)
	for v, e := range m.views {
		if cur, ok := r.Cat.Table(v.Name); !ok || cur != v {
			out = append(out, fmt.Sprintf("view %s: not the catalog's current entry", v.Name))
		}
		if owned[e.slot] || slices.Contains(m.free, e.slot) {
			out = append(out, fmt.Sprintf("view %s: slot %d owned twice or free", v.Name, e.slot))
		}
		owned[e.slot] = true
	}
	for name, tb := range m.targets {
		known := 0
		for s, sb := range tb.single {
			if !sb.known {
				continue
			}
			known++
			if !owned[s] {
				out = append(out, fmt.Sprintf("target %s: bound in unowned slot %d", name, s))
			}
		}
		if known != tb.known {
			out = append(out, fmt.Sprintf("target %s: counts %d bounds, holds %d", name, tb.known, known))
		}
		for k, mb := range tb.merged {
			for _, v := range mb.views {
				if m.views[v] == nil {
					out = append(out, fmt.Sprintf("target %s: merged bound %s over %s, which has no entry", name, k, v.Name))
				}
			}
		}
	}
	slices.Sort(out)
	return out
}
