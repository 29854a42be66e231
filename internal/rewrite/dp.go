package rewrite

import (
	"time"

	"opportune/internal/afk"
	"opportune/internal/meta"
	"opportune/internal/optimizer"
	"opportune/internal/plan"
)

// DPCandidateCap bounds the exhaustively exploded candidate space per
// target so the baseline terminates on large view sets; the paper's DP
// becomes "prohibitively expensive even when 250 views are present"
// (§8.3.3) for exactly this reason.
const DPCandidateCap = 100000

// DPRewrite is the competing baseline of §8: it does not use OPTCOST, and
// for every target it exhaustively pre-explodes the candidate space (all
// views, then all merges up to J views) and attempts a rewrite on each
// guessed-complete candidate. A dynamic-programming pass then composes the
// per-target best rewrites bottom-up. It finds the same optimal rewrite as
// BFREWRITE, exponentially more slowly.
func (r *Rewriter) DPRewrite(w *optimizer.Work, views []*meta.TableInfo) *Result {
	start := time.Now()
	res := &Result{OriginalCost: w.TotalCost()}
	in := r.begin(views)

	n := len(w.Nodes)
	type best struct {
		plan *plan.Node
		cost float64
	}
	rewrites := make([]best, n)
	for i := range rewrites {
		rewrites[i] = best{nil, inf}
	}

	for i, jn := range w.Nodes {
		for _, c := range in.explode(&res.Counters) {
			if !afk.GuessComplete(jn.Ann, c.Ann, r.Cat.FDs) {
				continue
			}
			res.Counters.RewriteAttempts++
			p, cost := r.RewriteEnum(jn, c)
			if p == nil {
				continue
			}
			res.Counters.RewritesFound++
			if cost < rewrites[i].cost {
				rewrites[i] = best{p, cost}
			}
		}
	}
	r.compose(w, res, func(i int) (*plan.Node, float64) { return rewrites[i].plan, rewrites[i].cost })
	res.Runtime = time.Since(start)
	return res
}

// compose is the dynamic-programming pass DP and BFR-SYNTACTIC share: over
// the job DAG in topological order, each target's best plan is its own
// logical plan over its inputs' best plans, costed whole, unless
// rewrite(i) offers a cheaper plan for target i. The sink's best is the
// result.
func (r *Rewriter) compose(w *optimizer.Work, res *Result, rewrite func(i int) (*plan.Node, float64)) {
	n := len(w.Nodes)
	bestPlan := make([]*plan.Node, n)
	bestCost := make([]float64, n)
	improved := make([]bool, n)
	for i, jn := range w.Nodes {
		subs := make(map[*plan.Node]*plan.Node)
		composed := jn.EstCost.Total()
		for _, dep := range jn.Deps {
			subs[dep.Logical] = bestPlan[dep.Index]
			composed += bestCost[dep.Index]
			improved[i] = improved[i] || improved[dep.Index]
		}
		if improved[i] {
			bestPlan[i] = plan.Substitute(jn.Logical, subs)
		} else {
			bestPlan[i] = jn.Logical
		}
		bestCost[i] = composed
		if c, err := r.compileCost(bestPlan[i]); err == nil {
			bestCost[i] = c
		}
		if p, c := rewrite(i); p != nil && c < bestCost[i] {
			bestPlan[i], bestCost[i], improved[i] = p, c, true
		}
	}
	sink := w.Sink().Index
	res.Plan, res.Cost, res.Improved = bestPlan[sink], bestCost[sink], improved[sink]
}

// explode generates the full candidate space for one target: every view,
// then level-wise merges up to MaxViews constituents, capped at
// DPCandidateCap.
func (s *search) explode(counters *Counters) []*Candidate {
	seen := make(map[string]bool)
	var all []*Candidate
	add := func(c *Candidate) bool {
		if seen[c.key] {
			return false
		}
		seen[c.key] = true
		counters.CandidatesConsidered++
		all = append(all, c)
		return true
	}
	var singles []*Candidate
	for _, e := range s.entries {
		if add(e.single) {
			singles = append(singles, e.single)
		}
	}
	level := singles
	for depth := 2; depth <= s.r.MaxViews && len(all) < DPCandidateCap; depth++ {
		var next []*Candidate
		for _, a := range level {
			for _, b := range singles {
				m := s.merge(a, b, func(key string) bool { return seen[key] })
				if m == nil {
					continue
				}
				if len(all) >= DPCandidateCap {
					return all
				}
				if add(m) {
					next = append(next, m)
				}
			}
		}
		level = next
	}
	return all
}
