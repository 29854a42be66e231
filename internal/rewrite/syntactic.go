package rewrite

import (
	"slices"
	"time"

	"opportune/internal/meta"
	"opportune/internal/optimizer"
	"opportune/internal/plan"
)

// SyntacticRewrite is BFR-SYNTACTIC (§8.3.4): the conservative variant that
// stands in for caching-based systems like ReStore. A target is rewritten
// only when some view was produced by a *syntactically identical* plan
// (same operators, same order, same parameters — matched by plan
// fingerprint); no semantic compensation is ever applied. Per-target hits
// compose through the same dynamic-programming pass as DP.
func (r *Rewriter) SyntacticRewrite(w *optimizer.Work, views []*meta.TableInfo) *Result {
	start := time.Now()
	res := &Result{OriginalCost: w.TotalCost()}

	byFP := make(map[string]*meta.TableInfo, len(views))
	for _, v := range views {
		if v.PlanFP != "" {
			byFP[v.PlanFP] = v
		}
	}

	r.compose(w, res, func(i int) (*plan.Node, float64) {
		jn := w.Nodes[i]
		v, ok := byFP[jn.PlanFP]
		if !ok {
			return nil, inf
		}
		res.Counters.CandidatesConsidered++
		res.Counters.RewriteAttempts++
		scan := plan.Scan(v.Name)
		if err := plan.Annotate(scan, r.Cat); err != nil || !slices.Equal(scan.OutCols, jn.OutCols) {
			return nil, inf
		}
		res.Counters.RewritesFound++
		return scan, 0 // already materialized
	})
	res.Runtime = time.Since(start)
	return res
}
