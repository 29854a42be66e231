package rewrite

import (
	"time"

	"opportune/internal/meta"
	"opportune/internal/optimizer"
	"opportune/internal/plan"
)

// TraceEvent records search progress for the anytime analysis (Fig 11).
type TraceEvent struct {
	Elapsed       time.Duration
	BestPlanCost  float64 // BESTPLANCOST_n at this point
	RewritesFound int
}

// Result is the outcome of a rewrite search over a plan W.
type Result struct {
	// Plan produces the query result; it is the original logical plan when
	// no improving rewrite was found. A bare view scan means the result is
	// already materialized and nothing needs to run.
	Plan *plan.Node
	// Cost is the estimated cost of Plan; OriginalCost that of W.
	Cost         float64
	OriginalCost float64
	Improved     bool

	Counters Counters
	Trace    []TraceEvent
	Runtime  time.Duration
	// InitRuntime is the part of Runtime BFRewrite spent in INIT: every
	// view's OPTCOST against every target, and the initial queues.
	InitRuntime time.Duration

	// TargetWork records, per rewritable target, the largest OPTCOST bound
	// among candidates the search examined and the target's final best
	// cost — the evidence behind Theorem 1's work-efficiency claim (the
	// search never examines a candidate whose lower bound exceeds the cost
	// of the best plan it settles on).
	TargetWork []TargetWork
}

// TargetWork is one target's work-efficiency evidence.
type TargetWork struct {
	Target           int
	Examined         int
	MaxExaminedBound float64
	FinalBestCost    float64
}

// compileCost estimates a rewrite plan's execution cost. A bare scan of an
// existing dataset costs nothing: the target's output is already
// materialized.
func (r *Rewriter) compileCost(p *plan.Node) (float64, error) {
	if p.Kind == plan.KindScan {
		return 0, plan.Annotate(p, r.Cat)
	}
	w, err := r.Opt.Compile(p)
	if err != nil {
		return 0, err
	}
	return w.TotalCost(), nil
}

// bfState is the per-target state of Algorithm 1.
type bfState struct {
	finder    *viewFinder
	bestPlan  *plan.Node
	bestCost  float64
	consumers []int
}

// BFRewrite is Algorithm 1: the best-first search for the minimum-cost
// rewrite r* of W using the given views. Each target W_i gets a stateful
// VIEWFINDER; FINDNEXTMINTARGET picks the globally most promising target,
// REFINETARGET advances it one candidate, and improvements propagate to
// downstream targets (PROPBESTREWRITE, Algorithm 3).
func (r *Rewriter) BFRewrite(w *optimizer.Work, views []*meta.TableInfo) *Result {
	return r.bfRewrite(time.Now(), w, r.begin(views))
}

// bfRewrite is BFRewrite over a begun search; start is when it began.
func (r *Rewriter) bfRewrite(start time.Time, w *optimizer.Work, in *search) *Result {
	res := &Result{OriginalCost: w.TotalCost()}

	n := len(w.Nodes)
	states := make([]*bfState, n)
	for i, jn := range w.Nodes {
		states[i] = &bfState{
			finder:   newViewFinder(r, jn, in, &res.Counters),
			bestPlan: jn.Logical,
			bestCost: w.CostThrough(i),
		}
	}
	res.InitRuntime = time.Since(start)
	for i, jn := range w.Nodes {
		for _, d := range jn.Deps {
			states[d.Index].consumers = append(states[d.Index].consumers, i)
		}
	}

	sink := w.Sink().Index
	trace := func() {
		res.Trace = append(res.Trace, TraceEvent{
			Elapsed:       time.Since(start),
			BestPlanCost:  states[sink].bestCost,
			RewritesFound: res.Counters.RewritesFound,
		})
	}
	trace()

	// FINDNEXTMINTARGET (Algorithm 2): recursively pick the target whose
	// next candidate has the lowest potential cost for producing W_i.
	var findNext func(i int) (int, float64)
	findNext = func(i int) (int, float64) {
		dPrime := 0.0
		wMin, dMin := -1, inf
		for _, dep := range w.Nodes[i].Deps {
			k, d := findNext(dep.Index)
			dPrime += d
			if k >= 0 && d < dMin {
				wMin, dMin = k, d
			}
		}
		dPrime += w.Nodes[i].EstCost.Total()
		di := states[i].finder.Peek()
		switch {
		case min2(dPrime, di) >= states[i].bestCost:
			return -1, states[i].bestCost
		case dPrime < di:
			return wMin, dPrime
		default:
			return i, di
		}
	}

	// PROPBESTREWRITE (Algorithm 3): recompose downstream plans from the
	// improved upstream best plan.
	var propagate func(k int)
	propagate = func(k int) {
		subs := make(map[*plan.Node]*plan.Node)
		for _, dep := range w.Nodes[k].Deps {
			subs[dep.Logical] = states[dep.Index].bestPlan
		}
		composed := plan.Substitute(w.Nodes[k].Logical, subs)
		c, err := r.compileCost(composed)
		if err != nil {
			return
		}
		if c < states[k].bestCost {
			states[k].bestCost = c
			states[k].bestPlan = composed
			for _, next := range states[k].consumers {
				propagate(next)
			}
		}
	}

	// REFINETARGET (Algorithm 2, second function).
	refine := func(i int) {
		ri, c := states[i].finder.Refine()
		if ri != nil && c < states[i].bestCost {
			states[i].bestCost = c
			states[i].bestPlan = ri
			for _, k := range states[i].consumers {
				propagate(k)
			}
			trace()
		}
	}

	for {
		i, _ := findNext(sink)
		if i < 0 {
			break
		}
		refine(i)
	}

	res.Plan = states[sink].bestPlan
	res.Cost = states[sink].bestCost
	res.Improved = res.Plan != w.Sink().Logical
	res.Runtime = time.Since(start)
	trace()
	for i, st := range states {
		tw := TargetWork{Target: i, Examined: len(st.finder.poppedBounds), FinalBestCost: st.bestCost}
		for _, b := range st.finder.poppedBounds {
			if b > tw.MaxExaminedBound {
				tw.MaxExaminedBound = b
			}
		}
		res.TargetWork = append(res.TargetWork, tw)
	}
	return res
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
