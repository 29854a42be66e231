package rewrite

import (
	"container/heap"
	"math"

	"opportune/internal/afk"
	"opportune/internal/optimizer"
	"opportune/internal/plan"
)

// Counters are the search-effort metrics of Fig 9.
type Counters struct {
	// CandidatesConsidered counts candidate views evaluated with OPTCOST
	// (initial views plus every merge product).
	CandidatesConsidered int
	// RewriteAttempts counts REWRITEENUM invocations.
	RewriteAttempts int
	// RewritesFound counts attempts that produced a valid rewrite.
	RewritesFound int
}

// Add accumulates another counter set.
func (c *Counters) Add(o Counters) {
	c.CandidatesConsidered += o.CandidatesConsidered
	c.RewriteAttempts += o.RewriteAttempts
	c.RewritesFound += o.RewritesFound
}

// viewFinder is the stateful per-target search of §7 (Algorithm 4): a
// priority queue of candidate views ordered by OPTCOST that grows
// on demand — each REFINE pops the head, merges it with everything popped
// before (Seen), and attempts a rewrite only when GUESSCOMPLETE passes.
type viewFinder struct {
	r      *Rewriter
	q      *optimizer.JobNode
	bounds *targetBounds // q's OPTCOST bounds in the cross-query memo

	pq      candHeap
	seen    []*Candidate
	initial *initial
	dedup   map[string]bool // merged candidates seen (views: initial.names)

	counters *Counters

	// poppedBounds records the OPTCOST of every candidate REFINE examined,
	// in pop order — the evidence for the work-efficiency property of
	// Theorem 1 (no examined candidate's bound exceeds the optimal
	// rewrite's cost). Tests and the ablation harness read it.
	poppedBounds []float64
}

// newViewFinder is INIT: all views become initial candidates ordered by
// OPTCOST. Irrelevant candidates (OPTCOST = ∞) are dropped immediately —
// they can never participate in a complete rewrite (see Relevant) — but
// still count as considered. Bounds are read off the views' shared
// templates, so only a view that joins the queue is copied into a
// candidate of its own.
func newViewFinder(r *Rewriter, q *optimizer.JobNode, in *initial, counters *Counters) *viewFinder {
	vf := &viewFinder{r: r, q: q, bounds: r.boundsOf(q), initial: in, dedup: make(map[string]bool), counters: counters}
	counters.CandidatesConsidered += len(in.entries)
	for _, e := range in.entries {
		if b := r.ablate(r.singleBound(q, vf.bounds, e)); b < inf {
			c := *e.single
			c.OptCost = b
			vf.pq = append(vf.pq, &c)
		}
	}
	heap.Init(&vf.pq)
	return vf
}

// Peek returns the OPTCOST of the next candidate, or +Inf when exhausted.
func (vf *viewFinder) Peek() float64 {
	if len(vf.pq) == 0 {
		return inf
	}
	return vf.pq[0].OptCost
}

// Refine pops the head candidate, grows the space by merging it with Seen,
// and attempts a rewrite if the candidate is guessed complete. Returns the
// found rewrite plan and its cost, or (nil, +Inf).
func (vf *viewFinder) Refine() (*plan.Node, float64) {
	if len(vf.pq) == 0 {
		return nil, inf
	}
	v := heap.Pop(&vf.pq).(*Candidate)
	vf.poppedBounds = append(vf.poppedBounds, v.OptCost)
	// Merge v with every seen candidate. Any rewrite from a merged
	// candidate also uses v and its partner, so both lower bounds apply;
	// taking the max keeps the queue monotone (the merged candidate can
	// never need examining before its parents). Merge skips sets already
	// seen, so each candidate it returns is new: it counts as considered,
	// relevant or not.
	skip := func(key string) bool { return vf.dedup[key] || vf.initial.names[key] }
	for _, s := range vf.seen {
		for _, m := range vf.r.Merge(v, s, skip) {
			vf.dedup[m.Key()] = true
			vf.counters.CandidatesConsidered++
			if m.OptCost = math.Max(vf.r.ablate(vf.r.bound(vf.q, vf.bounds, m)), v.OptCost); m.OptCost < inf {
				heap.Push(&vf.pq, m)
			}
		}
	}
	vf.seen = append(vf.seen, v)
	if vf.r.DisableGuessComplete || afk.GuessComplete(vf.q.Ann, v.Ann, vf.r.Cat.FDs) {
		vf.counters.RewriteAttempts++
		p, c := vf.r.RewriteEnum(vf.q, v)
		if p != nil {
			vf.counters.RewritesFound++
			return p, c
		}
	}
	return nil, inf
}

// candHeap is a min-heap of candidates by OPTCOST (key-ordered on ties for
// determinism).
type candHeap []*Candidate

func (h candHeap) Len() int { return len(h) }
func (h candHeap) Less(i, j int) bool {
	if h[i].OptCost != h[j].OptCost {
		return h[i].OptCost < h[j].OptCost
	}
	return h[i].Key() < h[j].Key()
}
func (h candHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x interface{}) { *h = append(*h, x.(*Candidate)) }
func (h *candHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
