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
	s      *search
	bounds *targetBounds // q's OPTCOST bounds in the cross-query memo

	pq    candHeap
	seen  []*Candidate
	dedup map[string]bool // merged candidates seen (views: s.names)

	counters *Counters

	// poppedBounds records the OPTCOST of every candidate REFINE examined,
	// in pop order — the evidence for the work-efficiency property of
	// Theorem 1 (no examined candidate's bound exceeds the optimal
	// rewrite's cost). Tests and the ablation harness read it.
	poppedBounds []float64
}

// newViewFinder is INIT: all views become initial candidates ordered by
// OPTCOST. Irrelevant candidates (OPTCOST = ∞) are dropped immediately —
// they can never participate in a complete rewrite (see relevantWith) —
// but still count as considered.
func newViewFinder(r *Rewriter, q *optimizer.JobNode, s *search, counters *Counters) *viewFinder {
	vf := &viewFinder{r: r, q: q, s: s, bounds: r.boundsOf(q), dedup: make(map[string]bool), counters: counters}
	counters.CandidatesConsidered += len(s.entries)
	for _, e := range s.entries {
		if b := r.ablate(r.singleBound(q, vf.bounds, e)); b < inf {
			vf.pq = append(vf.pq, queued{e.single, b})
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
	return vf.pq[0].bound
}

// Refine pops the head candidate, grows the space by merging it with Seen,
// and attempts a rewrite if the candidate is guessed complete. Returns the
// found rewrite plan and its cost, or (nil, +Inf).
func (vf *viewFinder) Refine() (*plan.Node, float64) {
	if len(vf.pq) == 0 {
		return nil, inf
	}
	head := heap.Pop(&vf.pq).(queued)
	v := head.Candidate
	vf.poppedBounds = append(vf.poppedBounds, head.bound)
	// Merge v with every seen candidate. Any rewrite from a merged
	// candidate also uses v and its partner, so both lower bounds apply;
	// taking the max keeps the queue monotone (the merged candidate can
	// never need examining before its parents). merge skips sets already
	// seen, so each candidate it returns is new: it counts as considered,
	// relevant or not.
	skip := func(key string) bool { return vf.dedup[key] || vf.s.names[key] }
	for _, other := range vf.seen {
		m := vf.s.merge(v, other, skip)
		if m == nil {
			continue
		}
		vf.dedup[m.key] = true
		vf.counters.CandidatesConsidered++
		if b := math.Max(vf.r.ablate(vf.r.bound(vf.q, vf.bounds, m)), head.bound); b < inf {
			heap.Push(&vf.pq, queued{m, b})
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

// queued is one target's queue entry: a shared template and its OPTCOST
// for that target.
type queued struct {
	*Candidate
	bound float64
}

// candHeap is a min-heap of queue entries by OPTCOST (key-ordered on ties
// for determinism).
type candHeap []queued

func (h candHeap) Len() int { return len(h) }
func (h candHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound
	}
	return h[i].key < h[j].key
}
func (h candHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x any)   { *h = append(*h, x.(queued)) }
func (h *candHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
