package rewrite

import (
	"slices"

	"opportune/internal/cost"
	"opportune/internal/meta"
	"opportune/internal/optimizer"
	"opportune/internal/plan"
)

// crossMemo is the rewriter's one memo (DESIGN §5.7): what the search
// derives from catalog entries alone, kept across queries — each view's
// single-view candidate template and every OPTCOST bound, un-ablated.
//
// OPTCOST reads the target's annotation, the candidate's annotation and
// Stats, and cost.Params — no estimate, no FD. A candidate's annotation and
// Stats are functions of its constituent catalog entries, and the catalog
// publishes entries copy-on-write (stats, layout, maintenance and
// re-registration each install a new *meta.TableInfo). So the memo keys on
// those pointers and a changed view is a miss, never a stale hit. Targets
// key on their ViewName, the hash of their annotation's canonical form.
type crossMemo struct {
	params  cost.Params                    // the Params every bound was computed under
	views   map[*meta.TableInfo]*viewEntry // catalog entry -> its memo entry
	targets map[string]*targetBounds       // target view name -> its bounds
	free    []int                          // slots of pruned views, reused first
	slots   int                            // slots handed out
	search  uint64                         // searches begun

	// hitCheck, set only by tests, sees every bound the memo serves.
	hitCheck func(q *optimizer.JobNode, c *Candidate, bound float64)
}

// viewEntry is the memo's record of one catalog entry: its single-view
// candidate template and the slot that indexes its bound in every target's
// table.
type viewEntry struct {
	single *Candidate
	slot   int
	listed uint64 // the last search that listed the view
}

// targetBounds are one target's OPTCOST bounds: single-view candidates by
// their view's slot, merged candidates by view-set key together with the
// catalog entries the bound was computed from — it serves only a candidate
// built from exactly those. useful is the target's usefulSigs, derived on
// the first miss.
type targetBounds struct {
	single []slotBound
	known  int // single bounds held
	merged map[string]mergedBound
	useful map[string]bool
}

type slotBound struct {
	bound float64
	known bool
}

type mergedBound struct {
	views []*meta.TableInfo
	bound float64
}

// crossMemo returns the cross-query memo, empty on first use.
func (r *Rewriter) crossMemo() *crossMemo {
	if r.cross.views == nil {
		r.cross.params = r.Opt.Params
		r.cross.views = make(map[*meta.TableInfo]*viewEntry)
		r.cross.targets = make(map[string]*targetBounds)
	}
	return &r.cross
}

// search is the state of one search, shared by all its targets: INIT's view
// list — the memo entry of each view in order, leaving out views that fail
// to annotate and repeats of a name (a view is one candidate per target) —
// and the merged templates built so far, by view-set key (nil: the set has
// no canonical tree). Merged templates are not kept across searches.
type search struct {
	r       *Rewriter
	entries []*viewEntry
	names   map[string]bool
	merges  map[string]*Candidate
}

// begin starts a search over views: it returns the search's state and
// prunes the memo. Every entry of a view the search lists is kept; any other
// whose view is no longer the catalog's current entry under its name —
// dropped, evicted, invalidated or replaced — goes, with every bound over
// it, and so does every target left without bounds. The memo's size thus follows the
// catalog. A change of cost.Params empties it.
func (r *Rewriter) begin(views []*meta.TableInfo) *search {
	m := r.crossMemo()
	if m.params != r.Opt.Params {
		r.cross = crossMemo{hitCheck: m.hitCheck}
		m = r.crossMemo()
	}
	m.search++
	in := &search{
		r:       r,
		entries: make([]*viewEntry, 0, len(views)),
		names:   make(map[string]bool, len(views)),
		merges:  make(map[string]*Candidate),
	}
	for _, v := range views {
		if in.names[v.Name] {
			continue
		}
		e, err := r.entry(v)
		if err != nil {
			continue
		}
		e.listed = m.search
		in.names[v.Name] = true
		in.entries = append(in.entries, e)
	}
	if len(in.entries) < len(m.views) {
		r.prune()
	}
	return in
}

// prune drops the entries begin's contract does not keep.
func (r *Rewriter) prune() {
	m := &r.cross
	var freed []int
	for v, e := range m.views {
		if e.listed == m.search {
			continue
		}
		if cur, ok := r.Cat.Table(v.Name); !ok || cur != v {
			delete(m.views, v)
			freed = append(freed, e.slot)
		}
	}
	if len(freed) == 0 {
		return
	}
	m.free = append(m.free, freed...)
	gone := func(v *meta.TableInfo) bool { return m.views[v] == nil }
	for name, tb := range m.targets {
		for _, s := range freed {
			if s < len(tb.single) && tb.single[s].known {
				tb.single[s] = slotBound{}
				tb.known--
			}
		}
		for k, mb := range tb.merged {
			if slices.ContainsFunc(mb.views, gone) {
				delete(tb.merged, k)
			}
		}
		if tb.known == 0 && len(tb.merged) == 0 {
			delete(m.targets, name)
		}
	}
}

// entry returns v's memo entry, building its single-view template on first
// use: a scan node plus its annotation. Annotating a view scan depends only
// on the catalog entry, so the template serves every later query until the
// entry is replaced.
func (r *Rewriter) entry(v *meta.TableInfo) (*viewEntry, error) {
	m := r.crossMemo()
	if e, ok := m.views[v]; ok {
		return e, nil
	}
	p := plan.Scan(v.Name)
	if err := plan.Annotate(p, r.Cat); err != nil {
		return nil, err
	}
	e := &viewEntry{single: &Candidate{
		Views: []*meta.TableInfo{v},
		Plan:  p,
		Ann:   p.Ann,
		Stats: v.Stats,
		key:   v.Name,
		names: []string{v.Name},
		sigs:  sortedSigIDs(p.Ann),
	}}
	if n := len(m.free); n > 0 {
		e.slot, m.free = m.free[n-1], m.free[:n-1]
	} else {
		e.slot = m.slots
		m.slots++
	}
	m.views[v] = e
	return e, nil
}

// single returns the candidate template of one view.
func (r *Rewriter) single(v *meta.TableInfo) (*Candidate, error) {
	e, err := r.entry(v)
	if err != nil {
		return nil, err
	}
	return e.single, nil
}

// boundsOf returns target q's bounds, empty on first use.
func (r *Rewriter) boundsOf(q *optimizer.JobNode) *targetBounds {
	m := r.crossMemo()
	tb := m.targets[q.ViewName]
	if tb == nil {
		tb = &targetBounds{merged: make(map[string]mergedBound)}
		m.targets[q.ViewName] = tb
	}
	return tb
}

// bound is OPTCOST before ablation, served from the memo (see crossMemo).
func (r *Rewriter) bound(q *optimizer.JobNode, tb *targetBounds, c *Candidate) float64 {
	if len(c.Views) == 1 {
		if e := r.cross.views[c.Views[0]]; e != nil {
			return r.singleBound(q, tb, e)
		}
		return r.optCost(q, tb, c)
	}
	if mb, ok := tb.merged[c.key]; ok && slices.Equal(mb.views, c.Views) {
		r.checkHit(q, c, mb.bound)
		return mb.bound
	}
	b := r.optCost(q, tb, c)
	tb.merged[c.key] = mergedBound{views: c.Views, bound: b}
	return b
}

// singleBound is bound for the single-view candidate of e's view.
func (r *Rewriter) singleBound(q *optimizer.JobNode, tb *targetBounds, e *viewEntry) float64 {
	if e.slot < len(tb.single) && tb.single[e.slot].known {
		b := tb.single[e.slot].bound
		r.checkHit(q, e.single, b)
		return b
	}
	b := r.optCost(q, tb, e.single)
	for len(tb.single) <= e.slot {
		tb.single = append(tb.single, slotBound{})
	}
	tb.single[e.slot] = slotBound{bound: b, known: true}
	tb.known++
	return b
}

func (r *Rewriter) checkHit(q *optimizer.JobNode, c *Candidate, b float64) {
	if r.cross.hitCheck != nil {
		r.cross.hitCheck(q, c, b)
	}
}
