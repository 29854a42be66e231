package mr

import (
	"sort"
	"sync"

	"opportune/internal/data"
)

// Buffer pooling for the shuffle/reduce hot path and the fused batch
// executor (optimizer-compiled map kernels draw per-split selection vectors
// and column buffers from here). Pooled buffers live strictly within one job
// phase; before a buffer returns to its pool every row/key reference is
// cleared so the pool never retains user data past the job (see DESIGN.md,
// performance model). The invariant is that a pooled buffer is zero from
// index 0 to cap: a user only ever writes below len, so a put clears the
// written prefix b[:len(b)] and nothing else — whoever truncates a buffer it
// has written to clears the dropped tail first (the map-only materialize
// loop). Capacity is retained — that is the point of pooling — but buffers
// that grew beyond poolMaxRetain are dropped so one huge job cannot pin
// memory for the rest of the process.
const poolMaxRetain = 1 << 17

// slicePool pools slices of one element type under that contract.
type slicePool[T any] struct{ p sync.Pool }

// get returns an empty buffer with at least the hinted capacity (the hint
// only pre-sizes, it never limits). A pooled buffer too small for the hint
// goes back to the pool for a smaller request, after one more try for a
// large enough one.
func (sp *slicePool[T]) get(hint int) []T {
	b, _ := sp.p.Get().(*[]T)
	if b != nil && cap(*b) < hint {
		small := b
		if b, _ = sp.p.Get().(*[]T); b != nil && cap(*b) < hint {
			sp.p.Put(b)
			b = nil
		}
		sp.p.Put(small)
	}
	if b == nil {
		return make([]T, 0, max(hint, 256))
	}
	return (*b)[:0]
}

// put zeroes the elements the user wrote and returns the buffer to the pool.
func (sp *slicePool[T]) put(b []T) {
	if cap(b) > poolMaxRetain {
		return
	}
	clear(b)
	b = b[:0]
	sp.p.Put(&b)
}

var (
	keyedBufs slicePool[Keyed]
	rowBufs   slicePool[data.Row]
	selBufs   slicePool[int32]
	colPool   = sync.Pool{New: func() any { return new(data.Col) }}
)

// GetSel returns an empty selection vector with at least the hinted
// capacity.
func GetSel(hint int) []int32 { return selBufs.get(hint) }

// PutSel returns a selection vector to the pool.
func PutSel(b []int32) { selBufs.put(b) }

// GetCol returns a column buffer reset to n slots.
func GetCol(n int) *data.Col {
	c := colPool.Get().(*data.Col)
	c.Reset(n)
	return c
}

// PutCol zeroes the column's references and returns it to the pool; columns
// grown beyond the retain cap are dropped instead.
func PutCol(c *data.Col) {
	if c == nil || c.Cap() > poolMaxRetain {
		return
	}
	c.Release()
	colPool.Put(c)
}

// grouper groups shuffle records by key without per-key slice growth: one
// pass assigns dense group ids and counts, a second scatters rows into a
// single arena partitioned by prefix-sum offsets. Group row slices alias the
// arena, so a grouper stays alive until its consumer (combiner or reducer)
// is done with every group, then goes back to the pool via release().
type grouper struct {
	ids    map[string]int32 // key -> dense group id
	keys   []string         // group id -> key, in first-seen order
	counts []int32
	ends   []int32 // group id -> end of its run in arena
	arena  []data.Row
}

var grouperPool = sync.Pool{New: func() any {
	return &grouper{ids: make(map[string]int32, 64)}
}}

// getGrouper returns an empty grouper; hint pre-sizes the per-group tables.
func getGrouper(hint int) *grouper {
	g := grouperPool.Get().(*grouper)
	if hint > 0 && cap(g.keys) < hint {
		g.keys = make([]string, 0, hint)
		g.counts = make([]int32, 0, hint)
		g.ends = make([]int32, 0, hint)
	}
	return g
}

// build ingests one run of shuffle records, preserving first-seen key order.
func (g *grouper) build(recs []Keyed) {
	for i := range recs {
		k := &recs[i]
		id, seen := g.ids[k.Key]
		if !seen {
			id = int32(len(g.keys))
			g.ids[k.Key] = id
			g.keys = append(g.keys, k.Key)
			g.counts = append(g.counts, 0)
		}
		g.counts[id]++
	}
	// ends starts as each group's first slot and is advanced by the scatter,
	// which leaves it at the group's end: one cursor array, no temporaries.
	g.ends = g.ends[:0]
	var off int32
	for _, n := range g.counts {
		g.ends = append(g.ends, off)
		off += n
	}
	if cap(g.arena) < len(recs) {
		g.arena = make([]data.Row, len(recs))
	} else {
		g.arena = g.arena[:len(recs)]
	}
	for i := range recs {
		id := g.ids[recs[i].Key]
		g.arena[g.ends[id]] = recs[i].Row
		g.ends[id]++
	}
}

// len returns the number of groups.
func (g *grouper) len() int { return len(g.keys) }

// rows returns group id's rows (a view into the arena; valid until release).
func (g *grouper) rows(id int32) []data.Row {
	return g.arena[g.ends[id]-g.counts[id] : g.ends[id]]
}

// sortKeys orders the group ids by key; first-seen order is lost.
func (g *grouper) sortKeys() {
	sort.Strings(g.keys)
	// ids map still resolves keys to their (stale) first-seen id; re-point
	// offsets through the map at access time instead of rebuilding it.
}

// id resolves a key to its group id.
func (g *grouper) id(key string) int32 { return g.ids[key] }

// release zeroes every reference and returns the grouper to the pool.
func (g *grouper) release() {
	if len(g.keys) > poolMaxRetain || cap(g.arena) > poolMaxRetain {
		return
	}
	clear(g.ids)
	for i := range g.keys {
		g.keys[i] = ""
	}
	g.keys = g.keys[:0]
	g.counts = g.counts[:0]
	g.ends = g.ends[:0]
	clear(g.arena)
	g.arena = g.arena[:0]
	grouperPool.Put(g)
}
