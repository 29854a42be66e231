package mr

import (
	"sort"
	"sync"

	"opportune/internal/data"
)

// Buffer pooling for the shuffle/reduce hot path. Pooled buffers live
// strictly within one job phase; before a buffer returns to its pool every
// row/key reference is cleared so the pool never retains user data past the
// job (see DESIGN.md, performance model). The invariant is that a pooled
// buffer is zero from index 0 to cap: a user only ever writes below len, so
// a put clears the written prefix b[:len(b)] and nothing else — whoever
// truncates a buffer it has written to clears the dropped tail first (the
// map-only materialize loop). Capacity is retained — that is the point of
// pooling — but buffers that grew beyond poolMaxRetain are dropped so one
// huge job cannot pin memory for the rest of the process.
const poolMaxRetain = 1 << 17

var keyedPool = sync.Pool{New: func() any { b := make([]Keyed, 0, 256); return &b }}

// getKeyedBuf returns an empty keyed buffer with at least the hinted
// capacity when the pooled one is large enough (the hint only pre-sizes, it
// never limits).
func getKeyedBuf(hint int) []Keyed {
	b := *keyedPool.Get().(*[]Keyed)
	if hint > cap(b) {
		b = make([]Keyed, 0, hint)
	}
	return b[:0]
}

// putKeyedBuf zeroes the records the user wrote and returns the buffer to
// the pool.
func putKeyedBuf(b []Keyed) {
	if cap(b) > poolMaxRetain {
		return
	}
	clear(b)
	b = b[:0]
	keyedPool.Put(&b)
}

var rowsPool = sync.Pool{New: func() any { b := make([]data.Row, 0, 256); return &b }}

func getRowsBuf(hint int) []data.Row {
	b := *rowsPool.Get().(*[]data.Row)
	if hint > cap(b) {
		b = make([]data.Row, 0, hint)
	}
	return b[:0]
}

func putRowsBuf(b []data.Row) {
	if cap(b) > poolMaxRetain {
		return
	}
	clear(b)
	b = b[:0]
	rowsPool.Put(&b)
}

// Column-buffer and selection-vector pools for the fused batch executor
// (optimizer-compiled batch map functions draw per-split scratch from here).
// Same hygiene contract as the row pools: references are zeroed before a
// buffer returns, and buffers grown past poolMaxRetain are dropped.

var colPool = sync.Pool{New: func() any { return new(data.Col) }}

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

var selPool = sync.Pool{New: func() any { b := make([]int32, 0, 256); return &b }}

// GetSel returns an empty selection vector with at least the hinted
// capacity (row indices hold no references, so no zeroing is needed).
func GetSel(hint int) []int32 {
	b := *selPool.Get().(*[]int32)
	if hint > cap(b) {
		b = make([]int32, 0, hint)
	}
	return b[:0]
}

// PutSel returns a selection vector to the pool.
func PutSel(b []int32) {
	if cap(b) > poolMaxRetain {
		return
	}
	b = b[:0]
	selPool.Put(&b)
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
