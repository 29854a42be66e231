// Package meta is the materialized-view metadata store (§2.1): for every
// base log and every opportunistic view it records the schema, the (A,F,K)
// annotation, cardinality statistics, and the producing plan with its
// syntactic fingerprint — one record per view. It also owns the
// system-wide functional dependencies, the UDF registry the annotation
// process consults, and the ingest epoch that orders view registration
// against appends.
package meta

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"opportune/internal/afk"
	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/mr"
	"opportune/internal/plan"
	"opportune/internal/storage"
	"opportune/internal/udf"
	"opportune/internal/value"
)

// TableInfo describes one dataset known to the system.
type TableInfo struct {
	Name   string
	Cols   []string // ordered physical columns
	KeyCol string   // record-key column of a base log ("" otherwise)
	Ann    afk.Annotation
	Stats  cost.Stats
	IsView bool
	// PlanFP is the syntactic fingerprint of the plan that produced a view;
	// the caching baseline (BFR-SYNTACTIC) matches on it.
	PlanFP string
	// Plan is a view's producing logical plan, which AppendRows re-runs
	// over an appended delta to maintain the view. Nil for base tables and
	// for views restored without one: those are invalidated on append.
	// Shared by every copy of the entry and never mutated.
	Plan *plan.Node
	// Distinct holds (estimated) distinct-value counts per column, used by
	// the optimizer's cardinality estimation.
	Distinct map[string]int64
	// Part is the relation's physical hash-layout property; the zero value
	// means layout unknown. It is metadata about the *stored bytes*, kept
	// only here (the store holds none), so it is installed when the data is
	// written (workload install, view retention) and must be dropped or
	// re-declared whenever they change. Partition-local routing still
	// buckets every record by its key, so a wrong claim changes accounting,
	// never answers.
	Part afk.Partitioning
	// Delta marks the appended rows of a base table, registered for the span
	// of one AppendRows: the optimizer compiles a join on a delta's path as
	// an index probe of the join's other side. No query scans a delta, so
	// no query probes.
	Delta bool

	canon string // Ann.Canon(), computed at registration
}

// Canon is the annotation's fingerprint, Ann.Canon(), computed once when
// the dataset was registered.
func (t *TableInfo) Canon() string { return t.canon }

// DistinctOf returns the distinct count hint for a column, or 0.
func (t *TableInfo) DistinctOf(col string) int64 {
	if t.Distinct == nil {
		return 0
	}
	return t.Distinct[col]
}

// Catalog is the system catalog.
type Catalog struct {
	mu      sync.RWMutex
	tables  map[string]*TableInfo
	byCanon map[string]*TableInfo // annotation fingerprint -> view
	epoch   int64                 // appends begun (BeginAppend)

	// FDs holds functional dependencies over signature IDs (record keys
	// and derived attributes).
	FDs *afk.FDSet
	// UDFs is the system's UDF registry.
	UDFs *udf.Registry
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		tables:  make(map[string]*TableInfo),
		byCanon: make(map[string]*TableInfo),
		FDs:     afk.NewFDSet(),
		UDFs:    udf.NewRegistry(),
	}
}

// ByAnnotation resolves a view whose annotation fingerprint matches. The
// optimizer uses it to estimate any plan node semantically identical to a
// materialized view with the view's *measured* statistics — making
// cardinality estimates a function of the logical target rather than the
// producing plan, the property BFREWRITE's termination condition relies on.
func (c *Catalog) ByAnnotation(canon string) (*TableInfo, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.byCanon[canon]
	return t, ok
}

// RegisterBase declares a raw log: columns, record key, stats, and optional
// distinct-count hints. The record key's FDs are installed.
func (c *Catalog) RegisterBase(name string, cols []string, keyCol string, stats cost.Stats, distinct map[string]int64) *TableInfo {
	ann := afk.NewBase(name, cols, keyCol)
	if keyCol != "" {
		key := ann.MustSig(keyCol)
		ids := make([]string, 0, len(cols))
		for _, col := range cols {
			ids = append(ids, ann.MustSig(col).ID())
		}
		c.FDs.AddKey(key.ID(), ids)
	}
	info := &TableInfo{
		Name: name, Cols: append([]string(nil), cols...), KeyCol: keyCol,
		Ann: ann, Stats: stats, Distinct: distinct, canon: ann.Canon(),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[name] = info
	return info
}

// Source returns a dataset's annotation, columns and stored layout
// (plan.Catalog).
func (c *Catalog) Source(name string) (afk.Annotation, []string, afk.Partitioning, bool) {
	t, ok := c.Table(name)
	if !ok {
		return afk.Annotation{}, nil, afk.Partitioning{}, false
	}
	return t.Ann, t.Cols, t.Part, true
}

// Deps returns the functional dependencies (plan.Catalog).
func (c *Catalog) Deps() *afk.FDSet { return c.FDs }

// UDF looks a registered UDF up (plan.Catalog).
func (c *Catalog) UDF(name string) (*udf.Descriptor, bool) { return c.UDFs.Get(name) }

// Epoch is the number of appends begun. Work planned under one epoch may
// register views while the epoch stands (RegisterView).
func (c *Catalog) Epoch() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.epoch
}

// BeginAppend starts an append, before it changes any stored bytes and
// before it lists the views to maintain: from here on no work planned
// under an earlier epoch registers a view, and every view registered
// before is in the list. Returns the new epoch.
func (c *Catalog) BeginAppend() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	return c.epoch
}

// RegisterView publishes the entry t describes as a view, with its layout,
// distinct counts and producing plan in the one step, and returns it with
// added true. A name already listed under the same annotation keeps its
// entry, returned with added false; any other entry under the name is
// replaced. When an append has begun since epoch, the work t describes
// may predate it: nothing is registered and RegisterView returns nil.
func (c *Catalog) RegisterView(t TableInfo, epoch int64) (info *TableInfo, added bool) {
	t.Cols = append([]string(nil), t.Cols...)
	t.Part = t.Part.Clone()
	t.IsView, t.canon = true, t.Ann.Canon()
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch {
		return nil, false
	}
	if cur, ok := c.tables[t.Name]; ok {
		if cur.canon == t.canon {
			return cur, false
		}
		c.dropLocked(cur)
	}
	c.tables[t.Name] = &t
	c.byCanon[t.canon] = &t
	return &t, true
}

// update publishes a copy of name's entry that fn changed, when fn reports
// a change, in the annotation index too when the entry is the indexed
// view. Published TableInfo pointers escape to concurrent readers (the
// optimizer reads them without the catalog lock), so an entry is never
// mutated in place: readers holding the old pointer see a snapshot.
func (c *Catalog) update(name string, fn func(t *TableInfo) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur, ok := c.tables[name]
	if !ok {
		return
	}
	upd := *cur
	if fn(&upd) {
		c.tables[name] = &upd
		if c.byCanon[upd.canon] == cur {
			c.byCanon[upd.canon] = &upd
		}
	}
}

// SetStats installs a dataset's row and byte counts, keeping the rest of
// its entry: a base table that grew by an append keeps its annotation,
// layout and distinct counts.
func (c *Catalog) SetStats(name string, stats cost.Stats) {
	c.update(name, func(t *TableInfo) bool { t.Stats = stats; return true })
}

// SetPartitioning installs (or, with the zero value, clears) a dataset's
// stored layout property.
func (c *Catalog) SetPartitioning(name string, p afk.Partitioning) {
	c.update(name, func(t *TableInfo) bool {
		if t.Part.Equal(p) {
			return false
		}
		t.Part = p.Clone()
		return true
	})
}

// MarkDelta marks a registered base table as an appended delta
// (TableInfo.Delta). Registering the name again clears the mark.
func (c *Catalog) MarkDelta(name string) {
	c.update(name, func(t *TableInfo) bool {
		changed := !t.IsView && !t.Delta
		t.Delta = true
		return changed
	})
}

// Table looks a dataset up.
func (c *Catalog) Table(name string) (*TableInfo, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	return t, ok
}

// Views returns all view infos, sorted by name.
func (c *Catalog) Views() []*TableInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*TableInfo
	for _, t := range c.tables {
		if t.IsView {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DropView removes one view from the catalog.
func (c *Catalog) DropView(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.tables[name]; ok && t.IsView {
		c.dropLocked(t)
	}
}

// dropLocked removes a table's entry and unindexes its annotation
// fingerprint (only if it is still the indexed one; another view may share
// the annotation).
func (c *Catalog) dropLocked(t *TableInfo) {
	delete(c.tables, t.Name)
	if c.byCanon[t.canon] == t {
		delete(c.byCanon, t.canon)
	}
}

// Forget drops whatever entry is listed under name. The store reports
// every removal here (storage.Store.OnRemove, wired by session.New), under
// its own lock: Forget must never call the store.
func (c *Catalog) Forget(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.tables[name]; ok {
		c.dropLocked(t)
	}
}

// CollectStats runs the lightweight statistics job for a stored dataset
// (§2.1). Byte size and row count are exact — HDFS file sizes are free and
// the MR job counters report records written — while per-column distinct
// counts are estimated from a 1% uniform sample whose read cost is charged
// to the query that created the view. The simulated overhead seconds are
// returned.
func (c *Catalog) CollectStats(eng *mr.Engine, name string, seed int64) (float64, error) {
	// Both misses wrap storage.ErrNotFound: under a capacity budget a
	// concurrent plan can evict the dataset (which forgets its catalog entry)
	// at any point before the sample, and view retention skips such views.
	if _, ok := c.Table(name); !ok {
		return 0, fmt.Errorf("meta: unknown table %q: %w", name, storage.ErrNotFound)
	}
	ds, ok := eng.Store.Meta(name)
	if !ok {
		return 0, fmt.Errorf("meta: table %q not in store: %w", name, storage.ErrNotFound)
	}
	// 1% sample, floored at ~minSampleRows rows: tiny views are scanned
	// fully, exactly as production ANALYZE does — a 1-row sample would
	// make distinct-count estimates meaningless.
	const minSampleRows = 100
	frac := 0.01
	if rows := ds.Rows(); rows > 0 && frac*float64(rows) < minSampleRows {
		frac = float64(minSampleRows) / float64(rows)
		if frac > 1 {
			frac = 1
		}
	}
	sample, err := eng.Store.Sample(ds, frac, seed)
	if err != nil {
		return 0, err
	}
	sampleRows := int64(sample.Len())
	estRows := ds.Rows()
	distinct := make(map[string]int64, sample.Schema().Len())
	for _, col := range sample.Schema().Cols() {
		distinct[col] = chao1(sample, col, sampleRows, estRows)
	}
	c.update(name, func(t *TableInfo) bool {
		t.Stats, t.Distinct = cost.Stats{Rows: estRows, Bytes: ds.SizeBytes}, distinct
		return true
	})

	// Overhead: reading the sample bytes with a map task.
	overhead := eng.Params.JobCost(cost.JobSpec{
		InputBytes: sample.EncodedSize(),
		InputRows:  sampleRows,
		MapFns:     []cost.LocalFn{{Ops: []cost.OpType{cost.OpAttr}, Scalar: 1}},
	})
	return overhead.Total(), nil
}

// chao1 estimates a column's distinct count from a sample with the Chao1
// abundance estimator: d̂ = d + f1(f1−1)/(2(f2+1)), where f1/f2 are the
// numbers of values seen once/twice. Unlike linear scaling (d/frac), it is
// stable for low-cardinality columns where the sample saturates. A sample
// whose values are all unique is treated as a key column. Values count as
// equal when their text (value.String) is: a column whose non-null values
// are of one numeric kind is counted by sorting their bits (every NaN as
// one) and its nulls as one more value, a grouping that is the text's, and
// any other column by sorting the text itself.
func chao1(sample *data.Relation, col string, sampleRows, totalRows int64) int64 {
	ix := sample.Schema().MustIndex(col)
	rows := sample.Rows()
	var d, f1, f2 int64
	tally := func(n int) {
		d++
		switch n {
		case 1:
			f1++
		case 2:
			f2++
		}
	}
	if bits, nulls, ok := numericBits(rows, ix); ok {
		slices.Sort(bits)
		countRuns(bits, tally)
		if nulls > 0 {
			tally(nulls)
		}
	} else {
		text := make([]string, len(rows))
		for i, r := range rows {
			text[i] = r[ix].String()
		}
		slices.Sort(text)
		countRuns(text, tally)
	}
	if d == sampleRows && sampleRows > 1 {
		return totalRows
	}
	est := d + (f1*(f1-1))/(2*(f2+1))
	if est > totalRows {
		est = totalRows
	}
	if est < 1 && totalRows > 0 {
		est = 1
	}
	return est
}

// numericBits returns the bits of column ix's non-null values and how many
// nulls it holds when every non-null value is an Int or every one a Float,
// with every NaN as one (they share the text "NaN"); ok is false for any
// other column. A null's text, "NULL", is no number's.
func numericBits(rows []data.Row, ix int) (bits []uint64, nulls int, ok bool) {
	kind := value.Null
	bits = make([]uint64, 0, len(rows))
	for _, r := range rows {
		v := r[ix]
		switch k := v.Kind(); {
		case k == value.Null:
			nulls++
			continue
		case kind == value.Null && (k == value.Int || k == value.Float):
			kind = k
		case k != kind:
			return nil, 0, false
		}
		switch {
		case kind == value.Int:
			bits = append(bits, uint64(v.Int()))
		case math.IsNaN(v.Float()):
			bits = append(bits, math.Float64bits(math.NaN()))
		default:
			bits = append(bits, math.Float64bits(v.Float()))
		}
	}
	return bits, nulls, true
}

// countRuns hands the length of each run of equal values in sorted s to
// tally.
func countRuns[T comparable](s []T, tally func(n int)) {
	for i := 0; i < len(s); {
		j := i + 1
		for j < len(s) && s[j] == s[i] {
			j++
		}
		tally(j - i)
		i = j
	}
}
