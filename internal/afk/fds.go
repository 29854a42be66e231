package afk

import (
	"maps"
	"sort"
	"strings"
	"sync"
)

// FDSet is a set of functional dependencies over attribute signature IDs.
// It powers the "less aggregated" refinement check: grouping by keys X
// refines grouping by keys Y iff Y ⊆ closure(X).
//
// Two sources populate it: dataset registration declares record keys
// (tweet_id → every TWTR column), and every derived attribute contributes
// inputs → derived (a deterministic per-tuple UDF output is functionally
// determined by its inputs).
//
// FDSet is safe for concurrent use: the catalog shares one set with
// everything that registers datasets or annotates plans. Dependencies are
// only ever *added*, and a closure depends on the set's contents, not on
// insertion order, so Refines and Determines serve closures from a cache
// keyed by the sorted determinant IDs; a cached closure is exact until the
// next Add that appends a new dependency, which drops the whole cache.
type FDSet struct {
	mu       sync.Mutex
	fds      []fd
	index    map[fdKey]bool             // every dependency, for Add's duplicate check
	closures map[string]map[string]bool // idsKey(sorted determinants) -> closure, read-only
}

type fd struct {
	from []string // determinant signature IDs (sorted)
	to   string   // determined signature ID
}

// fdKey identifies a dependency: idsKey of its sorted determinants, and the
// determined ID.
type fdKey struct{ from, to string }

// idsKey joins sorted signature IDs into one map key (IDs contain no NUL).
func idsKey(ids []string) string { return strings.Join(ids, "\x00") }

// NewFDSet creates an empty FD set.
func NewFDSet() *FDSet { return &FDSet{} }

// Add declares from → to. Duplicate declarations are ignored.
func (f *FDSet) Add(from []string, to string) {
	sorted := append([]string(nil), from...)
	sort.Strings(sorted)
	k := fdKey{idsKey(sorted), to}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.index[k] {
		return
	}
	if f.index == nil {
		f.index = make(map[fdKey]bool)
	}
	f.index[k] = true
	f.fds = append(f.fds, fd{from: sorted, to: to})
	f.closures = nil
}

// AddKey declares that key determines each of the given attributes.
func (f *FDSet) AddKey(key string, attrs []string) {
	for _, a := range attrs {
		if a != key {
			f.Add([]string{key}, a)
		}
	}
}

// Len returns the number of dependencies.
func (f *FDSet) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.fds)
}

// Clone copies the FD set, duplicate index included; the copy starts with
// an empty closure cache.
func (f *FDSet) Clone() *FDSet {
	f.mu.Lock()
	defer f.mu.Unlock()
	return &FDSet{fds: append([]fd(nil), f.fds...), index: maps.Clone(f.index)}
}

// Each visits every dependency (for persistence).
func (f *FDSet) Each(fn func(from []string, to string)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, e := range f.fds {
		fn(append([]string(nil), e.from...), e.to)
	}
}

// Closure computes the attribute closure of the given IDs under the FDs
// (standard fixpoint). The caller owns the returned map.
func (f *FDSet) Closure(ids []string) map[string]bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closureLocked(ids)
}

// closureLocked is Closure's body; callers hold the lock.
func (f *FDSet) closureLocked(ids []string) map[string]bool {
	closure := make(map[string]bool, len(ids))
	for _, id := range ids {
		closure[id] = true
	}
	for changed := true; changed; {
		changed = false
		for _, e := range f.fds {
			if closure[e.to] {
				continue
			}
			all := true
			for _, from := range e.from {
				if !closure[from] {
					all = false
					break
				}
			}
			if all {
				closure[e.to] = true
				changed = true
			}
		}
	}
	return closure
}

// cachedClosure returns the closure of the sorted IDs from the cache,
// computing and caching it on a miss. Callers hold the lock and must not
// modify the result.
func (f *FDSet) cachedClosure(sorted []string) map[string]bool {
	k := idsKey(sorted)
	if c, ok := f.closures[k]; ok {
		return c
	}
	if f.closures == nil {
		f.closures = make(map[string]map[string]bool)
	}
	c := f.closureLocked(sorted)
	f.closures[k] = c
	return c
}

// Determines reports whether X → y follows from the FDs.
func (f *FDSet) Determines(x []string, y string) bool {
	sorted := append([]string(nil), x...)
	sort.Strings(sorted)
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cachedClosure(sorted)[y]
}

// Refines reports whether the partition induced by grouping keys vK is at
// least as fine as the one induced by qK: every qK key is functionally
// determined by the vK keys. An empty qK is the global (coarsest) partition
// and is refined by anything; an empty vK is itself global and refines only
// an empty qK. (Record-level, never-grouped data is handled one level up,
// by Annotation.LessAggregated.)
func (f *FDSet) Refines(vK, qK SigSet) bool {
	if len(qK) == 0 {
		return true
	}
	if len(vK) == 0 {
		return false
	}
	ids := vK.IDs()
	f.mu.Lock()
	defer f.mu.Unlock()
	closure := f.cachedClosure(ids)
	for id := range qK {
		if !closure[id] {
			return false
		}
	}
	return true
}
