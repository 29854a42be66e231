// Package storage simulates the HDFS layer: named datasets (base logs and
// opportunistic materialized views) with exact byte accounting for reads,
// writes, and samples.
//
// A *Dataset is one immutable version of a name. Holding it is what keeps
// a version readable: a run reads the handles it resolved at plan time and
// the ones its own jobs' writes returned, so removals and replacements take
// effect in the namespace at once and never under a reader.
//
// The paper's system retains every MR job output "space permitting"
// (§2.1); Store supports an optional capacity budget for view storage with
// pluggable reclamation policies (LRU, LFU, cost-benefit — §10).
package storage

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"opportune/internal/data"
	"opportune/internal/obs"
)

// Kind distinguishes base datasets (raw logs, never evicted) from
// opportunistic views.
type Kind uint8

const (
	// Base is a raw input log.
	Base Kind = iota
	// View is an opportunistic materialized view (a retained job output).
	View
)

// Dataset is one stored version of a table plus retention metadata, and
// the handle its readers hold.
type Dataset struct {
	Name      string
	Kind      Kind
	SizeBytes int64

	// Retention metadata for reclamation policies.
	CreatedSeq  int64   // creation order
	LastUsedSeq int64   // last read order
	UseCount    int64   // number of reads
	Benefit     float64 // accumulated cost-benefit score (set by the rewriter)

	rel *data.Relation

	// indexes holds the hash indexes built over rel, by column (Store.Index).
	// Every Put and Refresh installs a new Dataset, which starts without any.
	idxMu   sync.Mutex
	indexes map[string]*Index
}

// Rows returns the dataset's row count.
func (d *Dataset) Rows() int64 { return int64(d.rel.Len()) }

// Relation exposes the backing relation without I/O accounting; reserved
// for offline operations (persistence) and for handing a finished query
// its own result, not for query execution.
func (d *Dataset) Relation() *data.Relation { return d.rel }

// ErrNotFound is wrapped by every lookup of a dataset the store does not
// hold. Under a capacity budget a view can be evicted between two calls, so
// callers that can do without the dataset (view retention) match on it
// instead of failing.
var ErrNotFound = errors.New("not found")

// ReadFaultInjector scripts read failures for chaos testing. The store
// stays decoupled from the fault package: anything that can answer "does
// reading this dataset fail right now?" plugs in (internal/fault.Injector
// satisfies it).
type ReadFaultInjector interface {
	// ReadError returns the scripted error for a read of the named dataset,
	// or nil when the read succeeds.
	ReadError(name string) error
}

// Counters tallies simulated I/O volume.
type Counters struct {
	BytesRead    int64
	BytesWritten int64
	ReadOps      int64
	WriteOps     int64
}

// Store is the simulated HDFS namespace. Put, Refresh and the removals
// change which Dataset a name maps to, never the bytes of one.
type Store struct {
	mu       sync.Mutex
	datasets map[string]*Dataset
	seq      int64
	// protected names the views eviction skips (Protect).
	protected map[string]bool

	counters Counters

	// ViewCapacityBytes bounds total view bytes; 0 means unlimited.
	ViewCapacityBytes int64
	// Policy selects eviction victims when capacity is exceeded.
	Policy ReclamationPolicy

	// Pre-resolved metric handles (nil when no registry is attached — every
	// obs method is a no-op on nil, so the uninstrumented path costs one
	// pointer check). Eviction counters are labeled by policy and resolved
	// per event, since the policy can change between evictions.
	obsReg         *obs.Registry
	obsReadOps     *obs.Counter
	obsReadBytes   *obs.Counter
	obsWriteOps    *obs.Counter
	obsWriteBytes  *obs.Counter
	obsSampleOps   *obs.Counter
	obsSampleBytes *obs.Counter
	obsViewBytes   *obs.Gauge

	// faults, when set, can fail reads (chaos testing). A failed read
	// serves no bytes, so engine-side accounting still reconciles with the
	// Counters exactly.
	faults ReadFaultInjector

	// OnRemove, when set, hears of every removal once, as it happens: an
	// eviction, a Delete, a Discard or a DropViews. It runs under the
	// store's lock and must not call the store.
	OnRemove func(name string)
}

// SetFaults attaches (or with nil detaches) a read-fault injector.
func (s *Store) SetFaults(inj ReadFaultInjector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = inj
}

// SetObs attaches a metrics registry. Pass nil to detach. Counter values are
// deterministic (byte volumes and event counts mirror Counters); only the
// storage_view_bytes gauge varies with eviction timing under capacity
// pressure.
func (s *Store) SetObs(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obsReg = reg
	s.obsReadOps = reg.Counter("storage_read_ops_total")
	s.obsReadBytes = reg.Counter("storage_read_bytes_total")
	s.obsWriteOps = reg.Counter("storage_write_ops_total")
	s.obsWriteBytes = reg.Counter("storage_write_bytes_total")
	s.obsSampleOps = reg.Counter("storage_sample_ops_total")
	s.obsSampleBytes = reg.Counter("storage_sample_bytes_total")
	s.obsViewBytes = reg.Gauge("storage_view_bytes")
}

// viewBytesLocked totals view sizes; callers hold s.mu.
func (s *Store) viewBytesLocked() int64 {
	var total int64
	for _, d := range s.datasets {
		if d.Kind == View {
			total += d.SizeBytes
		}
	}
	return total
}

// NewStore creates an empty store with unlimited view capacity.
func NewStore() *Store {
	return &Store{
		datasets: make(map[string]*Dataset),
		Policy:   PolicyLRU,
	}
}

// Protect makes names the set of views eviction skips, replacing the set
// a previous call gave; nil protects none. The multi-tenant service keeps
// its hottest views here between batches.
func (s *Store) Protect(names []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.protected = make(map[string]bool, len(names))
	for _, n := range names {
		s.protected[n] = true
	}
}

// RetentionInfo is a consistent snapshot of one view's retention signals
// (the same numbers the reclamation policies rank by). The multi-tenant
// service reads these to decide which shared views to protect under
// contention; Meta returns a live pointer whose fields mutate under the
// store lock, so cross-goroutine readers use this snapshot instead.
type RetentionInfo struct {
	Name      string
	SizeBytes int64
	UseCount  int64
	Benefit   float64
}

// ViewRetention snapshots retention metadata for every stored view.
func (s *Store) ViewRetention() []RetentionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RetentionInfo, 0, len(s.datasets))
	for name, d := range s.datasets {
		if d.Kind != View {
			continue
		}
		out = append(out, RetentionInfo{
			Name: name, SizeBytes: d.SizeBytes,
			UseCount: d.UseCount, Benefit: d.Benefit,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// EnforceBudget evicts views down to the capacity budget. Eviction
// otherwise only triggers on writes, which always admit the incoming view:
// this is where a view that alone exceeds the budget goes.
func (s *Store) EnforceBudget() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ViewCapacityBytes > 0 {
		s.evictLocked("")
	}
	s.obsViewBytes.Set(float64(s.viewBytesLocked()))
}

// Put stores (or replaces) a dataset. When a view write exceeds the
// capacity budget, other views are evicted per the policy; the incoming
// view is always admitted (if it alone exceeds capacity, every other view
// is evicted and it is still stored — simplest admission rule).
// Write bytes are counted.
//
// Replacing a dataset of the same kind preserves its retention metadata:
// re-materializing a view under an existing name is a refresh of the same
// logical artifact, so the UseCount, Benefit, and CreatedSeq signals the
// LFU, cost-benefit, and FIFO reclamation policies rank on must survive.
// (Only LastUsedSeq advances — the write itself is a touch.)
func (s *Store) Put(name string, kind Kind, rel *data.Relation) *Dataset {
	d, _ := s.PutIf(name, kind, rel, nil)
	return d
}

// PutIf is Put when admit reports true (a nil admit always does); stored
// reports which. admit runs under the store's lock, so no other write or
// removal lands between the check and the publish, and it must not call
// the store. A refused write counts its bytes as written but publishes
// nothing: the returned handle reads like a stored dataset and stands
// outside the namespace, and the name keeps whatever it held.
func (s *Store) PutIf(name string, kind Kind, rel *data.Relation, admit func() bool) (d *Dataset, stored bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.putLocked(name, kind, rel, admit)
}

// Refresh is Put under an existing dataset's kind (incremental view
// maintenance rewrites a view under its established identity). Errors if
// the dataset does not exist.
func (s *Store) Refresh(name string, rel *data.Relation) (*Dataset, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.datasets[name]
	if !ok {
		return nil, fmt.Errorf("storage: refresh of unknown dataset %q", name)
	}
	d, _ := s.putLocked(name, old.Kind, rel, nil)
	return d, nil
}

// putLocked is PutIf; the caller holds s.mu.
func (s *Store) putLocked(name string, kind Kind, rel *data.Relation, admit func() bool) (*Dataset, bool) {
	s.seq++
	d := &Dataset{
		Name:        name,
		Kind:        kind,
		SizeBytes:   rel.EncodedSize(),
		CreatedSeq:  s.seq,
		LastUsedSeq: s.seq,
		rel:         rel,
	}
	s.counters.BytesWritten += d.SizeBytes
	s.counters.WriteOps++
	s.obsWriteOps.Inc()
	s.obsWriteBytes.Add(d.SizeBytes)
	if admit != nil && !admit() {
		return d, false
	}
	if old, ok := s.datasets[name]; ok && old.Kind == kind {
		d.CreatedSeq = old.CreatedSeq
		d.UseCount = old.UseCount
		d.Benefit = old.Benefit
	}
	s.datasets[name] = d
	if kind == View && s.ViewCapacityBytes > 0 {
		s.evictLocked(name)
	}
	s.obsViewBytes.Set(float64(s.viewBytesLocked()))
	return d, true
}

// evictLocked removes views (never the just-written `keep` view, never a
// protected one, never base data) until view bytes fit the budget. A run
// reading an evicted view holds its handle and reads on.
func (s *Store) evictLocked(keep string) {
	for {
		var total int64
		var views []*Dataset
		for _, d := range s.datasets {
			if d.Kind == View {
				total += d.SizeBytes
				if d.Name != keep && !s.protected[d.Name] {
					views = append(views, d)
				}
			}
		}
		if total <= s.ViewCapacityBytes || len(views) == 0 {
			return
		}
		victim := s.Policy.pick(views)
		s.removeLocked(victim.Name)
		if s.obsReg != nil {
			s.obsReg.Counter("storage_evictions_total", "policy", s.Policy.String()).Inc()
			s.obsReg.Counter("storage_evicted_bytes_total", "policy", s.Policy.String()).Add(victim.SizeBytes)
		}
	}
}

// Has reports whether a dataset exists.
func (s *Store) Has(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.datasets[name]
	return ok
}

// Meta returns dataset metadata without counting a read.
func (s *Store) Meta(name string) (*Dataset, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.datasets[name]
	return d, ok
}

// Read returns the relation stored under name, counting a full read of its
// bytes.
func (s *Store) Read(name string) (*data.Relation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.datasets[name]
	if !ok {
		return nil, fmt.Errorf("storage: dataset %q %w", name, ErrNotFound)
	}
	return s.readLocked(d)
}

// ReadDataset returns the relation of the version d, a handle Meta, Put or
// PutIf returned, however the namespace changed since, counting a full read
// of its bytes. The read is addressed by d's name as any other is: a
// scripted read fault for the name fails it, and the retention signals of
// the dataset stored under the name, if any, record the use.
func (s *Store) ReadDataset(d *Dataset) (*data.Relation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readLocked(d)
}

// readLocked is ReadDataset; the caller holds s.mu.
func (s *Store) readLocked(d *Dataset) (*data.Relation, error) {
	if err := s.readFaultLocked(d.Name); err != nil {
		return nil, err
	}
	s.countReadLocked(d)
	return d.rel, nil
}

// readFaultLocked asks the fault injector whether reading the dataset fails
// now. A failed read serves and counts nothing: the engine charges nothing
// for it either, so Store counters and engine Result volumes stay reconciled
// under read faults.
func (s *Store) readFaultLocked(name string) error {
	if s.faults == nil {
		return nil
	}
	if err := s.faults.ReadError(name); err != nil {
		return fmt.Errorf("storage: read %q: %w", name, err)
	}
	return nil
}

// countReadLocked counts one full read of the version d, touching the
// dataset stored under its name.
func (s *Store) countReadLocked(d *Dataset) {
	s.seq++
	if cur, ok := s.datasets[d.Name]; ok {
		cur.LastUsedSeq = s.seq
		cur.UseCount++
	}
	s.counters.BytesRead += d.SizeBytes
	s.counters.ReadOps++
	s.obsReadOps.Inc()
	s.obsReadBytes.Add(d.SizeBytes)
}

// rngPool recycles Sample's generators: reseeding one gives the stream a
// fresh rand.NewSource(seed) would, without allocating its state.
var rngPool sync.Pool

// Sample returns a uniform random sample of approximately frac of the rows
// of d, a dataset Meta returned (at least one row for nonempty data),
// counting only the proportional bytes read. Sampling the version the
// caller looked up, not the name, keeps a concurrent Refresh from mixing
// two versions into one set of statistics. This is the store-level
// primitive behind the lightweight statistics job (§2.1) and UDF
// calibration (§4.2).
func (s *Store) Sample(d *Dataset, frac float64, seed int64) (*data.Relation, error) {
	// Stored relations are immutable, so the scan runs without the lock.
	if frac <= 0 || frac > 1 {
		return nil, fmt.Errorf("storage: sample fraction %v out of (0,1]", frac)
	}
	rel := d.rel
	rng, _ := rngPool.Get().(*rand.Rand)
	if rng == nil {
		rng = rand.New(rand.NewSource(seed))
	} else {
		rng.Seed(seed) // the stream of rand.New(rand.NewSource(seed))
	}
	defer rngPool.Put(rng)
	out := data.NewRelation(rel.Schema())
	n := float64(rel.Len()) * frac
	out.Grow(min(rel.Len(), int(n+3*math.Sqrt(n))+1)) // mean + 3σ: nearly always one allocation
	for _, r := range rel.Rows() {
		if rng.Float64() < frac {
			out.Append(r)
		}
	}
	if out.Len() == 0 && rel.Len() > 0 {
		out.Append(rel.Row(rng.Intn(rel.Len())))
	}
	size := out.EncodedSize()
	s.mu.Lock()
	s.counters.BytesRead += size
	s.counters.ReadOps++
	s.obsSampleOps.Inc()
	s.obsSampleBytes.Add(size)
	s.mu.Unlock()
	return out, nil
}

// Delete removes a dataset; OnRemove hears of it. Runs that hold its
// handle read on.
func (s *Store) Delete(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.datasets[name]; ok {
		s.removeLocked(name)
		s.obsViewBytes.Set(float64(s.viewBytesLocked()))
	}
}

// Discard removes the version d while it is still the one stored under its
// name, and nothing otherwise: a newer version, or one another writer
// stored, stays.
func (s *Store) Discard(d *Dataset) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.datasets[d.Name] == d {
		s.removeLocked(d.Name)
		s.obsViewBytes.Set(float64(s.viewBytesLocked()))
	}
}

// removeLocked drops a dataset and reports it; the caller holds s.mu.
func (s *Store) removeLocked(name string) {
	delete(s.datasets, name)
	if s.OnRemove != nil {
		s.OnRemove(name)
	}
}

// DropViews removes every view, keeping base data, and returns how many it
// removed. Experiments use this between workload phases (§8.3.1).
func (s *Store) DropViews() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for name, d := range s.datasets {
		if d.Kind == View {
			s.removeLocked(name)
			n++
		}
	}
	s.obsViewBytes.Set(float64(s.viewBytesLocked()))
	return n
}

// List returns dataset names of the given kind, sorted.
func (s *Store) List(kind Kind) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var names []string
	for name, d := range s.datasets {
		if d.Kind == kind {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// ViewBytes returns total bytes held by views.
func (s *Store) ViewBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.viewBytesLocked()
}

// Counters returns a snapshot of the I/O counters.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// ResetCounters zeroes the I/O counters (between experiment phases).
func (s *Store) ResetCounters() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters = Counters{}
}

// ReclamationPolicy selects which view to evict when over budget.
type ReclamationPolicy uint8

// Available policies (§10 discussion; evaluated in the ablation bench).
const (
	// PolicyLRU evicts the least recently used view.
	PolicyLRU ReclamationPolicy = iota
	// PolicyLFU evicts the least frequently used view.
	PolicyLFU
	// PolicyCostBenefit evicts the view with the lowest accumulated
	// benefit-per-byte.
	PolicyCostBenefit
	// PolicyFIFO evicts the oldest view (the trivial policy of [17]).
	PolicyFIFO
)

// String names the policy.
func (p ReclamationPolicy) String() string {
	switch p {
	case PolicyLRU:
		return "lru"
	case PolicyLFU:
		return "lfu"
	case PolicyCostBenefit:
		return "cost-benefit"
	case PolicyFIFO:
		return "fifo"
	default:
		return "unknown"
	}
}

func (p ReclamationPolicy) pick(views []*Dataset) *Dataset {
	best := views[0]
	for _, d := range views[1:] {
		if p.worse(d, best) {
			best = d
		}
	}
	return best
}

// worse reports whether a is a better eviction victim than b. The ordering
// is total: ties on the policy metric fall through to recency and finally
// to the dataset name, so the victim never depends on Go map iteration
// order (evictLocked gathers candidates from a map).
func (p ReclamationPolicy) worse(a, b *Dataset) bool {
	switch p {
	case PolicyLFU:
		if a.UseCount != b.UseCount {
			return a.UseCount < b.UseCount
		}
	case PolicyCostBenefit:
		ba := a.Benefit / float64(a.SizeBytes+1)
		bb := b.Benefit / float64(b.SizeBytes+1)
		if ba != bb {
			return ba < bb
		}
	case PolicyFIFO:
		if a.CreatedSeq != b.CreatedSeq {
			return a.CreatedSeq < b.CreatedSeq
		}
	}
	// LRU and all policy-metric ties: least recently used first, then a
	// stable name tie-break.
	if a.LastUsedSeq != b.LastUsedSeq {
		return a.LastUsedSeq < b.LastUsedSeq
	}
	return a.Name < b.Name
}

// AddBenefit credits a view with benefit (cost saved by a rewrite that used
// it); used by the cost-benefit policy.
func (s *Store) AddBenefit(name string, benefit float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.datasets[name]; ok {
		d.Benefit += benefit
	}
}
