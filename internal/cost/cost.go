// Package cost implements the system's cost model (paper §4.2).
//
// It is the MRShare-style "data" cost model extended in a limited way to
// cost UDFs: each MR job costs the sum of reading+mapping (Cm), sort/copy
// (Cs), transfer (Ct), aggregate+reduce (Cr), and materialization (Cw).
// Local functions written as arbitrary user code get a per-UDF scalar
// multiplier on the CPU portion of Cm/Cr, calibrated empirically by running
// the UDF on a 1% sample the first time it is registered (see internal/udf).
//
// A local function that performs several of the model's three operation
// types is costed at the *cheapest* of them — the non-subsumable cost
// property (Definition 1) — which is what makes OPTCOST a true lower bound.
package cost

import (
	"fmt"
	"math"
)

// OpType enumerates the three operation types a local function may perform
// (paper §3.1).
type OpType uint8

const (
	// OpAttr adds or discards attributes (operation type 1).
	OpAttr OpType = iota
	// OpFilter discards tuples by applying filters (operation type 2).
	OpFilter
	// OpGroup groups tuples on a common key (operation type 3).
	OpGroup
)

// String names the op type.
func (t OpType) String() string {
	switch t {
	case OpAttr:
		return "attr"
	case OpFilter:
		return "filter"
	case OpGroup:
		return "group"
	default:
		return fmt.Sprintf("op(%d)", uint8(t))
	}
}

// Params holds the calibrated constants of the cost model. Rates are in
// bytes per second; CPU baselines are in seconds per tuple for a
// unit-scalar local function of each operation type.
type Params struct {
	ReadRate    float64 // HDFS sequential read, bytes/s (Cm data part)
	WriteRate   float64 // HDFS write incl. replication, bytes/s (Cw)
	ShuffleRate float64 // network transfer, bytes/s (Ct)
	SortFactor  float64 // seconds per byte for map-side sort/spill (Cs)

	// CPUBaseline[t] is seconds/tuple for operation type t at scalar 1.
	// Grouping is the most expensive baseline (hashing + state), attribute
	// manipulation intermediate, filtering cheapest.
	CPUBaseline [3]float64

	// SplitRows is the number of input rows per map task (split); map-side
	// combiners aggregate within a split before the shuffle.
	SplitRows int64

	// ReduceTasks is R, the number of reduce partitions the engine hash-
	// partitions each shuffle into and reduces concurrently. A set value is
	// honored exactly; 0 applies the map side's split rule to the shuffled
	// records: R = min(workers, ⌈records / SplitRows⌉), at least 1. R never
	// changes job outputs or the modeled seconds — JobCost models the
	// cluster's aggregate work — only local wall-clock parallelism.
	ReduceTasks int

	// Task-level recovery constants (all in simulated seconds or pure
	// ratios, so recovery policy never couples accounting to wall-clock).

	// TaskBackoffBase is the simulated backoff before the first per-task
	// retry; retry n waits TaskBackoffBase × TaskBackoffFactor^(n-1).
	TaskBackoffBase   float64
	TaskBackoffFactor float64

	// SpeculationLagFactor schedules the speculative copy of a straggling
	// task: the copy launches lag = factor × nominal-task-cost simulated
	// seconds after the original started (Hadoop waits for a task to fall
	// behind its peers before speculating).
	SpeculationLagFactor float64

	// SpeculationThreshold is the minimum observed slowdown factor that
	// triggers a speculative copy; below it the straggler just runs slow.
	SpeculationThreshold float64

	// DefaultPartitions is the bucket count P used when a relation is
	// declared hash-partitioned without an explicit count. It is a layout
	// property, deliberately independent of ReduceTasks and the worker
	// pool: partition identity must not change when the cluster is resized,
	// or the shuffle-elimination match would silently rot.
	DefaultPartitions int
}

// DefaultParams returns constants modeled after a small Hadoop-era cluster
// node: ~80MB/s scan, ~50MB/s write (3-way replication amortized), ~40MB/s
// shuffle. They need not be accurate — the cost model's job is to rank
// plans (paper §4.2) — but they are the single source for both the
// optimizer's estimates and the engine's simulated wall-clock, so estimated
// and "measured" times are commensurable.
func DefaultParams() Params {
	return Params{
		ReadRate:    80e6,
		WriteRate:   50e6,
		ShuffleRate: 40e6,
		SortFactor:  1.0 / 60e6,
		CPUBaseline: [3]float64{
			OpAttr:   0.5e-6,
			OpFilter: 0.2e-6,
			OpGroup:  1.0e-6,
		},
		SplitRows:            4096,
		TaskBackoffBase:      1.0,
		TaskBackoffFactor:    2.0,
		SpeculationLagFactor: 1.0,
		SpeculationThreshold: 2.0,
		DefaultPartitions:    32,
	}
}

// LocalFn describes one local function for costing purposes: the set of
// operation types it performs and its calibrated scalar multiplier.
type LocalFn struct {
	Ops    []OpType
	Scalar float64 // >= 1 after calibration; 1 for plain relational ops
}

// CPUSecondsPerTuple returns the per-tuple CPU cost of the local function
// under the non-subsumable cost property: the cheapest operation type it
// performs, scaled by the calibrated multiplier.
func (p Params) CPUSecondsPerTuple(lf LocalFn) float64 {
	if len(lf.Ops) == 0 {
		return 0
	}
	min := math.Inf(1)
	for _, t := range lf.Ops {
		if b := p.CPUBaseline[t]; b < min {
			min = b
		}
	}
	s := lf.Scalar
	if s < 1 {
		s = 1
	}
	return min * s
}

// FnsSeconds is the simulated CPU seconds of a local-function chain over
// rows. The accumulation order — per-function rows×cost terms summed left
// to right — is the one JobCost uses for the Cm/Cr folds, and the engine's
// per-phase simulation delegates here, so fused execution (which runs the
// chain as one specialized function) prices bit-identically to interpreted
// stage-at-a-time execution: fusion changes wall-clock, never accounting.
func (p Params) FnsSeconds(fns []LocalFn, rows int64) float64 {
	var s float64
	for _, lf := range fns {
		s += float64(rows) * p.CPUSecondsPerTuple(lf)
	}
	return s
}

// JobSpec describes one MR job's data volumes and compute, either estimated
// (optimizer) or measured (engine).
type JobSpec struct {
	InputBytes int64 // bytes read from HDFS
	InputRows  int64 // rows fed to map local functions

	MapFns []LocalFn // map-side local functions, applied in sequence

	// Map-side combining: CombineFns run over CombineRows before the
	// shuffle (zero when the job has no combiner).
	CombineFns  []LocalFn
	CombineRows int64

	ShuffleBytes int64 // bytes sorted+spilled+transferred (0 for map-only)
	ShuffleRows  int64 // rows entering reduce

	// LocalShuffleBytes is the portion of ShuffleBytes that is already
	// co-located with its reducer because the input's partitioning prefix-
	// matches the shuffle key: those bytes are still sorted and grouped
	// (Cs, Cr unchanged) but never cross the network, so only the transfer
	// term Ct is discounted.
	LocalShuffleBytes int64

	ReduceFns []LocalFn // reduce-side local functions (empty for map-only)

	OutputBytes int64 // bytes materialized to HDFS
}

// TransferBytes is the portion of the shuffle that actually crosses the
// network: ShuffleBytes minus the co-located LocalShuffleBytes, clamped to
// [0, ShuffleBytes] so a stale or over-reported local count can never make
// a job look better than shuffle-free.
func (s JobSpec) TransferBytes() int64 {
	local := s.LocalShuffleBytes
	if local < 0 {
		local = 0
	}
	if local > s.ShuffleBytes {
		local = s.ShuffleBytes
	}
	return s.ShuffleBytes - local
}

// Breakdown is a job cost split into the model's five components (seconds).
type Breakdown struct {
	Cm, Cs, Ct, Cr, Cw float64
}

// Total sums the components.
func (b Breakdown) Total() float64 { return b.Cm + b.Cs + b.Ct + b.Cr + b.Cw }

// Add accumulates another breakdown.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{b.Cm + o.Cm, b.Cs + o.Cs, b.Ct + o.Ct, b.Cr + o.Cr, b.Cw + o.Cw}
}

// String renders the breakdown.
func (b Breakdown) String() string {
	return fmt.Sprintf("Cm=%.3f Cs=%.3f Ct=%.3f Cr=%.3f Cw=%.3f total=%.3f",
		b.Cm, b.Cs, b.Ct, b.Cr, b.Cw, b.Total())
}

// JobCost computes the cost breakdown of one MR job.
func (p Params) JobCost(s JobSpec) Breakdown {
	var b Breakdown
	b.Cm = float64(s.InputBytes) / p.ReadRate
	for _, lf := range s.MapFns {
		b.Cm += float64(s.InputRows) * p.CPUSecondsPerTuple(lf)
	}
	for _, lf := range s.CombineFns {
		b.Cm += float64(s.CombineRows) * p.CPUSecondsPerTuple(lf)
	}
	b.Cs = float64(s.ShuffleBytes) * p.SortFactor
	b.Ct = float64(s.TransferBytes()) / p.ShuffleRate
	for _, lf := range s.ReduceFns {
		b.Cr += float64(s.ShuffleRows) * p.CPUSecondsPerTuple(lf)
	}
	b.Cw = float64(s.OutputBytes) / p.WriteRate
	return b
}

// ScanSeconds is the read component of Cm alone: the time to scan bytes
// from HDFS at the calibrated read rate. It is the unit of account for
// MRShare-style shared scans, where one physical scan feeds n consumers.
func (p Params) ScanSeconds(bytes int64) float64 {
	return float64(bytes) / p.ReadRate
}

// MaintenanceSpec describes one incremental view-maintenance step: the
// delta pipeline has already been costed as an ordinary job (JobCost over
// the appended rows only); this covers the merge that folds the delta
// output into the stored view.
type MaintenanceSpec struct {
	ViewBytes   int64 // current stored view, read as merge input
	DeltaBytes  int64 // delta pipeline output, read as merge input
	MergedBytes int64 // refreshed view, written back
	MergedRows  int64 // rows touched by the key-merge
}

// MaintenanceCost models the merge step of incremental maintenance: both
// merge inputs are scanned (Cm), each output row pays the grouping CPU
// baseline for the key comparison/fold (Cr), and the refreshed view is
// rewritten in full (Cw). No shuffle — the merge is a local sorted-run
// merge, which is what makes maintenance cheaper than recomputation.
func (p Params) MaintenanceCost(s MaintenanceSpec) Breakdown {
	var b Breakdown
	b.Cm = float64(s.ViewBytes+s.DeltaBytes) / p.ReadRate
	b.Cr = float64(s.MergedRows) * p.CPUBaseline[OpGroup]
	b.Cw = float64(s.MergedBytes) / p.WriteRate
	return b
}

// Stats are simple cardinality statistics used to estimate job volumes.
type Stats struct {
	Rows  int64
	Bytes int64
}

// AvgRowBytes returns the average encoded row width, defaulting to 64 bytes
// when unknown.
func (s Stats) AvgRowBytes() float64 {
	if s.Rows <= 0 || s.Bytes <= 0 {
		return 64
	}
	return float64(s.Bytes) / float64(s.Rows)
}

// Scale returns stats scaled by a row-count selectivity, preserving average
// row width.
func (s Stats) Scale(sel float64) Stats {
	if sel < 0 {
		sel = 0
	}
	rows := int64(float64(s.Rows) * sel)
	if s.Rows > 0 && rows == 0 && sel > 0 {
		rows = 1
	}
	return Stats{Rows: rows, Bytes: int64(float64(rows) * s.AvgRowBytes())}
}
