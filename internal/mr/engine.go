// Package mr is the MapReduce execution engine: it really executes map,
// shuffle, and reduce phases over rows stored in the simulated HDFS,
// materializes every job output (the opportunistic views), and accounts
// data volumes exactly.
//
// Execution time is *simulated*: the engine feeds the measured volumes into
// the same cost.Params the optimizer estimates with, yielding deterministic
// per-job seconds. This substitutes for the paper's 20-node Hadoop cluster
// (see DESIGN.md, Substitutions) while preserving what the evaluation
// measures — relative execution time and bytes read/shuffled/written.
package mr

import (
	"errors"
	"fmt"
	"runtime"
	"slices"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/fault"
	"opportune/internal/obs"
	"opportune/internal/storage"
)

// Emit passes one keyed row from a map task to the shuffle. For map-only
// jobs the key is ignored. An emitted row belongs to the engine: the emitter
// must not write to it again, and it may share a backing slab with the other
// rows of its task (DESIGN.md §5.14), so a reducer that re-emits a few of
// the rows it was handed copies them.
type Emit func(key string, r data.Row)

// BatchMapFunc is a job's map function: it processes one whole map split at
// once. input is the index into Job.Inputs, letting joins tag which side a
// row came from (MR joins are a co-group of multiple relations on a common
// key, §3.2); rows is the split, read-only. A batch never bails: it maps the
// whole split or fails the task. Job.BatchMapFactory builds one per map
// task, so per-task state (scratch buffers, row tags) lives in the
// factory's closure and needs no synchronization.
type BatchMapFunc func(input int, rows []data.Row, emit Emit) BatchReport

// BatchReport is one batch map task's combine report.
type BatchReport struct {
	// Combined is true when the batch map combined its own split: its
	// emissions are one record per key (first-seen order), the map-side
	// combine of a group-by, whose compiled map kernel folds the split
	// straight into group partials. CombineRows then carries the
	// pre-combine row count, the rows the fold consumed, which the engine
	// adds to Result.CombineRows when the task emitted anything.
	Combined    bool
	CombineRows int64
}

// Reduce-side fusion fallback reasons, the label taxonomy of the
// mr_fused_reduce_fallback_total counter. Every reduce job that has no
// compiled agg kernels carries exactly one of these.
const (
	// FuseUnsupportedOp: the boundary is a join or a sort, which has no
	// aggregate fold.
	FuseUnsupportedOp = "unsupported_op"
	// FuseAggUDF: the reducer is an aggregate UDF running opaque user code
	// over raw payload rows — no typed partial state to specialize on.
	FuseAggUDF = "agg_udf"
)

// FuseReduceFallbackReasons enumerates the taxonomy in recording order, so
// the counter family's key set is fixed regardless of which reasons fire.
var FuseReduceFallbackReasons = []string{FuseAggUDF, FuseUnsupportedOp}

// TaskCtx identifies one map task (one input split) deterministically:
// which input it reads, the split ordinal within that input, the ordinal of
// the split's first row within that input, and the ordinal of that row
// counting across all inputs in input order. Map functions seed per-task
// state from it (e.g. unique row tags) so task-local state never depends on
// goroutine scheduling.
type TaskCtx struct {
	Input     int
	Split     int
	StartRow  int64
	GlobalRow int64

	// Probes holds the task attempt's handles on the job's indexes, one per
	// Job.Probes entry, in that order.
	Probes []*Probe
}

// ReduceOut receives one reduce partition's output: a run of rows per key,
// keys strictly ascending (the order the engine merges partitions in). A
// kernel either emits a key's rows one by one (Emit measures each row as it
// arrives) or hands over the key's whole run at once (EmitBlock, with the
// size the kernel worked out while building it). Either way the rows are
// measured exactly once, here in the parallel reduce phase: the output
// relation, Result.OutputBytes, Store.Put and the consuming job's
// InputBytes all carry that number along instead of walking the rows again.
type ReduceOut struct {
	job   *Job
	hint  int        // group-table pre-size for EachGroup
	arena []data.Row // the partition's row buffer; Emit appends here
	runs  []redOut   // keys ascending; the last may be open
	open  bool       // the last run takes Emits, at arena[start:]
	start int
}

func (o *ReduceOut) checkWidth(row data.Row) {
	if len(row) != o.job.OutputSchema.Len() {
		panic(fmt.Sprintf("mr: job %q reduce emitted width %d, schema %s", o.job.Name, len(row), o.job.OutputSchema))
	}
}

// last returns the latest run's key, and whether there is one.
func (o *ReduceOut) last() (string, bool) {
	if len(o.runs) == 0 {
		return "", false
	}
	return o.runs[len(o.runs)-1].key, true
}

// seal closes the open run, if any.
func (o *ReduceOut) seal() {
	if o.open {
		o.runs[len(o.runs)-1].rows = o.arena[o.start:len(o.arena):len(o.arena)]
		o.open = false
	}
}

// next seals the open run and appends ro, whose key must sort after it.
func (o *ReduceOut) next(ro redOut) {
	o.seal()
	if k, ok := o.last(); ok && ro.key < k {
		panic(fmt.Sprintf("mr: job %q reduce emitted key %q after %q: keys must ascend", o.job.Name, ro.key, k))
	}
	o.runs = append(o.runs, ro)
}

// Emit adds one output row to key's run.
func (o *ReduceOut) Emit(key string, row data.Row) {
	o.checkWidth(row)
	if k, ok := o.last(); !ok || key != k {
		o.next(redOut{key: key})
		o.open, o.start = true, len(o.arena)
	} else if !o.open {
		panic(fmt.Sprintf("mr: job %q reduce called Emit after EmitBlock", o.job.Name))
	}
	o.arena = append(o.arena, row)
	o.runs[len(o.runs)-1].bytes += int64(row.EncodedSize())
}

// EmitBlock makes rows key's entire run; bytes must equal
// Σ rows[i].EncodedSize(). The engine keeps the slice itself (no copy into
// the partition buffer), so the caller must not touch it afterwards, and a
// key that uses EmitBlock emits nothing else. Rows of one block may share a
// backing array: a row retained by a consumer then pins at most its own
// key's block.
func (o *ReduceOut) EmitBlock(key string, rows []data.Row, bytes int64) {
	if k, ok := o.last(); ok && key == k {
		panic(fmt.Sprintf("mr: job %q reduce mixed EmitBlock with other emissions", o.job.Name))
	}
	for _, row := range rows {
		o.checkWidth(row)
	}
	o.next(redOut{key: key, rows: rows, bytes: bytes})
}

// EachGroup visits recs' key groups in ascending key order, each with its
// rows in scan order (a view valid during the call only). The group table
// is pooled and pre-sized from Job.EstGroups, so grouping a warm partition
// allocates nothing per group.
func (o *ReduceOut) EachGroup(recs []Keyed, fn func(key string, rows []data.Row)) {
	g := getGrouper(min(o.hint, len(recs)))
	g.build(recs)
	g.sortKeys()
	o.runs = slices.Grow(o.runs, g.len()) // at most one run per group
	for _, k := range g.keys {
		fn(k, g.rows(g.id(k)))
	}
	g.release()
}

// Fusion is a job's reduce-side fusion classification, stamped by the
// optimizer and echoed in its Result (every job's map side is a compiled
// batch function, so the map side has nothing to classify). Every keyed job
// is eligible; FusedReduce marks one whose combine and reduce compiled into
// columnar agg kernels, and FusedReduceFallback carries the single reason
// (one of the Fuse* constants) of any other keyed job. A FusedReduce job's
// map kernel also runs the combine fold, through the shuffle boundary.
// Purely observational: the engine publishes it, never executes
// differently for it.
type Fusion struct {
	FusedReduce         bool
	FusedReduceFallback string
}

// Job is one MR job: map over the inputs, optional shuffle+reduce, output
// materialized to the store.
type Job struct {
	Name   string
	Inputs []string // names of the datasets the job reads
	// Sources and ProbeSources are the versions of Inputs and Probes the
	// job reads, bound by the caller: the engine reads nothing else.
	Sources, ProbeSources []*storage.Dataset

	// BatchMapFactory builds a fresh map function per map task, which the
	// engine hands the task's whole split at once; every job has one. Map-
	// side state is task-local (race-free) yet schedule-independent, since
	// the factory derives any counters or tags from the TaskCtx. The
	// optimizer compiles it from the job's fused programs.
	BatchMapFactory func(ctx TaskCtx) BatchMapFunc
	MapOutSchema    *data.Schema // schema of rows the map function emits

	// Probes lists the indexes the map side looks rows up in (TaskCtx.Probes).
	// The engine opens each once per attempt; the stored rows lookups match
	// count as input rows, and their bytes as input read.
	Probes []ProbeSpec

	Fusion // the optimizer's fusion classification

	// Reduce is the reduce kernel; a job without one is map-only. It gets
	// one whole reduce partition, recs in partition scan order (each key's
	// records in map-emission order), which it may reorder in place, and
	// writes out a run of rows per key with keys strictly ascending:
	// ReduceOut seals a run whenever the key changes, and an EmitBlock is
	// its key's whole run. Kernels that work per key group visit them
	// through out.EachGroup.
	Reduce       func(recs []Keyed, out *ReduceOut)
	OutputSchema *data.Schema // schema of the materialized output

	Output string // dataset name to materialize as (a storage.View)
	// Admit, when set, admits the output write (storage.Store.PutIf): a
	// refused output is reached only through the handle Run returns.
	Admit func() bool

	// Costing metadata: local-function descriptors for the simulated CPU
	// time of this job's map, combine, and reduce sides. A keyed job with a
	// CombineCost (a group-by: its map kernel combines) gets a combine span.
	MapCost     []cost.LocalFn
	CombineCost []cost.LocalFn
	ReduceCost  []cost.LocalFn

	// EstGroups is an optimizer cardinality hint (zero when unknown) used
	// only to pre-size group tables on the hot path. It never affects
	// results, accounting, or simulated seconds — a wildly wrong estimate
	// costs a reallocation, not correctness. (The output relation needs no
	// hint: it is sized exactly from the rows the reduce or map phase
	// produced.)
	EstGroups int64

	// PartitionKeyCols and PartitionParts declare the inputs' physical
	// layout: the rows this job shuffles are already hash-distributed over
	// PartitionParts buckets by the encoded prefix of the first
	// PartitionKeyCols shuffle-key columns. When both are set on a reduce
	// job the engine takes the partition-preserving path: each record
	// routes by its layout bucket, so co-located rows reach their reducer
	// without crossing the network and their bytes count as eliminated
	// (only the transfer term Ct changes — sorting, grouping, output, and
	// every other counter are identical to a full shuffle; the differential
	// oracle suite proves it).
	PartitionKeyCols int
	PartitionParts   int
}

// keyed reports whether the job shuffles and reduces (else it is map-only).
func (j *Job) keyed() bool { return j.Reduce != nil }

// partitionLocal reports whether the partition-preserving shuffle path
// applies to this job.
func (j *Job) partitionLocal() bool {
	return j.keyed() && j.PartitionKeyCols > 0 && j.PartitionParts > 0
}

// Result reports the measured volumes and simulated time of one job run.
// InputBytes..OutputRows cover the successful attempt only; the volumes
// failed attempts consumed before dying are accounted separately in
// RetriedInputBytes/RetriedShuffleBytes (failed attempts never write), and
// their simulated time in WastedSeconds, so
// Breakdown.Total() + WastedSeconds == SimSeconds always holds. Engine-side
// reads reconcile with storage.Store counters, absent samples: a job run
// alone reads Store.BytesRead == InputBytes + RetriedInputBytes, and since
// every retry re-reads, a shared scan reads
// Store.BytesRead == ScanBytes + Σ RetriedInputBytes over its Results, with
// ScanBytes, the first Result's InputBytes, read once (index probes aside).
type Result struct {
	Job          string
	InputBytes   int64
	InputRows    int64
	CombineRows  int64 // rows fed to map-side combiners
	ProbeRows    int64 // stored rows index probes matched (part of InputRows)
	IndexRows    int64 // rows of the indexes this attempt built (a map-only scan each)
	Attempts     int   // execution attempts (>1 after recovered failures)
	ShuffleBytes int64
	ShuffleRows  int64
	OutputBytes  int64
	OutputRows   int64

	// LocalShuffleBytes is the co-located portion of ShuffleBytes under the
	// partition-preserving path — the "shuffle bytes eliminated" metric.
	// KeyedJob marks a job that shuffled at all; PartitionLocal marks one
	// that ran the partition-preserving path (a layout hit).
	LocalShuffleBytes int64
	KeyedJob          bool
	PartitionLocal    bool

	// Fusion observability (wall-clock-only: none of these feed simulated
	// seconds or volumes). Fusion echoes the job's classification;
	// FusedBatches/FusedRows count the map splits (and their rows), every
	// one of which runs on the job's batch map function. Both depend only
	// on the job and its splits, so they are Workers-independent.
	Fusion
	FusedBatches int64
	FusedRows    int64

	// Reduce-side fusion observability, same wall-clock-only contract.
	// FusedCombineBatches counts map tasks that emitted combined records
	// (BatchReport.Combined); FusedReduceGroups and
	// FusedReduceRows count the output runs sealed and records reduced by a
	// FusedReduce job's kernel. All folded in split / partition order over
	// disjoint data, so the tallies are independent of Workers and
	// ReduceTasks.
	FusedCombineBatches int64
	FusedReduceGroups   int64
	FusedReduceRows     int64

	// RetriedInputBytes and RetriedShuffleBytes are the volumes read and
	// shuffled by failed attempts that were recovered from (zero when the
	// job succeeded first try).
	RetriedInputBytes   int64
	RetriedShuffleBytes int64

	Recovery // task-level recovery and the last error recovered from

	// Breakdown prices the successful attempt; WastedSeconds is the
	// simulated time of recovered-from failed attempts plus all task-level
	// fault waste (Faults.Total()); SimSeconds is their sum. After an
	// unrecovered failure Breakdown is zero and SimSeconds covers only the
	// earlier failed attempts (the final attempt's partial volumes stay in
	// InputBytes etc. for the caller to inspect); a deadline abort
	// additionally charges the aborted attempt's partial work, so the
	// degraded result still prices everything that ran.
	Breakdown     cost.Breakdown
	WastedSeconds float64
	SimSeconds    float64
}

// DataMovedBytes is the paper's "data manipulated" metric (Fig 8b): bytes
// read from HDFS + moved across the network + written to HDFS.
func (r Result) DataMovedBytes() int64 {
	return r.InputBytes + r.ShuffleBytes + r.OutputBytes
}

// Engine executes jobs against a store. Map and reduce tasks of one job
// run concurrently on a worker pool; the simulated seconds still model the
// cluster's aggregate work from the same cost.Params the optimizer uses,
// so local parallelism changes wall-clock time, never accounting.
type Engine struct {
	Store  *storage.Store
	Params cost.Params

	// Workers sizes the worker pool map splits and reduce partitions run
	// on; 0 (the default) means runtime.GOMAXPROCS(0). Output rows and
	// Result volumes are identical for every Workers value.
	Workers int

	// MaxAttempts retries a job whose user code panicked (flaky UDFs are a
	// fact of life in MR clusters). Every attempt restarts from the job's
	// durable inputs — the very materializations the paper repurposes as
	// opportunistic views exist to make this recovery possible. Failed
	// attempts' simulated time is charged to the final result. Values < 2
	// mean no retry.
	MaxAttempts int

	// Obs, when set, receives per-job metrics (volume/attempt/wasted-work
	// counters, wall-clock histograms) and per-attempt phase spans
	// (split/map/combine/shuffle/reduce/materialize with wall-clock and
	// simulated seconds). Nil disables instrumentation at the cost of one
	// pointer check per event.
	Obs *obs.Registry

	// Faults, when set, scripts deterministic fault injection
	// (internal/fault): task panics, corrupted task outputs, stragglers,
	// and — via the store — read errors. Injected task failures recover at
	// task granularity (retry with simulated backoff, speculation), priced
	// after the phase's tasks ran once; genuine user-code panics and read
	// errors keep the job-level MaxAttempts path.
	Faults *fault.Injector

	// TaskMaxAttempts bounds per-task retries of injected failures before
	// the failure escalates to the job level; <=0 means 4 (Hadoop's
	// mapred.map.max.attempts default).
	TaskMaxAttempts int

	// DisableSpeculation turns off speculative re-execution of straggling
	// tasks (stragglers then just run slow, like Hadoop with
	// mapred.*.tasks.speculative.execution=false).
	DisableSpeculation bool

	// DeadlineSimSeconds, when >0, aborts a job once its accrued simulated
	// seconds (prior attempts' waste + fault waste + completed phase time)
	// exceed the budget, returning an error wrapping ErrDeadlineExceeded
	// with the partial accounting in Result — graceful degradation instead
	// of unbounded retry under a hostile fault plan. Checked at phase
	// boundaries, which are parallelism-independent points.
	DeadlineSimSeconds float64
}

// workers resolves the worker-pool size.
func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// reduceTasks resolves R, the number of shuffle partitions reduced
// concurrently: Params.ReduceTasks when set, else the map side's split rule
// over the shuffled records — one partition per SplitRows of them, at most
// one per worker, at least one. Partitioning never affects output or
// accounting (partition outputs are re-merged in global key order), only
// wall-clock parallelism.
func (e *Engine) reduceTasks(records int) int {
	if r := e.Params.ReduceTasks; r > 0 {
		return r
	}
	if split := e.Params.SplitRows; split > 0 {
		return int(max(1, min(int64(e.workers()), (int64(records)+split-1)/split)))
	}
	return 1
}

// New creates an engine over a store with the given cost parameters.
func New(store *storage.Store, params cost.Params) *Engine {
	return &Engine{Store: store, Params: params}
}

// ScanResult reports one Run: a Result per job and what sharing the scan
// saved.
type ScanResult struct {
	// Results holds one Result per job, in the order the jobs were passed.
	// Each is priced as that job run alone — Cm includes the full scan for
	// every job — so callers that want physical attribution subtract the
	// scan from all but the first.
	Results []*Result

	// SavedBytes is the input the jobs after the first did not read:
	// (jobs-1) scans, zero for a job run alone.
	SavedBytes int64
}

// Run is the engine's one job entry, an MRShare-style shared scan: every
// job must read the identical input list, which is read and split once;
// then each job's map/combine/shuffle/reduce/materialize pipeline runs over
// the shared splits, one job after another. A job run alone is a shared
// scan of one. Every job is validated before anything runs, so a job that
// fails validation runs no attempt and yields no Result.
//
// Each job gets a Result priced as a run of that job alone (volumes,
// Breakdown, SimSeconds), so simulated seconds stay comparable across
// execution strategies; the physical saving is ScanResult.SavedBytes.
// Panics in user code (map/combine/reduce local functions) fail the
// attempt, and the job restarts up to MaxAttempts times, with failed
// attempts' simulated time charged to its Result. The first job's first
// attempt reads the inputs, later jobs' first attempts take that read, and
// every retry re-reads from the store, as a restarted Hadoop job restarts
// from its durable inputs. A read fault therefore lands on whichever
// attempt is reading, exactly as for the same job run alone. Task-level
// faults fire inside each job's own pipeline, addressed by job name, phase
// and task or shard index.
//
// Run records each job's phase spans live but publishes no counters: the
// caller hands each Result to RecordJob, so concurrently executed jobs can
// still be published in one fixed order. The handles on the outputs
// parallel Results. On failure Results still reports every job that ran,
// the failed one last.
func (e *Engine) Run(jobs ...*Job) ([]*storage.Dataset, *ScanResult, error) {
	if len(jobs) == 0 {
		return nil, nil, errors.New("mr: run with no jobs")
	}
	for _, job := range jobs {
		if err := validateJob(job, jobs[0]); err != nil {
			return nil, nil, err
		}
	}
	var read *inputRead // the first read of the inputs, kept for later jobs
	out := &ScanResult{Results: make([]*Result, 0, len(jobs))}
	outs := make([]*storage.Dataset, 0, len(jobs))
	for _, job := range jobs {
		root := e.Obs.StartSpan(job.Name, "job")
		d, res, err := e.retryLoop(job, root, &read)
		root.AddSim(res.SimSeconds)
		root.End()
		out.Results = append(out.Results, res)
		if err != nil {
			return nil, out, err
		}
		outs = append(outs, d)
	}
	out.SavedBytes = int64(len(jobs)-1) * read.bytes
	return outs, out, nil
}

// retryLoop runs one job's attempts until one succeeds (or the budget or
// deadline is exhausted) and folds failed attempts' partial work into the
// final Result. read is the Run's first read of the inputs (see attempt).
func (e *Engine) retryLoop(job *Job, root *obs.Span, read **inputRead) (*storage.Dataset, *Result, error) {
	attempts := e.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var wasted float64
	var retriedIn, retriedShuf int64
	var rec Recovery
	for attempt := 1; ; attempt++ {
		res := &Result{Job: job.Name}
		asp := root.Child("attempt")
		d, err := e.attempt(job, read, attempt == 1, res, asp, wasted+rec.Faults.Total())
		deadlined := err != nil && errors.Is(err, ErrDeadlineExceeded)
		var attemptCost float64
		if err != nil {
			// Price everything the failed attempt read, computed, and
			// moved before dying: a panic in reduce wastes the full map
			// and shuffle work, not just the map-side read (the partial
			// volumes in res stop at the phase that panicked).
			attemptCost = e.jobCost(job, res).Total()
		}
		if err != nil && !deadlined && attempt < attempts {
			asp.AddSim(attemptCost + res.Faults.Total())
			asp.End()
			wasted += attemptCost
			retriedIn += res.InputBytes
			retriedShuf += res.ShuffleBytes
			rec.add(res.Recovery)
			rec.RecoveredError = err.Error()
			continue
		}
		if deadlined {
			// Graceful degradation: the aborted attempt's partial work is
			// charged (unlike an exhausted-retries failure, where the
			// final attempt stays unpriced), so the degraded Result prices
			// everything that ran before the deadline tripped.
			wasted += attemptCost
			asp.AddSim(attemptCost + res.Faults.Total())
		} else {
			asp.AddSim(res.Breakdown.Total() + res.Faults.Total())
		}
		asp.End()
		res.Attempts = attempt
		rec.add(res.Recovery)
		res.Recovery = rec
		res.WastedSeconds = wasted + res.Faults.Total()
		res.RetriedInputBytes = retriedIn
		res.RetriedShuffleBytes = retriedShuf
		res.SimSeconds = res.Breakdown.Total() + res.WastedSeconds
		return d, res, err
	}
}

// jobCost prices the volumes an attempt measured with the job's local
// functions. The rows of an index the attempt built pay a map-only scan's
// CPU; their bytes are already in InputBytes.
func (e *Engine) jobCost(job *Job, res *Result) cost.Breakdown {
	b := e.Params.JobCost(cost.JobSpec{
		InputBytes:        res.InputBytes,
		InputRows:         res.InputRows,
		MapFns:            job.MapCost,
		CombineFns:        job.CombineCost,
		CombineRows:       res.CombineRows,
		ShuffleBytes:      res.ShuffleBytes,
		ShuffleRows:       res.ShuffleRows,
		LocalShuffleBytes: res.LocalShuffleBytes,
		ReduceFns:         job.ReduceCost,
		OutputBytes:       res.OutputBytes,
	})
	b.Cm += e.Params.FnsSeconds(indexScan, res.IndexRows)
	return b
}

// attempt is one execution attempt of job. It reads the inputs from the
// store unless it is the job's first attempt and the Run's first read is
// already in hand (*read); a read it makes while none is in hand becomes
// that read. User-code panics become errors (the partial volume accounting
// in res survives for wasted-time charging). prior is the simulated waste
// carried from earlier failed attempts, needed by the deadline checks.
func (e *Engine) attempt(job *Job, read **inputRead, first bool, res *Result, asp *obs.Span, prior float64) (d *storage.Dataset, err error) {
	defer func() {
		if r := recover(); r != nil {
			d = nil
			err = fmt.Errorf("mr: job %q failed: %w", job.Name, panicError(r))
		}
	}()
	// Split phase: read every input and cut it into map tasks.
	ssp := asp.Child("split")
	in := *read
	if !first || in == nil {
		if in, err = e.readInputs(job); err == nil && *read == nil {
			*read = in
		}
	}
	res.InputBytes, res.InputRows = in.bytes, in.rows
	ssp.AddSim(float64(res.InputBytes) / e.Params.ReadRate)
	ssp.End()
	if err != nil {
		return nil, err
	}
	if job.keyed() {
		res.KeyedJob = true
		res.PartitionLocal = job.partitionLocal()
	}
	res.Fusion = job.Fusion
	accrued := float64(res.InputBytes) / e.Params.ReadRate
	if err := e.deadlineCheck(job, res, prior, accrued); err != nil {
		return nil, err
	}

	// Map phase: one task per input split, run on the worker pool. Task
	// outputs stay in per-task buffers consumed in split order, so the
	// effective map output — and every volume counter — is identical for any
	// Workers value. Under an injected fault plan the tasks' recovery is
	// priced afterwards, in split order.
	msp := asp.Child("map")
	ixs, built, err := e.openProbes(job, res)
	if err != nil {
		msp.End()
		return nil, err
	}
	tasks := make([]mapTaskOut, len(in.splits))
	mapErr := runTasks(e.workers(), len(in.splits), func(i int) error {
		runMapTask(job, in.splits[i], ixs, &tasks[i])
		return nil
	})
	if e.Faults != nil {
		if err := e.priceMapTasks(job, res, in.splits); mapErr == nil {
			mapErr = err
		}
	}
	var probed int64
	for i := range tasks {
		res.ProbeRows += tasks[i].probeRows
		probed += tasks[i].probeBytes
		res.CombineRows += tasks[i].combineRows
		res.FusedBatches++
		res.FusedRows += int64(len(in.splits[i].rows))
		if tasks[i].combined {
			res.FusedCombineBatches++
		}
	}
	if len(ixs) > 0 {
		// What the lookups matched is read, and mapped, like any input.
		e.Store.CountProbe(probed)
		res.InputBytes += probed
		res.InputRows += res.ProbeRows
		probeSim := float64(built+probed)/e.Params.ReadRate + e.Params.FnsSeconds(indexScan, res.IndexRows)
		msp.AddSim(probeSim)
		accrued += probeSim
	}
	msp.AddSim(e.Params.FnsSeconds(job.MapCost, res.InputRows))
	if job.keyed() && len(job.CombineCost) > 0 {
		// The combine runs inside map tasks: its wall-clock is folded into
		// the map span, only the simulated seconds are reported separately.
		csp := msp.Child("combine")
		csp.AddSim(e.Params.FnsSeconds(job.CombineCost, res.CombineRows))
		csp.End()
	}
	msp.End()
	if mapErr != nil {
		return nil, fmt.Errorf("mr: job %q failed: %w", job.Name, mapErr)
	}
	accrued += e.Params.FnsSeconds(job.MapCost, res.InputRows) + e.Params.FnsSeconds(job.CombineCost, res.CombineRows)
	if err := e.deadlineCheck(job, res, prior, accrued); err != nil {
		return nil, err
	}

	out := data.NewRelation(job.OutputSchema)
	if !job.keyed() {
		// Map-only: emitted rows are the output, consumed in split order.
		total := 0
		for i := range tasks {
			total += len(tasks[i].out)
		}
		out.Grow(total)
		rows := rowBufs.get(0)
		for i := range tasks {
			for _, kr := range tasks[i].out {
				rows = append(rows, kr.Row)
			}
			out.AppendSized(rows, tasks[i].bytes)
			clear(rows)
			rows = rows[:0]
			keyedBufs.put(tasks[i].out)
			tasks[i].out = nil
		}
		rowBufs.put(rows)
	} else if err := e.shuffleReduce(job, res, tasks, out, asp); err != nil {
		return nil, err
	}
	accrued += float64(res.ShuffleBytes)*e.Params.SortFactor +
		float64(res.ShuffleBytes-res.LocalShuffleBytes)/e.Params.ShuffleRate +
		e.Params.FnsSeconds(job.ReduceCost, res.ShuffleRows)
	if err := e.deadlineCheck(job, res, prior, accrued); err != nil {
		return nil, err
	}

	wsp := asp.Child("materialize")
	res.OutputRows = int64(out.Len())
	res.OutputBytes = out.EncodedSize()

	// Materialize (every job output is retained: opportunistic views).
	d, _ = e.Store.PutIf(job.Output, storage.View, out, job.Admit)
	wsp.AddSim(float64(res.OutputBytes) / e.Params.WriteRate)
	wsp.End()

	// Simulated execution time from measured volumes.
	res.Breakdown = e.jobCost(job, res)
	return d, nil
}

// RecordJob publishes one finished job's counters to the metrics registry.
// Counter values are deterministic (volumes, simulated seconds, attempt
// counts); real wall-clock (wallSeconds) goes only into the histogram.
// Callers publish the jobs they ran in sequential job order — the session
// executor does, after running them in parallel — which keeps float-counter
// summation order, and therefore every byte of the snapshot, independent
// of execution parallelism.
func (e *Engine) RecordJob(res *Result, err error, wallSeconds float64) {
	reg := e.Obs
	if reg == nil {
		return
	}
	reg.Counter("mr_jobs_total").Inc()
	if err != nil {
		reg.Counter("mr_job_failures_total").Inc()
	}
	reg.Counter("mr_attempts_total").Add(int64(res.Attempts))
	reg.Counter("mr_retries_total").Add(int64(res.Attempts - 1))
	reg.Counter("mr_input_bytes_total").Add(res.InputBytes)
	reg.Counter("mr_input_rows_total").Add(res.InputRows)
	reg.Counter("mr_combine_rows_total").Add(res.CombineRows)
	reg.Counter("mr_probe_rows_total").Add(res.ProbeRows)
	reg.Counter("mr_shuffle_bytes_total").Add(res.ShuffleBytes)
	reg.Counter("mr_shuffle_rows_total").Add(res.ShuffleRows)
	reg.Counter("mr_output_bytes_total").Add(res.OutputBytes)
	reg.Counter("mr_output_rows_total").Add(res.OutputRows)
	reg.Counter("mr_retried_input_bytes_total").Add(res.RetriedInputBytes)
	reg.Counter("mr_retried_shuffle_bytes_total").Add(res.RetriedShuffleBytes)
	// Partition-layout family, recorded unconditionally (zeros included)
	// like the fault counters so snapshot key sets never depend on whether
	// a layout matched. Per job, hits + misses == keyed jobs and eliminated
	// bytes ≤ shuffled bytes by construction; cmd/metricscheck enforces the
	// summed invariants on every export.
	keyed, localJobs := one(res.KeyedJob), one(res.KeyedJob && res.PartitionLocal)
	reg.Counter("mr_keyed_jobs_total").Add(keyed)
	reg.Counter("mr_partition_local_jobs_total").Add(localJobs)
	reg.Counter("mr_partition_shuffle_jobs_total").Add(keyed - localJobs)
	reg.Counter("mr_shuffle_bytes_eliminated_total").Add(res.LocalShuffleBytes)
	// Fusion family: every job's map side is a fused batch function, so
	// every job counts once as eligible and once as fused
	// (cmd/metricscheck checks the two agree).
	reg.Counter("mr_fused_eligible_total").Inc()
	reg.Counter("mr_fused_jobs_total").Inc()
	reg.Counter("mr_fused_batches_total").Add(res.FusedBatches)
	reg.Counter("mr_fused_rows_total").Add(res.FusedRows)
	// Reduce-side fusion family, same unconditional-recording contract:
	// every keyed job is reduce-eligible; per job, reduce-eligible ==
	// reduce-fused + Σ fallback{reason}. Every reduce-fused job's map
	// kernel combines across the boundary, so the cross-boundary count
	// repeats the reduce-fused one.
	relig, rjobs := res.KeyedJob, res.KeyedJob && res.FusedReduce
	reg.Counter("mr_fused_reduce_eligible_total").Add(one(relig))
	reg.Counter("mr_fused_reduce_jobs_total").Add(one(rjobs))
	for _, reason := range FuseReduceFallbackReasons {
		v := one(relig && !rjobs && res.FusedReduceFallback == reason)
		reg.Counter("mr_fused_reduce_fallback_total", "reason", reason).Add(v)
	}
	reg.Counter("mr_fused_reduce_crossboundary_jobs_total").Add(one(rjobs))
	reg.Counter("mr_fused_reduce_batches_total").Add(res.FusedCombineBatches)
	reg.Counter("mr_fused_reduce_groups_total").Add(res.FusedReduceGroups)
	reg.Counter("mr_fused_reduce_rows_total").Add(res.FusedReduceRows)
	reg.FloatCounter("mr_sim_seconds_total").Add(res.SimSeconds)
	reg.FloatCounter("mr_wasted_sim_seconds_total").Add(res.WastedSeconds)
	// Fault/recovery counters are recorded unconditionally (zeros included)
	// so snapshot key sets — and therefore counter-map equality across
	// parallelism settings — never depend on which faults happened to fire.
	reg.Counter("mr_task_retries_total").Add(int64(res.TaskRetries))
	reg.Counter("mr_straggler_tasks_total").Add(int64(res.StragglerTasks))
	reg.Counter("mr_speculative_tasks_total").Add(int64(res.SpeculativeTasks))
	reg.Counter("mr_speculative_wins_total").Add(int64(res.SpeculativeWins))
	reg.Counter("mr_deadline_aborts_total").Add(one(errors.Is(err, ErrDeadlineExceeded)))
	const waste, bd = "mr_fault_waste_sim_seconds_total", "mr_breakdown_seconds_total"
	fw, b := res.Faults, res.Breakdown
	for _, c := range []struct {
		name, component string
		seconds         float64
	}{{waste, "retry", fw.TaskRetrySeconds}, {waste, "backoff", fw.BackoffSeconds}, {waste, "straggler", fw.StragglerSeconds},
		{waste, "speculation", fw.SpeculationSeconds}, {bd, "cm", b.Cm}, {bd, "cs", b.Cs}, {bd, "ct", b.Ct}, {bd, "cr", b.Cr}, {bd, "cw", b.Cw}} {
		reg.FloatCounter(c.name, "component", c.component).Add(c.seconds)
	}
	reg.Histogram("mr_job_wall_seconds", nil).Observe(wallSeconds)
}

// one counts a flag: 1 when set, else 0.
func one(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Keyed is one shuffle record: a partition key and its row. Exported so
// fused combine/reduce kernels (internal/optimizer) can fold record slices
// the engine hands them without copying.
type Keyed struct {
	Key string
	Row data.Row
}

// mapSplit is one map task's share of an input relation.
type mapSplit struct {
	ctx  TaskCtx
	rows []data.Row
}

// mapTaskOut is what one map task produced: its (possibly combined)
// emissions in emission order and their encoded size (Σ row.EncodedSize() +
// len(key), summed by the task itself so nothing downstream walks the
// records again), the rows its map-side combine consumed, and whether its
// output was combined.
type mapTaskOut struct {
	out         []Keyed
	bytes       int64
	combineRows int64
	combined    bool

	probeRows, probeBytes int64 // what the task's index lookups matched
}

// inputRead is one read of a job's inputs cut into map tasks of
// Params.SplitRows rows each, with the volume read.
type inputRead struct {
	splits      []mapSplit
	bytes, rows int64
}

// readInputs reads the version bound to every input of job and cuts it into
// map tasks. A failed read returns the volume read before it with the error.
func (e *Engine) readInputs(job *Job) (*inputRead, error) {
	splitRows := e.Params.SplitRows
	if splitRows <= 0 {
		splitRows = 1 << 62
	}
	in := &inputRead{}
	var globalRow int64
	for i, src := range job.Sources {
		rel, err := e.Store.ReadDataset(src)
		if err != nil {
			return in, fmt.Errorf("mr: job %q: %w", job.Name, err)
		}
		in.bytes += rel.EncodedSize()
		in.rows += int64(rel.Len())
		rows := rel.Rows()
		chunk := len(rows)
		if splitRows < int64(chunk) {
			chunk = int(splitRows)
		}
		for start, sp := 0, 0; start < len(rows); start, sp = start+chunk, sp+1 {
			end := start + chunk
			if end > len(rows) {
				end = len(rows)
			}
			in.splits = append(in.splits, mapSplit{
				ctx:  TaskCtx{Input: i, Split: sp, StartRow: int64(start), GlobalRow: globalRow + int64(start)},
				rows: rows[start:end],
			})
		}
		globalRow += int64(len(rows))
	}
	return in, nil
}

// runMapTask maps one split through the job's batch map function,
// counting each emission's bytes as it arrives. A batch that reports
// Combined (a group-by's kernel) emitted its split already combined per key;
// the task takes the pre-combine row count from the report when it emitted
// anything.
func runMapTask(job *Job, sp mapSplit, ixs []*storage.Index, t *mapTaskOut) {
	ctx := sp.ctx
	for _, ix := range ixs { // the attempt's own handles on the job's indexes
		ctx.Probes = append(ctx.Probes, NewProbe(ix))
	}
	out := keyedBufs.get(len(sp.rows))
	keyed := job.keyed()
	emit := func(key string, r data.Row) {
		if len(r) != job.MapOutSchema.Len() {
			panic(fmt.Sprintf("mr: job %q map emitted width %d, schema %s", job.Name, len(r), job.MapOutSchema))
		}
		t.bytes += int64(r.EncodedSize())
		if keyed { // a map-only job's key is ignored
			t.bytes += int64(len(key))
		}
		out = append(out, Keyed{key, r})
	}
	rep := job.BatchMapFactory(ctx)(ctx.Input, sp.rows, emit)
	for _, p := range ctx.Probes {
		t.probeRows += p.rows
		t.probeBytes += p.bytes
	}
	t.out = out
	if rep.Combined && len(out) > 0 {
		t.combined, t.combineRows = true, rep.CombineRows
	}
}

// validateJob checks the static requirements execution relies on: a map
// function, an output name, a bound version of every input and probe, and
// the same inputs as first, the Run's first job.
func validateJob(job, first *Job) error {
	if job.BatchMapFactory == nil {
		return fmt.Errorf("mr: job %q has no map function", job.Name)
	}
	bound := func(name string, d *storage.Dataset) bool { return d != nil && d.Name == name }
	if !slices.EqualFunc(job.Inputs, job.Sources, bound) ||
		!slices.EqualFunc(job.Probes, job.ProbeSources, func(p ProbeSpec, d *storage.Dataset) bool { return bound(p.Dataset, d) }) {
		return fmt.Errorf("mr: job %q reads unbound sources", job.Name)
	}
	if job.Output == "" {
		return fmt.Errorf("mr: job %q has no output name", job.Name)
	}
	// A map-only job materializes the mapper's emissions directly, so the
	// two schemas must agree on width — otherwise every emitted row would
	// be malformed under OutputSchema yet only the reduce path validated it.
	if !job.keyed() && job.MapOutSchema != nil && job.OutputSchema != nil &&
		job.MapOutSchema.Len() != job.OutputSchema.Len() {
		return fmt.Errorf("mr: map-only job %q emits width %d (schema %s) but materializes schema %s",
			job.Name, job.MapOutSchema.Len(), job.MapOutSchema, job.OutputSchema)
	}
	if !slices.Equal(job.Sources, first.Sources) {
		return fmt.Errorf("mr: shared scan: job %q reads %q, %q reads %q",
			job.Name, job.Inputs, first.Name, first.Inputs)
	}
	return nil
}

// redOut is one reduce key's buffered output and its encoded size. rows is
// either a block the reducer handed over or a slice of the owning
// partition's arena, valid until that arena is released.
type redOut struct {
	key   string
	rows  []data.Row
	bytes int64
}

// shuffleReduce hash-partitions the map-task outputs into R reduce
// partitions, reduces the partitions concurrently, and materializes their
// outputs in global key order. The single partition scan (task outputs in
// split order = map-emission order) accounts sort+transfer volume and
// preserves each key's row order, so both accounting and reduce inputs match
// serial execution exactly; the final k-way merge streams the partitions'
// key-sorted runs out in global key order, making output row order
// independent of R and Workers.
func (e *Engine) shuffleReduce(job *Job, res *Result, tasks []mapTaskOut, out *data.Relation, asp *obs.Span) error {
	var recErr error
	if e.Faults != nil {
		recErr = e.priceReduceTasks(job, res, tasks)
	}
	ssp := asp.Child("shuffle")
	total := 0
	for i := range tasks {
		total += len(tasks[i].out)
	}
	r := e.reduceTasks(total)
	parts := make([][]Keyed, r)
	for pi := range parts {
		// Pre-size for an even spread plus slack; a skewed key simply grows.
		parts[pi] = keyedBufs.get(total/r + total/(2*r) + 4)
	}
	local := job.partitionLocal()
	for i := range tasks {
		// The task measured its own records; this scan only routes them.
		res.ShuffleBytes += tasks[i].bytes
		res.ShuffleRows += int64(len(tasks[i].out))
		if local {
			res.LocalShuffleBytes += tasks[i].bytes
		}
		for _, kr := range tasks[i].out {
			var p int
			if local {
				if prefix, ok := data.KeyPrefix(kr.Key, job.PartitionKeyCols); ok {
					// Partition-preserving route: the record's layout bucket
					// is a function of the key prefix alone, so every row of
					// a group is already co-located with its reducer and its
					// bytes never cross the network. Buckets fold onto the R
					// reduce slots; grouping below is still per full key, so
					// the bucket→slot mapping can never change the output.
					p = partitionOf(prefix, job.PartitionParts) % r
				} else {
					// Malformed or too-short key: fall back to a full
					// shuffle for this record rather than trust a bad route;
					// its bytes do cross the network.
					res.LocalShuffleBytes -= int64(kr.Row.EncodedSize() + len(kr.Key))
					p = partitionOf(kr.Key, r)
				}
			} else {
				p = partitionOf(kr.Key, r)
			}
			parts[p] = append(parts[p], kr)
		}
		keyedBufs.put(tasks[i].out)
		tasks[i].out = nil
	}
	ssp.AddSim(float64(res.ShuffleBytes)*e.Params.SortFactor +
		float64(res.ShuffleBytes-res.LocalShuffleBytes)/e.Params.ShuffleRate)
	ssp.End()
	rsp := asp.Child("reduce")
	// Each reduce task runs the job's kernel over its whole partition; the
	// kernel's runs come back in ascending key order, rows landing in one
	// pooled arena per partition (redOut entries alias arena slices) unless
	// handed over as blocks.
	partOuts := make([][]redOut, r)
	partArenas := make([][]data.Row, r)
	groupHint := 0
	if job.EstGroups > 0 {
		groupHint = int(min(job.EstGroups/int64(r)+1, int64(total)))
	}
	err := runTasks(e.workers(), r, func(pi int) error {
		if len(parts[pi]) > 0 {
			// The arena holds row-at-a-time emissions (at most one per
			// record for every such kernel); block emitters bypass it.
			o := ReduceOut{job: job, hint: groupHint, arena: rowBufs.get(len(parts[pi]))}
			job.Reduce(parts[pi], &o)
			o.seal()
			partOuts[pi], partArenas[pi] = o.runs, o.arena
		}
		keyedBufs.put(parts[pi])
		parts[pi] = nil
		return nil
	})
	rsp.AddSim(e.Params.FnsSeconds(job.ReduceCost, res.ShuffleRows))
	if job.FusedReduce {
		// Kernel tallies (observational): integer sums over disjoint
		// partitions, identical at any ReduceTasks setting.
		res.FusedReduceRows = res.ShuffleRows
		for _, outs := range partOuts {
			res.FusedReduceGroups += int64(len(outs))
		}
	}
	if err == nil {
		err = recErr // a reduce task outlasted its retry budget
	}
	if err != nil {
		rsp.End()
		return fmt.Errorf("mr: job %q failed: %w", job.Name, err)
	}
	// Merge: partitions hold disjoint keys and each partition's buffers are
	// key-sorted, so a k-way merge reproduces the serial all-keys-sorted
	// output while doing strictly less work than the old global sort. The
	// reducers already built and measured every row, so the output relation
	// is sized exactly and takes each key's run together with its size.
	outRows := 0
	for _, outs := range partOuts {
		for i := range outs {
			outRows += len(outs[i].rows)
		}
	}
	out.Grow(outRows)
	mergeRuns(partOuts, func(ro *redOut) string { return ro.key }, func(ro *redOut) {
		out.AppendSized(ro.rows, ro.bytes)
	})
	for pi := range partArenas {
		if partArenas[pi] != nil {
			rowBufs.put(partArenas[pi])
		}
	}
	rsp.End()
	return nil
}
