// The unit executor behind Run, RunBatch and incremental maintenance, and
// RunBatch's MRShare-style shared-scan transform (paper §6 positions
// opportunistic views inside exactly this kind of shared-workload executor).
//
// Every caller's jobs run as one DAG of execution units. Run and an append's
// delta plans make each job its own unit; RunBatch restructures the
// combined job DAG of its queries two ways first:
//
//  1. Cross-query job dedup — jobs with the same output, input list, and
//     producing-subplan fingerprint are the same computation; the first
//     occurrence executes, later ones become "ghosts" that reuse its
//     materialization (the opportunistic view is shared, not recomputed).
//  2. Shared scans — remaining jobs reading the identical input list merge
//     into one meta-job that scans the inputs once and feeds every
//     consumer's map/combine/shuffle/reduce pipeline (MRShare grouping:
//     the read term of Cm is paid once, per-consumer costs separately).
//
// Units then execute with dependency-ordered parallelism across the call's
// queries, and every job that ran is published once, in rank order — its
// position in sequential execution — so counters do not depend on the
// parallelism.
//
// Accounting is physical: the engine counters record what ran — a shared
// scan's bytes and seconds once, a deduped job once — and the batch_*
// counters publish what sharing saved, so sequential totals are recovered
// by adding the two. Per-query Metrics stay attributed: every query is
// reported the cost of all its jobs, shared or not, which is what makes
// them comparable to sequential Run.
package session

import (
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"opportune/internal/mr"
	"opportune/internal/obs"
	"opportune/internal/optimizer"
	"opportune/internal/plan"
	"opportune/internal/storage"
)

// BatchQuery is one query of a batch.
type BatchQuery struct {
	Plan       *plan.Node
	ResultName string
	Mode       Mode
}

// BatchStats summarizes what the batch restructuring did.
type BatchStats struct {
	Queries       int
	JobsSubmitted int // jobs across all compiled queries
	JobsExecuted  int // physical pipeline executions after dedup
	JobsDeduped   int // jobs satisfied by another query's execution

	SharedScans         int // meta-jobs that scanned for >1 consumer
	SharedScanConsumers int // consumers across those meta-jobs
	ScanBytesSaved      int64

	// SimSeconds is the physical simulated cost of the batch (shared scans
	// once, ghosts free); AttributedSimSeconds is the standalone-equivalent
	// sum over all submitted jobs; SavedSimSeconds is their difference.
	SimSeconds           float64
	AttributedSimSeconds float64
	SavedSimSeconds      float64

	WallSeconds float64
}

// BatchResult is RunBatch's report: per-query metrics in input order plus
// batch-level statistics.
type BatchResult struct {
	PerQuery []*Metrics
	Stats    BatchStats
}

// batchConsumer is one compiled job of one query — the unit of attribution.
// rank is its flattened sequential position: executing consumers strictly
// in rank order is, by construction, exactly what Run-in-a-loop would do.
type batchConsumer struct {
	rank int
	job  *mr.Job
	jn   *optimizer.JobNode
	in   []*storage.Dataset // the handles its plan resolved (plannedQuery.in)
	out  *storage.Dataset   // the handle its write returned; nil until it ran

	unit *batchUnit     // physical unit executing this job (nil for ghosts)
	dup  *batchConsumer // representative this job deduped onto

	res     *mr.Result // standalone-equivalent attributed result; nil if it never ran
	err     error      // the job's failure, if it ran and failed
	wall    float64
	physSim float64 // physically-charged simulated seconds (0 for ghosts)
}

// batchUnit is one physical execution: a singleton job or a shared-scan
// meta-job covering several consumers (rank order, consumers[0] primary).
type batchUnit struct {
	rank      int
	consumers []*batchConsumer
	deps      map[*batchUnit]struct{}
	from      []*batchConsumer // per input: the producer read, nil for a resolved dataset

	saved int64 // scan bytes the consumers after the first did not read
	err   error
	done  bool
}

// execution is one run of planned queries' jobs: the consumers in rank
// order, per query, and the units that executed them.
type execution struct {
	perQuery  [][]*batchConsumer
	consumers []*batchConsumer
	units     []*batchUnit
}

// attributed sums one query's jobs at their standalone cost: simulated
// seconds and data moved.
func (x *execution) attributed(qi int) (sim float64, moved int64) {
	for _, c := range x.perQuery[qi] {
		sim += c.res.SimSeconds
		moved += c.res.DataMovedBytes()
	}
	return sim, moved
}

// RunBatch executes a batch of queries as one restructured job DAG: shared
// subexpressions execute once, same-input jobs share scans, and independent
// units run in parallel. Results are materialized under each query's
// ResultName and all job outputs are retained as opportunistic views,
// exactly as per-query Run does — RunBatch is Run's entry with the sharing
// transform applied, and is safe for concurrent use beside Run, RunBatch
// and AppendRows.
func (s *Session) RunBatch(queries []BatchQuery) (*BatchResult, error) {
	if len(queries) == 0 {
		return &BatchResult{}, nil
	}
	return s.run(queries, true)
}

// execute runs planned queries' jobs as one unit DAG on the session's
// engine — Run's and RunBatch's queries, and an append's delta plans — and
// then publishes every job that ran, failed ones included, once and in rank
// order. share applies RunBatch's transform (buildUnits).
func (s *Session) execute(plans []plannedQuery, share bool) (*execution, error) {
	x := buildUnits(plans, share)
	err := executeBatch(s.Eng, x.units, min(runtime.GOMAXPROCS(0), len(plans)))
	for _, c := range x.consumers {
		if c.dup != nil {
			// A dedup ghost is attributed its representative's execution
			// (ranked before it) and records nothing.
			c.res, c.out = c.dup.res, c.dup.out
			continue
		}
		if c.res == nil {
			continue
		}
		pr := s.physicalResult(c)
		c.physSim = pr.SimSeconds
		s.Eng.RecordJob(pr, c.err, c.wall)
	}
	return x, err
}

// buildUnits flattens the planned queries into rank-ordered consumers and
// groups them into execution units, wiring the unit dependency DAG from
// input/output names. Without share every job is its own unit. With share
// (RunBatch's transform) cross-query duplicates — same output, same input
// list, same producing-subplan fingerprint — dedup onto their first
// occurrence (sinks never collide: each query has a distinct result name),
// and the remaining jobs with identical input lists group into shared-scan
// meta-jobs. The transform stays batch-only: applied inside one query it
// would move Run's simulated seconds and every executed-seconds figure.
func buildUnits(plans []plannedQuery, share bool) *execution {
	x := &execution{perQuery: make([][]*batchConsumer, len(plans))}
	for qi, p := range plans {
		for ji, job := range p.jobs {
			c := &batchConsumer{rank: len(x.consumers), job: job, jn: p.w.Nodes[ji], in: p.in}
			x.perQuery[qi] = append(x.perQuery[qi], c)
			x.consumers = append(x.consumers, c)
		}
	}
	consumers := x.consumers
	inputsKey := func(c *batchConsumer) string {
		if !share {
			return strconv.Itoa(c.rank) // no grouping: a group of one per job
		}
		k := ""
		for _, in := range c.job.Inputs {
			k += in + "\x00"
		}
		return k
	}
	if share {
		reps := make(map[string]*batchConsumer)
		for _, c := range consumers {
			key := c.job.Output + "\x00" + c.jn.PlanFP + "\x00" + inputsKey(c)
			if rep, ok := reps[key]; ok {
				c.dup = rep
				continue
			}
			reps[key] = c
		}
	}
	byInputs := make(map[string][]*batchConsumer)
	for _, c := range consumers {
		if c.dup == nil {
			k := inputsKey(c)
			byInputs[k] = append(byInputs[k], c)
		}
	}
	for _, c := range consumers {
		if c.dup != nil || c.unit != nil {
			continue
		}
		// Greedily take every still-unassigned group member, skipping
		// output-name collisions: two distinct jobs materializing the same
		// name must keep their sequential write order, so the later one
		// forms its own unit and the writer chain below orders them.
		var members []*batchConsumer
		outs := make(map[string]bool)
		for _, m := range byInputs[inputsKey(c)] {
			if m.unit != nil || outs[m.job.Output] {
				continue
			}
			outs[m.job.Output] = true
			members = append(members, m)
		}
		u := &batchUnit{rank: members[0].rank, consumers: members, deps: make(map[*batchUnit]struct{})}
		for _, m := range members {
			m.unit = u
		}
		x.units = append(x.units, u)
	}

	// producers[name] lists every consumer materializing name, rank order.
	producers := make(map[string][]*batchConsumer)
	for _, c := range consumers {
		producers[c.job.Output] = append(producers[c.job.Output], c)
	}
	// Each consumer depends on the last producer of each of its inputs with
	// a lower rank — exactly the dataset version sequential execution would
	// read — and its unit reads that version, its last member's where the
	// members differ. Base datasets have no producer and impose no edge.
	for _, u := range x.units {
		u.from = make([]*batchConsumer, len(u.consumers[0].job.Inputs))
		for _, m := range u.consumers {
			for i, in := range m.job.Inputs {
				var last *batchConsumer
				for _, p := range producers[in] {
					if p.rank >= m.rank {
						break
					}
					last = p
				}
				if last == nil {
					continue
				}
				if last.dup != nil {
					last = last.dup // the version a ghost stands for
				}
				if last.unit != u {
					u.deps[last.unit] = struct{}{}
					u.from[i] = last
				}
			}
		}
	}
	// Writer chains: distinct physical units materializing the same name
	// run in rank order, so the final stored version is sequential's.
	for _, ps := range producers {
		var prev *batchUnit
		for _, p := range ps {
			if p.dup != nil {
				p = p.dup
			}
			if prev != nil && p.unit != prev {
				p.unit.deps[prev] = struct{}{}
			}
			prev = p.unit
		}
	}
	return x
}

// executeBatch runs the unit DAG with at most parallel units at once;
// execute allows one per query of the call. Every job already spreads its
// tasks over all of the engine's workers, so units in parallel pay off
// across queries only: running one query's independent jobs side by side
// was measured to raise scan's peak RSS by 8 % for no throughput.
//
// Units run strictly in rank order while only one may run at a time, and
// while the order they touch the store is observable: while scripted read
// faults are still armed, so the read-error budget drains in one fixed
// order whatever the parallelism, and while the store has a view budget,
// whose eviction ranks views by access order. Otherwise units run with
// dependency-ordered parallelism.
func executeBatch(eng *mr.Engine, units []*batchUnit, parallel int) error {
	i := 0 // buildUnits emits units in rank order
	for ; i < len(units) && (parallel <= 1 || eng.Faults.PendingReadFaults() > 0 || eng.Store.ViewCapacityBytes > 0); i++ {
		u := units[i]
		runUnit(eng, u)
		u.done = true
		if u.err != nil {
			return u.err
		}
	}
	return runUnitsParallel(units[i:], parallel, func(u *batchUnit) { runUnit(eng, u) })
}

// runUnit executes one unit as one engine run, a shared scan of its
// consumers (of one, for a singleton), after binding the versions they
// read: an input another unit produces from that unit's write, any other
// from the handles planning resolved. It publishes no counters: execute
// records every consumer that ran, in rank order, once the DAG is done.
func runUnit(eng *mr.Engine, u *batchUnit) {
	t0 := time.Now()
	first := u.consumers[0]
	srcs := make([]*storage.Dataset, len(u.from))
	for i, p := range u.from {
		if srcs[i] = resolved(first.in, first.job.Inputs[i]); p != nil {
			srcs[i] = p.out
		}
	}
	jobs := make([]*mr.Job, len(u.consumers))
	for i, c := range u.consumers {
		c.job.Sources = srcs
		c.job.ProbeSources = make([]*storage.Dataset, len(c.job.Probes))
		for pi, ps := range c.job.Probes {
			c.job.ProbeSources[pi] = resolved(c.in, ps.Dataset)
		}
		jobs[i] = c.job
	}
	outs, run, err := eng.Run(jobs...)
	u.err = err
	if run == nil {
		return
	}
	for i, d := range outs {
		u.consumers[i].out = d
	}
	u.saved = run.SavedBytes
	wall := time.Since(t0).Seconds() / float64(len(u.consumers))
	for i, res := range run.Results {
		u.consumers[i].res, u.consumers[i].wall = res, wall
	}
	if err != nil {
		u.consumers[len(run.Results)-1].err = err
	}
}

// resolved is the handle in holds on the named dataset, nil if none.
func resolved(in []*storage.Dataset, name string) *storage.Dataset {
	if i := slices.IndexFunc(in, func(d *storage.Dataset) bool { return d.Name == name }); i >= 0 {
		return in[i]
	}
	return nil
}

// runUnitsParallel executes units whose read phases can no longer fault,
// level by level: every unit whose dependencies are satisfied runs
// concurrently (bounded by parallel), then the next level. Units arrive in
// rank order (buildUnits), so every level is in rank order too. A
// dependency cycle — only possible from pathological same-output plans —
// runs the remaining units one at a time in rank order, which is always
// safe.
func runUnitsParallel(remaining []*batchUnit, parallel int, run func(*batchUnit)) error {
	for len(remaining) > 0 {
		var ready, blocked []*batchUnit
		for _, u := range remaining {
			ok := true
			for d := range u.deps {
				ok = ok && d.done
			}
			if ok {
				ready = append(ready, u)
			} else {
				blocked = append(blocked, u)
			}
		}
		if len(ready) == 0 {
			ready, blocked, parallel = remaining, nil, 1
		}
		sem := make(chan struct{}, parallel)
		var wg sync.WaitGroup
		for _, u := range ready {
			wg.Add(1)
			sem <- struct{}{}
			go func(u *batchUnit) {
				defer wg.Done()
				defer func() { <-sem }()
				run(u)
			}(u)
		}
		wg.Wait()
		for _, u := range ready {
			u.done = true
			if u.err != nil {
				return u.err
			}
		}
		remaining = blocked
	}
	return nil
}

// physicalResult is the physically-charged view of a consumer's result:
// shared-scan secondaries drop the scan they did not perform (bytes to
// zero, Cm minus one scan); primaries and singletons are already physical.
func (s *Session) physicalResult(c *batchConsumer) *mr.Result {
	if c == c.unit.consumers[0] {
		return c.res
	}
	r := *c.res
	r.Breakdown.Cm -= s.Eng.Params.ScanSeconds(r.InputBytes)
	r.InputBytes = 0
	r.SimSeconds = r.Breakdown.Total() + r.WastedSeconds
	return &r
}

// creditRewrite credits the views a successful rewrite read (in, the
// handles its plan resolved) with the cost it saved: the benefit the
// cost-benefit reclamation policy ranks on.
func (s *Session) creditRewrite(m *Metrics, in []*storage.Dataset) {
	if r := m.Rewrite; r != nil && r.Improved && r.OriginalCost > r.Cost {
		for _, d := range in {
			if d.Kind == storage.View {
				s.Store.AddBenefit(d.Name, r.OriginalCost-r.Cost)
			}
		}
	}
}

// batchStats fills the batch-level summary and publishes the batch_*
// metrics.
func (s *Session) batchStats(st *BatchStats, queries int, x *execution) {
	st.Queries = queries
	st.JobsSubmitted = len(x.consumers)
	for _, c := range x.consumers {
		st.AttributedSimSeconds += c.res.SimSeconds
		if c.dup != nil {
			st.JobsDeduped++
			st.ScanBytesSaved += c.dup.res.InputBytes
		} else {
			st.JobsExecuted++
			st.SimSeconds += c.physSim
		}
	}
	for _, u := range x.units {
		if len(u.consumers) > 1 {
			st.SharedScans++
			st.SharedScanConsumers += len(u.consumers)
			st.ScanBytesSaved += u.saved
		}
	}
	st.SavedSimSeconds = st.AttributedSimSeconds - st.SimSeconds

	if s.Obs == nil {
		return
	}
	// Zero-valued Adds still create the counters, keeping the metric key
	// set stable whether or not this batch found anything to share.
	s.Obs.Counter("batch_jobs_deduped_total").Add(int64(st.JobsDeduped))
	s.Obs.Counter("batch_scan_bytes_saved_total").Add(st.ScanBytesSaved)
	h := s.Obs.Histogram("batch_shared_scan_fanin", obs.DefFaninBuckets)
	for _, u := range x.units {
		if len(u.consumers) > 1 {
			h.Observe(float64(len(u.consumers)))
		}
	}
}
