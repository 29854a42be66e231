// Batch execution: MRShare-style shared-scan processing of a query batch
// (paper §6 positions opportunistic views inside exactly this kind of
// shared-workload executor).
//
// RunBatch compiles every query up front, then restructures the combined
// job DAG three ways before anything executes:
//
//  1. Cross-query job dedup — jobs with the same output, input list, and
//     producing-subplan fingerprint are the same computation; the first
//     occurrence executes, later ones become "ghosts" that reuse its
//     materialization (the opportunistic view is shared, not recomputed).
//  2. Shared scans — remaining jobs reading the identical input list merge
//     into one meta-job that scans the inputs once and feeds every
//     consumer's map/combine/shuffle/reduce pipeline (MRShare grouping:
//     the read term of Cm is paid once, per-consumer costs separately).
//  3. Inter-job parallelism — the deduped unit DAG is executed with
//     dependency-ordered parallelism across queries, not one query at a
//     time.
//
// Accounting is physical: the engine counters record what ran — a shared
// scan's bytes and seconds once, a deduped job once — and the batch_*
// counters publish what sharing saved, so sequential totals are recovered
// by adding the two. Per-query Metrics stay attributed: every query is
// reported the cost of all its jobs, shared or not, which is what makes
// them comparable to sequential Run.
package session

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"opportune/internal/mr"
	"opportune/internal/obs"
	"opportune/internal/optimizer"
	"opportune/internal/plan"
)

// BatchQuery is one query of a batch.
type BatchQuery struct {
	Plan       *plan.Node
	ResultName string
	Mode       Mode
}

// BatchOptions configures RunBatch.
type BatchOptions struct {
	// Parallel bounds how many independent units execute concurrently;
	// <=0 means runtime.GOMAXPROCS(0).
	Parallel int
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
	rank   int
	qi, ji int
	job    *mr.Job
	jn     *optimizer.JobNode

	unit *batchUnit     // physical unit executing this job (nil for ghosts)
	dup  *batchConsumer // representative this job deduped onto

	res     *mr.Result // standalone-equivalent attributed result
	wall    float64
	physSim float64 // physically-charged simulated seconds (0 for ghosts)
}

// batchUnit is one physical execution: a singleton job or a shared-scan
// meta-job covering several consumers (rank order, consumers[0] primary).
type batchUnit struct {
	rank      int
	consumers []*batchConsumer
	deps      map[*batchUnit]struct{}

	shared *mr.SharedScanResult
	err    error
	done   bool
}

// RunBatch executes a batch of queries as one restructured job DAG: shared
// subexpressions execute once, same-input jobs share scans, and independent
// units run in parallel. Results are materialized under each query's
// ResultName and all job outputs are retained as opportunistic views,
// exactly as per-query Run does. RunBatch is safe to call concurrently with
// Run (it executes on its own registry-detached engine copy and the store
// and catalog are lock-protected); concurrent RunBatch and AppendRows calls
// serialize on the session's batch lock.
func (s *Session) RunBatch(queries []BatchQuery, opts BatchOptions) (*BatchResult, error) {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	start := time.Now()
	out := &BatchResult{PerQuery: make([]*Metrics, len(queries))}
	if len(queries) == 0 {
		return out, nil
	}

	plans, err := s.planBatch(queries)
	if err != nil {
		return nil, err
	}

	perQuery, consumers := buildConsumers(plans)
	units := buildUnits(consumers)

	// Pin everything the batch touches (deduplicated, so the union pin
	// itself registers no contention): no query's input or intermediate may
	// be evicted while another query still needs it.
	pinSet := make(map[string]bool)
	for qi, p := range plans {
		if p.jobs == nil {
			continue
		}
		for _, n := range pinList(p.chosen, p.w, queries[qi].ResultName) {
			pinSet[n] = true
		}
	}
	pinned := make([]string, 0, len(pinSet))
	for n := range pinSet {
		pinned = append(pinned, n)
	}
	sort.Strings(pinned)
	s.Store.Pin(pinned)

	// Execute on a registry-detached copy of the engine: job records are
	// replayed in sequential job order during finalization, which keeps
	// float-counter summation order — and so every byte of the snapshot —
	// deterministic. A copy rather than a save/restore of s.Eng.Obs because
	// Session.Run may be executing concurrently on the shared engine and
	// must keep recording.
	quiet := *s.Eng
	quiet.Obs = nil
	err = executeBatch(&quiet, units, opts.Parallel)
	if err == nil {
		// Finalize under the pins, like the sequential path: a concurrent
		// Run's materialization must not evict an output between its
		// registration and its statistics sample.
		err = s.finalizeBatch(queries, plans, perQuery, out)
	}
	s.Store.Unpin(pinned)
	// On failure too, like executePlan: outputs were admitted over budget
	// under the pins, and evictions deferred by them land at Unpin.
	s.Store.EnforceBudget()
	s.Cat.SyncWithStore(s.Store)
	if err != nil {
		return nil, err
	}

	s.batchStats(&out.Stats, queries, consumers, units)
	out.Stats.WallSeconds = time.Since(start).Seconds()
	return out, nil
}

// planBatch compiles every query up front, against the catalog as of batch
// start.
func (s *Session) planBatch(queries []BatchQuery) ([]plannedQuery, error) {
	plans := make([]plannedQuery, len(queries))
	for qi, q := range queries {
		var err error
		if plans[qi], err = s.planQuery(q.Plan, q.ResultName, q.Mode, false); err != nil {
			s.Obs.Counter("session_query_failures_total", "mode", q.Mode.String()).Inc()
			return nil, fmt.Errorf("session: batch query %d (%s): %w", qi, q.ResultName, err)
		}
	}
	return plans, nil
}

// buildConsumers flattens the compiled queries into rank-ordered consumers
// and marks cross-query duplicates: same output, same input list, and same
// producing-subplan fingerprint means the same computation, so later
// occurrences dedup onto the first. Sinks never collide (each query has a
// distinct result name).
func buildConsumers(plans []plannedQuery) ([][]*batchConsumer, []*batchConsumer) {
	perQuery := make([][]*batchConsumer, len(plans))
	var consumers []*batchConsumer
	for qi, p := range plans {
		for ji, job := range p.jobs {
			c := &batchConsumer{
				rank: len(consumers),
				qi:   qi, ji: ji,
				job: job,
				jn:  p.w.Nodes[ji],
			}
			perQuery[qi] = append(perQuery[qi], c)
			consumers = append(consumers, c)
		}
	}
	reps := make(map[string]*batchConsumer)
	for _, c := range consumers {
		key := c.job.Output + "\x00" + c.jn.PlanFP
		for _, in := range c.job.Inputs {
			key += "\x00" + in
		}
		if rep, ok := reps[key]; ok {
			c.dup = rep
			continue
		}
		reps[key] = c
	}
	return perQuery, consumers
}

// buildUnits groups the physical (non-ghost) consumers into execution
// units — shared-scan meta-jobs for identical input lists, singletons
// otherwise — and wires the unit dependency DAG from input/output names.
func buildUnits(consumers []*batchConsumer) []*batchUnit {
	inputsKey := func(job *mr.Job) string {
		k := ""
		for _, in := range job.Inputs {
			k += in + "\x00"
		}
		return k
	}
	byInputs := make(map[string][]*batchConsumer)
	for _, c := range consumers {
		if c.dup != nil {
			continue
		}
		k := inputsKey(c.job)
		byInputs[k] = append(byInputs[k], c)
	}
	var units []*batchUnit
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
		for _, m := range byInputs[inputsKey(c.job)] {
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
		units = append(units, u)
	}

	// producers[name] lists every consumer materializing name, rank order.
	producers := make(map[string][]*batchConsumer)
	for _, c := range consumers {
		producers[c.job.Output] = append(producers[c.job.Output], c)
	}
	physUnit := func(c *batchConsumer) *batchUnit {
		if c.dup != nil {
			return c.dup.unit
		}
		return c.unit
	}
	// Each consumer depends on the last producer of each of its inputs with
	// a lower rank — exactly the dataset version sequential execution would
	// read. Base datasets have no producer and impose no edge.
	for _, u := range units {
		for _, m := range u.consumers {
			for _, in := range m.job.Inputs {
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
				if pu := physUnit(last); pu != nil && pu != u {
					u.deps[pu] = struct{}{}
				}
			}
		}
	}
	// Writer chains: distinct physical units materializing the same name
	// run in rank order, so the final stored version is sequential's.
	for _, ps := range producers {
		var prev *batchUnit
		for _, p := range ps {
			u := physUnit(p)
			if u == nil {
				continue
			}
			if prev != nil && u != prev {
				u.deps[prev] = struct{}{}
			}
			prev = u
		}
	}
	return units
}

// executeBatch runs the unit DAG. While scripted read faults are still
// armed, units run strictly in rank order so the read-error budget drains
// in one fixed order whatever the parallelism; once no read can fault
// anymore, the remaining units run with dependency-ordered parallelism.
func executeBatch(eng *mr.Engine, units []*batchUnit, parallel int) error {
	i := 0 // buildUnits emits units in rank order
	for ; i < len(units) && eng.Faults.PendingReadFaults() > 0; i++ {
		u := units[i]
		runUnit(eng, u)
		u.done = true
		if u.err != nil {
			return u.err
		}
	}
	return runUnitsParallel(units[i:], parallel, func(u *batchUnit) { runUnit(eng, u) })
}

// runUnit executes one unit: a plain engine run for singletons, a shared-
// scan meta-job otherwise. The engine passed in is the batch's registry-
// detached copy, so no metrics are recorded yet.
func runUnit(eng *mr.Engine, u *batchUnit) {
	t0 := time.Now()
	if len(u.consumers) == 1 {
		c := u.consumers[0]
		_, res, err := eng.Run(c.job)
		c.res = res
		c.wall = time.Since(t0).Seconds()
		u.err = err
		return
	}
	jobs := make([]*mr.Job, len(u.consumers))
	for i, c := range u.consumers {
		jobs[i] = c.job
	}
	_, ssr, err := eng.RunSharedScan(jobs)
	if err != nil {
		u.err = err
		return
	}
	u.shared = ssr
	wall := time.Since(t0).Seconds() / float64(len(u.consumers))
	for i, c := range u.consumers {
		c.res = ssr.Results[i]
		c.wall = wall
	}
}

// runUnitsParallel executes units whose read phases can no longer fault,
// level by level: every unit whose dependencies are satisfied runs
// concurrently (bounded by parallel), then the next level. A dependency
// cycle — only possible from pathological same-output plans — falls back
// to sequential rank order, which is always safe.
func runUnitsParallel(rest []*batchUnit, parallel int, run func(*batchUnit)) error {
	if len(rest) == 0 {
		return nil
	}
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	remaining := rest
	for len(remaining) > 0 {
		var ready, blocked []*batchUnit
		for _, u := range remaining {
			ok := true
			for d := range u.deps {
				if !d.done {
					ok = false
					break
				}
			}
			if ok {
				ready = append(ready, u)
			} else {
				blocked = append(blocked, u)
			}
		}
		if len(ready) == 0 {
			sort.Slice(remaining, func(i, j int) bool { return remaining[i].rank < remaining[j].rank })
			for _, u := range remaining {
				run(u)
				u.done = true
				if u.err != nil {
					return u.err
				}
			}
			return nil
		}
		sort.Slice(ready, func(i, j int) bool { return ready[i].rank < ready[j].rank })
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
	if c.unit == nil || len(c.unit.consumers) == 1 || c == c.unit.consumers[0] {
		return c.res
	}
	r := *c.res
	r.Breakdown.Cm -= s.Eng.Params.ScanSeconds(r.InputBytes)
	r.InputBytes = 0
	r.SimSeconds = r.Breakdown.Total() + r.WastedSeconds
	return &r
}

// finalizeBatch replays, per query in input order, everything sequential
// execution interleaves with running jobs — job records, view retention and
// statistics, and the session-level metrics — serially, so every counter is
// deterministic whatever the execution parallelism was.
func (s *Session) finalizeBatch(queries []BatchQuery, plans []plannedQuery, perQuery [][]*batchConsumer, out *BatchResult) error {
	for qi, q := range queries {
		p := plans[qi]
		m := p.m
		qsp := s.Obs.StartSpan(q.ResultName, "query")
		// Planning ran up front in planBatch; the empty child keeps the
		// query → plan → execute span shape of sequential Run.
		qsp.Child("plan").End()
		if p.jobs != nil {
			esp := qsp.Child("execute")
			var exec float64
			var moved int64
			for _, c := range perQuery[qi] {
				s.finalizeConsumer(c)
				exec += c.res.SimSeconds
				moved += c.res.DataMovedBytes()
			}
			m.ExecSeconds = exec
			m.Jobs = len(p.jobs)
			m.DataMovedBytes = moved
			esp.AddSim(m.ExecSeconds)
			esp.End()

			s.creditRewrite(m, p.chosen)

			sec, err := s.retainViews(p.w, q.ResultName, p.epoch)
			if err != nil {
				qsp.End()
				return err
			}
			m.StatsSeconds = sec
			if m.StatsSeconds > 0 {
				ssp := qsp.Child("stats")
				ssp.AddSim(m.StatsSeconds)
				ssp.End()
			}
		}
		qsp.AddSim(m.ExecSeconds + m.StatsSeconds)
		qsp.End()
		s.record(m)
		out.PerQuery[qi] = m
	}
	return nil
}

// finalizeConsumer settles one job's attributed result. A dedup ghost is
// attributed its representative's execution and records nothing; a physical
// execution is recorded once, shared-scan secondaries discounted by the
// scan they did not perform.
func (s *Session) finalizeConsumer(c *batchConsumer) {
	if c.dup != nil {
		c.res = c.dup.res
		return
	}
	pr := s.physicalResult(c)
	c.physSim = pr.SimSeconds
	s.Eng.RecordJob(pr, nil, c.wall)
}

// creditRewrite credits the views a successful rewrite read with the cost
// it saved — shared with the sequential path's benefit accounting.
func (s *Session) creditRewrite(m *Metrics, chosen *plan.Node) {
	if m.Rewrite == nil || !m.Rewrite.Improved {
		return
	}
	saved := m.Rewrite.OriginalCost - m.Rewrite.Cost
	if saved <= 0 {
		return
	}
	plan.Walk(chosen, func(n *plan.Node) {
		if n.Kind == plan.KindScan {
			if t, ok := s.Cat.Table(n.Dataset); ok && t.IsView {
				s.Store.AddBenefit(n.Dataset, saved)
			}
		}
	})
}

// batchStats fills the batch-level summary and publishes the batch_*
// metrics.
func (s *Session) batchStats(st *BatchStats, queries []BatchQuery, consumers []*batchConsumer, units []*batchUnit) {
	st.Queries = len(queries)
	st.JobsSubmitted = len(consumers)
	for _, c := range consumers {
		st.AttributedSimSeconds += c.res.SimSeconds
		if c.dup != nil {
			st.JobsDeduped++
			st.ScanBytesSaved += c.dup.res.InputBytes
		} else {
			st.JobsExecuted++
			st.SimSeconds += c.physSim
		}
	}
	for _, u := range units {
		if u.shared != nil {
			st.SharedScans++
			st.SharedScanConsumers += len(u.consumers)
			st.ScanBytesSaved += u.shared.SavedBytes
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
	for _, u := range units {
		if u.shared != nil {
			h.Observe(float64(len(u.consumers)))
		}
	}
}
