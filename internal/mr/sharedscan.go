package mr

import (
	"errors"
	"fmt"
	"time"

	"opportune/internal/data"
	"opportune/internal/obs"
)

// SharedScanResult reports one shared-scan meta-job execution: per-consumer
// results with standalone-equivalent accounting, plus the physical sharing
// win (the scan was read once instead of once per consumer).
type SharedScanResult struct {
	// Results holds one Result per consumer, in the order the consumers
	// were passed. Each is priced exactly as a standalone Run of that job
	// would have been — Cm includes the full scan for every consumer — so
	// callers that want physical attribution subtract ScanSeconds from all
	// but one consumer.
	Results []*Result

	ScanBytes int64 // bytes of the shared inputs, read once
	ScanRows  int64

	// SavedBytes and SavedSeconds quantify the sharing win vs independent
	// execution: (consumers-1) scans that did not physically happen.
	SavedBytes   int64
	SavedSeconds float64

	// WallSeconds is the real elapsed time of the whole meta-job.
	WallSeconds float64
}

// RunSharedScan executes an MRShare-style shared-scan meta-job: all
// consumer jobs must read the identical input list; the inputs are read and
// split once, then every consumer's map/combine/shuffle/reduce/materialize
// pipeline runs over the shared splits. Each consumer gets a Result with
// standalone-equivalent accounting (volumes, Breakdown, SimSeconds bit-
// identical to what Run would report), so simulated seconds stay comparable
// across execution strategies; the physical saving is reported separately.
//
// Fault semantics: a read failure during the shared split phase is charged
// to the first consumer (the job whose Run would have hit it) and retried
// against its MaxAttempts budget — matching a standalone run under the same
// fault plan. Task-level faults fire inside each consumer's own pipeline
// exactly as they would standalone, because task addressing (job name,
// phase, task/shard index) is unchanged. A consumer pipeline failure
// retries that consumer's pipeline only, re-running it from the in-memory
// splits; the retry is priced as if the inputs had been re-read (standalone
// equivalence) even though no physical re-read happens.
//
// Consumers run their compiled kernels (Job.BatchMapFactory, and the
// reduce-side Combine and Reduce kernels) over the shared splits
// exactly as a standalone run would: splits are read-only to map tasks, and
// reduce partitions are private per consumer, so one consumer's execution
// never leaks into another's.
//
// RunSharedScan does not publish metrics; callers decide attribution and
// use RecordJob. Returned relations parallel Results. On failure Results
// still reports every consumer that ran, the failed one last — a split
// phase that exhausts its attempts reports the primary, priced as the
// failed standalone run.
func (e *Engine) RunSharedScan(consumers []*Job) ([]*data.Relation, *SharedScanResult, error) {
	if len(consumers) == 0 {
		return nil, nil, errors.New("mr: shared scan with no consumers")
	}
	primary := consumers[0]
	for _, job := range consumers {
		if err := validateJob(job); err != nil {
			return nil, nil, err
		}
	}
	for _, job := range consumers[1:] {
		if len(job.Inputs) != len(primary.Inputs) {
			return nil, nil, fmt.Errorf("mr: shared scan: job %q reads %d inputs, %q reads %d",
				job.Name, len(job.Inputs), primary.Name, len(primary.Inputs))
		}
		for i := range job.Inputs {
			if job.Inputs[i] != primary.Inputs[i] {
				return nil, nil, fmt.Errorf("mr: shared scan: job %q input %d is %q, %q reads %q",
					job.Name, i, job.Inputs[i], primary.Name, primary.Inputs[i])
			}
		}
	}
	attempts := e.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	start := time.Now()

	// Shared split phase: one read of the common inputs serves every
	// consumer. Failures are priced and retried as a standalone run of the
	// primary consumer would — same formula, same budget — so its Result
	// stays bit-identical to sequential execution under read-fault plans.
	var (
		splits []mapSplit
		scan   Result
		st     retryState
	)
	for attempt := 1; ; attempt++ {
		r := &Result{Job: primary.Name}
		sp, err := e.splitInputs(primary, r)
		if err == nil {
			splits = sp
			scan = *r
			st.attemptsUsed = attempt - 1
			break
		}
		if attempt >= attempts {
			r.Attempts, r.RecoveredError = attempt, st.recovered
			r.WastedSeconds, r.SimSeconds, r.RetriedInputBytes = st.wasted, st.wasted, st.retriedIn
			return nil, &SharedScanResult{Results: []*Result{r}}, err
		}
		st.wasted += e.jobCost(primary, r).Total()
		st.retriedIn += r.InputBytes
		st.recovered = err.Error()
	}

	out := &SharedScanResult{
		ScanBytes:    scan.InputBytes,
		ScanRows:     scan.InputRows,
		SavedBytes:   int64(len(consumers)-1) * scan.InputBytes,
		SavedSeconds: e.Params.SharedScanSavings(scan.InputBytes, len(consumers)),
	}

	rels := make([]*data.Relation, 0, len(consumers))
	for ci, job := range consumers {
		pre := retryState{}
		if ci == 0 {
			pre = st
		}
		root := e.Obs.StartSpan(job.Name, "job")
		rel, res, err := e.retryLoop(job, root, pre, func(res *Result, sp *obs.Span, prior float64) (*data.Relation, error) {
			return e.runSharedAttempt(job, res, &scan, splits, sp, prior)
		})
		root.AddSim(res.SimSeconds)
		root.End()
		out.Results = append(out.Results, res)
		if err != nil {
			return nil, out, err
		}
		rels = append(rels, rel)
	}
	out.WallSeconds = time.Since(start).Seconds()
	return rels, out, nil
}

// runSharedAttempt is one pipeline attempt of a shared-scan consumer: the
// shared read's volumes are charged to the attempt (standalone equivalence)
// and the pipeline runs from the shared splits. Panics in user code become
// errors, like runAttempt.
func (e *Engine) runSharedAttempt(job *Job, res *Result, scan *Result, splits []mapSplit, sp *obs.Span, prior float64) (rel *data.Relation, err error) {
	defer func() {
		if r := recover(); r != nil {
			rel = nil
			err = fmt.Errorf("mr: job %q failed: %w", job.Name, panicError(r))
		}
	}()
	res.InputBytes = scan.InputBytes
	res.InputRows = scan.InputRows
	ssp := sp.Child("split")
	ssp.AddSim(float64(res.InputBytes) / e.Params.ReadRate)
	ssp.End()
	return e.executeFromSplits(job, res, splits, sp, prior)
}
