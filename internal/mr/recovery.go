package mr

import (
	"errors"
	"fmt"
	"math"

	"opportune/internal/fault"
)

// ErrDeadlineExceeded marks a job aborted by Engine.DeadlineSimSeconds.
// Run does not retry past it; the returned Result carries the partial
// volumes and the waste accrued up to the abort.
var ErrDeadlineExceeded = errors.New("simulated deadline exceeded")

// FaultWaste itemizes the simulated seconds a job lost to task-level
// recovery. Every component is WastedSeconds money: Breakdown stays the
// pure volume-priced cost of the successful execution, and
// Breakdown.Total() + WastedSeconds == SimSeconds keeps holding under
// injected faults.
type FaultWaste struct {
	// TaskRetrySeconds is the nominal cost of task attempts that died and
	// were re-executed (the dead attempt's work, not the retry's — the
	// retry's cost is the task's nominal cost, already in Breakdown).
	TaskRetrySeconds float64
	// BackoffSeconds is the exponential simulated-time backoff spent
	// between task attempts.
	BackoffSeconds float64
	// StragglerSeconds is the extra time straggling tasks ran beyond their
	// nominal cost (when the straggler finished first or speculation was
	// off).
	StragglerSeconds float64
	// SpeculationSeconds is the work burned by speculative execution: the
	// killed loser's run, whichever copy lost.
	SpeculationSeconds float64
}

// Total sums the components.
func (w FaultWaste) Total() float64 {
	return w.TaskRetrySeconds + w.BackoffSeconds + w.StragglerSeconds + w.SpeculationSeconds
}

func (w FaultWaste) add(o FaultWaste) FaultWaste {
	return FaultWaste{
		TaskRetrySeconds:   w.TaskRetrySeconds + o.TaskRetrySeconds,
		BackoffSeconds:     w.BackoffSeconds + o.BackoffSeconds,
		StragglerSeconds:   w.StragglerSeconds + o.StragglerSeconds,
		SpeculationSeconds: w.SpeculationSeconds + o.SpeculationSeconds,
	}
}

// Recovery is what a run recovered from: task-level tallies (zero without
// an injected fault plan) and the last error. TaskRetries counts task
// attempts that died and were retried in place; Straggler/Speculative tasks
// count scripted slowdowns and the speculative copies raced against them
// (SpeculativeWins: races the copy won). Task recovery is priced, not
// replayed: every task runs once, so recovery moves no extra bytes — its
// cost is pure simulated time, itemized in Faults. RecoveredError is the
// message of the last failure recovered from (task-level or whole-job), ""
// for a clean run; chaos tests assert on it to prove which fault fired.
type Recovery struct {
	TaskRetries      int
	StragglerTasks   int
	SpeculativeTasks int
	SpeculativeWins  int
	Faults           FaultWaste
	RecoveredError   string
}

// add folds a later recovery record into r: one task's into its job's, in
// task order, or one attempt's into the run's.
func (r *Recovery) add(o Recovery) {
	r.Faults = r.Faults.add(o.Faults)
	r.TaskRetries += o.TaskRetries
	r.StragglerTasks += o.StragglerTasks
	r.SpeculativeTasks += o.SpeculativeTasks
	r.SpeculativeWins += o.SpeculativeWins
	if o.RecoveredError != "" {
		r.RecoveredError = o.RecoveredError
	}
}

// taskMaxAttempts resolves the per-task retry budget.
func (e *Engine) taskMaxAttempts() int {
	if e.TaskMaxAttempts > 0 {
		return e.TaskMaxAttempts
	}
	return 4
}

// backoff is the simulated wait before retrying a task after its n-th
// failed attempt (1-based): Base × Factor^(n-1).
func (e *Engine) backoff(attempt int) float64 {
	factor := e.Params.TaskBackoffFactor
	if factor <= 0 {
		factor = 1
	}
	return e.Params.TaskBackoffBase * math.Pow(factor, float64(attempt-1))
}

// priceMapTasks prices the scripted recovery of every map task, in split
// order: a task's nominal cost is its split's share of the input read plus
// its map CPU — the task-granular decomposition of Breakdown.Cm.
func (e *Engine) priceMapTasks(job *Job, res *Result, splits []mapSplit) error {
	return e.priceTasks(job, res, fault.PhaseMap, len(splits), func(i int) float64 {
		var bytes int64
		for _, r := range splits[i].rows {
			bytes += int64(r.EncodedSize())
		}
		return float64(bytes)/e.Params.ReadRate + e.Params.FnsSeconds(job.MapCost, int64(len(splits[i].rows)))
	})
}

// priceReduceTasks prices the scripted recovery of every reduce task. A
// reduce task is a virtual shard — the records whose key fault.Shard maps
// to it — so its volume, and its price, is the same at any ReduceTasks: its
// share of sort/transfer plus its reduce CPU, the task-granular
// decomposition of Cs+Ct+Cr. It reads the map outputs before the shuffle
// routes them; an empty shard is no task and is not priced.
func (e *Engine) priceReduceTasks(job *Job, res *Result, tasks []mapTaskOut) error {
	bytes := make([]int64, e.Faults.Shards())
	rows := make([]int64, len(bytes))
	for i := range tasks {
		for _, kr := range tasks[i].out {
			s := e.Faults.Shard(kr.Key)
			bytes[s] += int64(kr.Row.EncodedSize() + len(kr.Key))
			rows[s]++
		}
	}
	return e.priceTasks(job, res, fault.PhaseReduce, len(bytes), func(s int) float64 {
		if rows[s] == 0 {
			return -1
		}
		return float64(bytes[s])*e.Params.SortFactor + float64(bytes[s])/e.Params.ShuffleRate +
			e.Params.FnsSeconds(job.ReduceCost, rows[s])
	})
}

// priceTasks prices the scripted recovery of tasks 0..n-1 of one phase, in
// task order, into res; nominal gives a task's simulated cost, negative for
// a task that does not exist. Nothing is replayed: every task already ran
// once, and a retry or a speculative copy of a deterministic task would
// reproduce the output that run produced, so recovery is arithmetic on the
// nominal cost. Injected failures (panics and corrupted outputs) are
// retried up to the task budget with exponential simulated backoff, each
// dead attempt's nominal cost charged as waste; a task whose scripted
// failures outlast the budget fails the attempt, and the lowest such task's
// error is returned (the job level may still retry from durable inputs).
// A task that succeeds pays its scripted straggler slowdown, if any.
func (e *Engine) priceTasks(job *Job, res *Result, phase fault.Phase, n int, nominal func(task int) float64) error {
	var first error
	for task := 0; task < n; task++ {
		c := nominal(task)
		if c < 0 {
			continue
		}
		var rec Recovery
		for attempt := 1; ; attempt++ {
			fd := e.Faults.TaskFailure(job.Name, phase, task, attempt)
			if fd == nil {
				e.applyStraggler(job.Name, phase, task, c, &rec)
				break
			}
			rec.RecoveredError = fd.Error()
			if attempt >= e.taskMaxAttempts() {
				if first == nil {
					first = fd
				}
				break
			}
			rec.TaskRetries++
			rec.Faults.TaskRetrySeconds += c
			rec.Faults.BackoffSeconds += e.backoff(attempt)
		}
		res.Recovery.add(rec)
	}
	return first
}

// applyStraggler charges a task's scripted slowdown and, when it crosses
// the speculation threshold, races a speculative copy against it — all in
// simulated time, so the outcome is scripted arithmetic, not a wall-clock
// race. Timeline from task start, nominal cost C, slowdown F, copy launch
// lag L = SpeculationLagFactor × C:
//
//	straggler finishes at F·C, the copy at L+C; first finisher wins and
//	the loser is killed when the winner commits. Either way exactly one
//	nominal C lands in Breakdown; everything else is waste.
func (e *Engine) applyStraggler(jobName string, phase fault.Phase, task int, nominal float64, rec *Recovery) {
	f := e.Faults.Slowdown(jobName, phase, task)
	if f <= 1 {
		return
	}
	rec.StragglerTasks++
	if e.DisableSpeculation || f < e.Params.SpeculationThreshold {
		rec.Faults.StragglerSeconds += (f - 1) * nominal
		return
	}
	rec.SpeculativeTasks++
	lag := e.Params.SpeculationLagFactor * nominal
	if f*nominal <= lag+nominal {
		// Straggler wins: pay its slowdown; the copy burned from launch to
		// the straggler's commit.
		rec.Faults.StragglerSeconds += (f - 1) * nominal
		if burned := f*nominal - lag; burned > 0 {
			rec.Faults.SpeculationSeconds += burned
		}
	} else {
		// Copy wins: its nominal run is the Breakdown cost; the straggler
		// ran from 0 until the copy committed at lag+nominal, all wasted.
		rec.SpeculativeWins++
		rec.Faults.SpeculationSeconds += lag + nominal
	}
}

// deadlineCheck enforces the job's simulated-time deadline at a phase
// boundary. prior is waste carried from earlier job attempts; accrued is
// the current attempt's phase sim so far. Boundaries are R- and Workers-
// independent points, so a deadline abort happens at the same place with
// the same partial accounting at any parallelism.
func (e *Engine) deadlineCheck(job *Job, res *Result, prior, accrued float64) error {
	if e.DeadlineSimSeconds <= 0 {
		return nil
	}
	total := prior + res.Faults.Total() + accrued
	if total <= e.DeadlineSimSeconds {
		return nil
	}
	return fmt.Errorf("mr: job %q: %w: %.3f sim-seconds accrued against deadline %.3f",
		job.Name, ErrDeadlineExceeded, total, e.DeadlineSimSeconds)
}
