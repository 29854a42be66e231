package fault

import "sync"

// Injector is the runtime face of a Plan: the engine and the store ask it
// "does a fault fire here?" at every injection point. Task-fault matching
// is stateless (address + attempt number), so concurrent task execution
// order cannot change what fires; read-error matching consumes a bounded
// per-fault budget under a lock, which stays deterministic because the
// engine reads job inputs serially.
type Injector struct {
	plan   *Plan
	shards int

	mu             sync.Mutex
	readsRemaining []int          // per plan-entry budget for read_error faults
	fired          map[Kind]int64 // observability: how many injections fired
}

// NewInjector builds an injector for a validated plan. A nil plan yields a
// nil injector, which never fires (all methods are nil-safe).
func NewInjector(p *Plan) *Injector {
	if p == nil {
		return nil
	}
	shards := p.VirtualShards
	if shards == 0 {
		shards = DefaultVirtualShards
	}
	in := &Injector{
		plan:           p,
		shards:         shards,
		readsRemaining: make([]int, len(p.Faults)),
		fired:          make(map[Kind]int64),
	}
	for i, f := range p.Faults {
		if f.Kind == KindReadError {
			in.readsRemaining[i] = f.FailReads
		}
	}
	return in
}

// Shard maps a reduce group key into this plan's virtual shard space.
func (in *Injector) Shard(key string) int {
	if in == nil {
		return 0
	}
	return Shard(key, in.shards)
}

// Shards is the size of this plan's virtual shard space: the number of
// reduce tasks a job has under it.
func (in *Injector) Shards() int {
	if in == nil {
		return 1
	}
	return in.shards
}

func (in *Injector) matchTask(f Fault, job string, phase Phase, task int) bool {
	if f.Job != "" && f.Job != job {
		return false
	}
	return f.Phase == phase && f.Task == task
}

// TaskFailure reports the scripted failure (panic or corruption) for this
// task attempt, or nil. Attempts are 1-based; a fault with FailAttempts=N
// fails attempts 1..N.
func (in *Injector) TaskFailure(job string, phase Phase, task, attempt int) *Fired {
	if in == nil {
		return nil
	}
	for _, f := range in.plan.Faults {
		if f.Kind != KindPanic && f.Kind != KindCorrupt {
			continue
		}
		if !in.matchTask(f, job, phase, task) || attempt > f.FailAttempts {
			continue
		}
		fd := &Fired{Fault: f, Attempt: attempt}
		fd.Fault.Job = job
		in.count(f.Kind)
		return fd
	}
	return nil
}

// Slowdown returns the straggler factor scripted for this task (0 when the
// task runs at full speed).
func (in *Injector) Slowdown(job string, phase Phase, task int) float64 {
	if in == nil {
		return 0
	}
	for _, f := range in.plan.Faults {
		if f.Kind == KindStraggler && in.matchTask(f, job, phase, task) {
			in.count(KindStraggler)
			return f.Factor
		}
	}
	return 0
}

// ReadError implements the storage layer's read-fault hook: it fails the
// first FailReads reads of each scripted dataset.
func (in *Injector) ReadError(name string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, f := range in.plan.Faults {
		if f.Kind != KindReadError || f.Dataset != name || in.readsRemaining[i] <= 0 {
			continue
		}
		in.readsRemaining[i]--
		in.fired[KindReadError]++
		return &Fired{Fault: f, Attempt: f.FailReads - in.readsRemaining[i]}
	}
	return nil
}

// PendingReadFaults reports how many scripted read errors are still armed.
// The batch executor serializes execution while this is nonzero so the
// read-error budget is consumed in the exact dataset-read order sequential
// execution would produce; once it reaches zero, reads can no longer fault
// and inter-job parallelism is safe.
func (in *Injector) PendingReadFaults() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, r := range in.readsRemaining {
		n += r
	}
	return n
}

func (in *Injector) count(k Kind) {
	in.mu.Lock()
	in.fired[k]++
	in.mu.Unlock()
}

// FiredCounts snapshots how many injections of each kind have fired.
func (in *Injector) FiredCounts() map[Kind]int64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Kind]int64, len(in.fired))
	for k, v := range in.fired {
		out[k] = v
	}
	return out
}
