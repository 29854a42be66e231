// Package fault is a seeded, deterministic fault-injection subsystem for
// the simulated cluster: a Plan of scripted faults — task panics, straggler
// slowdowns, storage read errors, corrupted intermediate task outputs, all
// addressed by job/phase/task index — that the MR engine and the store
// consult during execution.
//
// Determinism rules (what makes chaos testing reproducible):
//
//   - Task faults are matched statelessly by address (job, phase, task,
//     attempt), never by wall-clock or goroutine schedule, so the same plan
//     fires the same faults at any Workers/ReduceTasks setting.
//   - Map tasks are addressed by their global split index, which depends
//     only on cost.Params.SplitRows — never on the worker pool.
//   - A reduce task is a *virtual shard*: the groups whose key hashes to
//     it (fnv32a(key) mod VirtualShards). A reduce fault fails or slows the
//     whole shard, and the shard's volume is the same at any actual reduce
//     partition count R.
//   - Read errors are addressed by dataset name with a bounded failure
//     count, consumed in the engine's serial input-read order.
//
// The currency of every fault is *simulated* seconds: slowdowns, retries,
// and backoff are charged to the job's accounting (WastedSeconds), so
// metrics stay byte-identical across parallelism settings and real
// wall-clock never leaks into results. Task faults are priced, not
// replayed: the engine runs every task once and charges the attempts a
// plan kills or slows as arithmetic on the task's nominal cost.
package fault

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
)

// Kind enumerates the fault taxonomy.
type Kind string

const (
	// KindPanic makes a task attempt die mid-execution (a UDF process
	// crash or a lost machine in Hadoop terms).
	KindPanic Kind = "panic"
	// KindCorrupt corrupts a map task's intermediate output; the
	// corruption is detected at shuffle ingest and the attempt is charged
	// like a dead one.
	KindCorrupt Kind = "corrupt"
	// KindStraggler slows a task by Factor without failing it.
	KindStraggler Kind = "straggler"
	// KindReadError fails storage reads of a dataset.
	KindReadError Kind = "read_error"
)

// Phase addresses which side of a job a task fault applies to.
type Phase string

const (
	// PhaseMap addresses map tasks (Task = global split index).
	PhaseMap Phase = "map"
	// PhaseReduce addresses reduce tasks (Task = virtual key shard).
	PhaseReduce Phase = "reduce"
)

// DefaultVirtualShards is the reduce-side address space: group keys are
// hashed into this many virtual shards so reduce faults address the same
// keys at any ReduceTasks setting.
const DefaultVirtualShards = 64

// Fault is one scripted fault.
type Fault struct {
	// Job restricts the fault to jobs with this exact name; empty matches
	// every job (useful when plans target workloads whose materialization
	// names are derived at run time).
	Job   string `json:"job,omitempty"`
	Phase Phase  `json:"phase,omitempty"`
	// Task addresses the map split index or reduce virtual shard.
	Task int  `json:"task"`
	Kind Kind `json:"kind"`

	// FailAttempts makes panic/corrupt faults fail task attempts 1..N;
	// the task succeeds on attempt N+1 (if the engine's per-task retry
	// budget allows one).
	FailAttempts int `json:"fail_attempts,omitempty"`

	// Factor is the straggler slowdown multiplier (> 1).
	Factor float64 `json:"factor,omitempty"`

	// Dataset and FailReads script read errors: the first FailReads
	// storage reads of Dataset fail.
	Dataset   string `json:"dataset,omitempty"`
	FailReads int    `json:"fail_reads,omitempty"`
}

// Plan is a scripted fault schedule. Plans are pure data: loading the same
// plan always injects the same faults.
type Plan struct {
	// Seed identifies the plan (generated plans record their seed so a
	// failing chaos run can be reproduced exactly).
	Seed int64 `json:"seed"`
	// VirtualShards overrides the reduce-side address space (default
	// DefaultVirtualShards).
	VirtualShards int     `json:"virtual_shards,omitempty"`
	Faults        []Fault `json:"faults"`
}

// Validate checks every fault is well-formed.
func (p *Plan) Validate() error {
	if p.VirtualShards < 0 {
		return fmt.Errorf("fault: negative virtual_shards %d", p.VirtualShards)
	}
	for i, f := range p.Faults {
		at := func(format string, args ...interface{}) error {
			return fmt.Errorf("fault: plan entry %d: %s", i, fmt.Sprintf(format, args...))
		}
		switch f.Kind {
		case KindPanic, KindCorrupt:
			if f.Phase != PhaseMap && f.Phase != PhaseReduce {
				return at("%s fault needs phase map or reduce, got %q", f.Kind, f.Phase)
			}
			if f.Task < 0 {
				return at("negative task index %d", f.Task)
			}
			if f.FailAttempts < 1 {
				return at("%s fault needs fail_attempts >= 1", f.Kind)
			}
			if f.Kind == KindCorrupt && f.Phase != PhaseMap {
				return at("corrupt faults address map task outputs only")
			}
		case KindStraggler:
			if f.Phase != PhaseMap && f.Phase != PhaseReduce {
				return at("straggler fault needs phase map or reduce, got %q", f.Phase)
			}
			if f.Task < 0 {
				return at("negative task index %d", f.Task)
			}
			if f.Factor <= 1 {
				return at("straggler factor %g must be > 1", f.Factor)
			}
		case KindReadError:
			if f.Dataset == "" {
				return at("read_error fault needs a dataset")
			}
			if f.FailReads < 1 {
				return at("read_error fault needs fail_reads >= 1")
			}
		default:
			return at("unknown kind %q", f.Kind)
		}
	}
	return nil
}

// Parse decodes and validates a JSON plan.
func Parse(raw []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("fault: malformed plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Load reads a plan from a JSON file.
func Load(path string) (*Plan, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	return Parse(raw)
}

// JSON renders the plan as indented JSON.
func (p *Plan) JSON() []byte {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		panic(err) // Plan contains only marshalable fields
	}
	return b
}

// Generate builds a reproducible random plan of n faults drawn from the
// full taxonomy, addressed with wildcard job names so they hit whatever
// jobs a workload runs. Read errors target the given datasets round-robin.
// The same (seed, n, datasets) always yields the same plan.
func Generate(seed int64, n int, datasets []string) *Plan {
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{Seed: seed}
	for i := 0; i < n; i++ {
		switch k := rng.Intn(4); {
		case k == 0:
			p.Faults = append(p.Faults, Fault{
				Phase: PhaseMap, Task: rng.Intn(4), Kind: KindPanic,
				FailAttempts: 1 + rng.Intn(2),
			})
		case k == 1:
			p.Faults = append(p.Faults, Fault{
				Phase: PhaseReduce, Task: rng.Intn(DefaultVirtualShards), Kind: KindPanic,
				FailAttempts: 1 + rng.Intn(2),
			})
		case k == 2:
			phase := PhaseMap
			if rng.Intn(2) == 1 {
				phase = PhaseReduce
			}
			task := rng.Intn(4)
			if phase == PhaseReduce {
				task = rng.Intn(DefaultVirtualShards)
			}
			p.Faults = append(p.Faults, Fault{
				Phase: phase, Task: task, Kind: KindStraggler,
				Factor: 4 + float64(rng.Intn(8)),
			})
		case len(datasets) > 0:
			p.Faults = append(p.Faults, Fault{
				Kind:    KindReadError,
				Dataset: datasets[i%len(datasets)], FailReads: 1 + rng.Intn(2),
			})
		default:
			p.Faults = append(p.Faults, Fault{
				Phase: PhaseMap, Task: rng.Intn(4), Kind: KindCorrupt, FailAttempts: 1,
			})
		}
	}
	return p
}

// Fired describes one fault occurrence; for panic/corrupt/read_error it is
// the error (and panic value) the injection raises, and its Error text is
// what recovered runs surface in Result.RecoveredError.
type Fired struct {
	Fault   Fault
	Attempt int
}

// Error renders the fault detail chaos tests assert on.
func (f *Fired) Error() string {
	switch f.Fault.Kind {
	case KindCorrupt:
		return fmt.Sprintf("injected corruption: %s task %d output (attempt %d, job %q)",
			f.Fault.Phase, f.Fault.Task, f.Attempt, f.Fault.Job)
	case KindReadError:
		return fmt.Sprintf("injected read error: dataset %q", f.Fault.Dataset)
	default:
		return fmt.Sprintf("injected %s: %s task %d attempt %d (job %q)",
			f.Fault.Kind, f.Fault.Phase, f.Fault.Task, f.Attempt, f.Fault.Job)
	}
}

// IsInjected reports whether an error (or wrapped chain) originated from
// fault injection — the engine recovers those at task granularity and lets
// genuine user-code failures escalate.
func IsInjected(err error) bool {
	var f *Fired
	return errors.As(err, &f)
}

// Shard maps a reduce group key into the plan's virtual shard space by
// 32-bit FNV-1a, inlined because the engine hashes every shuffle record of
// a job that runs under a plan.
func Shard(key string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(shards))
}
