package mr

import (
	"reflect"
	"testing"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/fault"
	"opportune/internal/obs"
)

// groupChaosPlan scripts one of every fault kind against the grouping job:
// panics, corruption, and a straggler on the map side; panics and a
// straggler on reduce virtual shards (500 group keys over 64 shards, so
// every shard is populated); one failed read of the input dataset. All
// budgets are survivable (fail_attempts under the task retry budget of 4,
// the read error under the job retry budget), so the run must recover.
func groupChaosPlan() *fault.Plan {
	return &fault.Plan{Seed: 2026, Faults: []fault.Fault{
		{Phase: fault.PhaseMap, Task: 0, Kind: fault.KindPanic, FailAttempts: 2},
		{Phase: fault.PhaseMap, Task: 1, Kind: fault.KindCorrupt, FailAttempts: 1},
		{Phase: fault.PhaseMap, Task: 2, Kind: fault.KindStraggler, Factor: 6},
		{Phase: fault.PhaseReduce, Task: 11, Kind: fault.KindPanic, FailAttempts: 1},
		{Phase: fault.PhaseReduce, Task: 29, Kind: fault.KindStraggler, Factor: 5},
		{Phase: fault.PhaseReduce, Task: 47, Kind: fault.KindPanic, FailAttempts: 2},
		{Kind: fault.KindReadError, Dataset: "bench_in", FailReads: 1},
	}}
}

// groupOutcome is everything the engine-level differential contract covers:
// the output relation (fingerprint plus the raw rows, for byte-identity)
// and the full obs counter maps, which include every sim-second total.
type groupOutcome struct {
	fp   uint64
	rows int
	snap obs.Snapshot
	rel  *data.Relation
}

// runGroupJob executes the shuffle/group benchmark job — the path that
// exercises the pooled per-partition grouper and the k-way reduce-output
// merge — at the given parallelism, optionally under the fault plan.
func runGroupJob(t *testing.T, plan *fault.Plan, workers, reduceTasks int) groupOutcome {
	t.Helper()
	const rows, groups = 6000, 500
	st, schema := benchInput(rows, groups)
	params := cost.DefaultParams()
	params.SplitRows = 1024 // six map tasks, so the map-side faults all land
	params.ReduceTasks = reduceTasks
	e := New(st, params)
	e.Workers = workers
	e.MaxAttempts = 3
	reg := obs.NewRegistry()
	e.Obs = reg
	st.SetObs(reg)
	if plan != nil {
		if err := plan.Validate(); err != nil {
			t.Fatal(err)
		}
		e.Faults = fault.NewInjector(plan)
		st.SetFaults(e.Faults)
	}
	rel, _, err := runRecorded(e, benchGroupJob(schema, rows, groups))
	if err != nil {
		t.Fatalf("workers=%d R=%d: %v", workers, reduceTasks, err)
	}
	// Snapshot before touching the relation so inspection cannot perturb
	// the storage counters being compared.
	snap := reg.Snapshot()
	out := groupOutcome{fp: rel.Fingerprint(), rows: len(rel.Rows()), snap: snap, rel: rel}
	return out
}

// TestShuffleGroupDifferential is the data-plane differential oracle for
// the allocation-lean hot path: the k-way merge and the pooled grouping
// must produce byte-identical relations and identical obs counter maps at
// every Workers ∈ {1,4,8} × ReduceTasks ∈ {1,3} point — against the serial
// W=1,R=1 run, both fault-free and under the chaos plan.
func TestShuffleGroupDifferential(t *testing.T) {
	grid := []struct{ w, r int }{{1, 1}, {1, 3}, {4, 1}, {4, 3}, {8, 1}, {8, 3}}
	for _, tc := range []struct {
		name string
		plan *fault.Plan
	}{
		{name: "fault-free", plan: nil},
		{name: "chaos", plan: groupChaosPlan()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := runGroupJob(t, tc.plan, 1, 1)
			if ref.rows == 0 {
				t.Fatal("reference run produced no rows")
			}
			if tc.plan != nil {
				// The plan actually fired: recovery was exercised.
				if ref.snap.Counters["mr_task_retries_total"] == 0 {
					t.Error("chaos plan injected no task retries")
				}
			}
			for _, g := range grid[1:] {
				got := runGroupJob(t, tc.plan, g.w, g.r)
				if got.fp != ref.fp || got.rows != ref.rows {
					t.Errorf("W=%d R=%d: relation fingerprint %d (%d rows), want %d (%d rows)",
						g.w, g.r, got.fp, got.rows, ref.fp, ref.rows)
				}
				if !got.rel.Equal(ref.rel) {
					t.Errorf("W=%d R=%d: relation rows differ from serial run", g.w, g.r)
				}
				if !reflect.DeepEqual(got.snap.Counters, ref.snap.Counters) {
					t.Errorf("W=%d R=%d: counters differ\n got %v\nwant %v",
						g.w, g.r, got.snap.Counters, ref.snap.Counters)
				}
				if !reflect.DeepEqual(got.snap.FloatCounters, ref.snap.FloatCounters) {
					t.Errorf("W=%d R=%d: float counters (sim seconds) differ\n got %v\nwant %v",
						g.w, g.r, got.snap.FloatCounters, ref.snap.FloatCounters)
				}
			}
		})
	}
	// The chaos run converges to the fault-free rows as well: recovery is
	// invisible in the output.
	clean := runGroupJob(t, nil, 1, 1)
	chaos := runGroupJob(t, groupChaosPlan(), 1, 1)
	if clean.fp != chaos.fp {
		t.Errorf("chaos output fingerprint %d differs from fault-free %d", chaos.fp, clean.fp)
	}
}
