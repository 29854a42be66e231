package experiments

import (
	"reflect"
	"testing"

	"opportune/internal/fault"
	"opportune/internal/obs"
	"opportune/internal/session"
	"opportune/internal/storage"
	"opportune/internal/workload"
)

// chaosPlan scripts one of every fault kind against the full workload.
// Wildcard job addressing makes the plan hit every job; the budgets are
// survivable by construction (panic/corrupt fail_attempts stay under the
// task retry budget of 4, each read error fires once against the job
// retry budget of 3), so every query must still succeed.
func chaosPlan() *fault.Plan {
	return &fault.Plan{Seed: 2026, Faults: []fault.Fault{
		{Phase: fault.PhaseMap, Task: 0, Kind: fault.KindPanic, FailAttempts: 2},
		{Phase: fault.PhaseMap, Task: 1, Kind: fault.KindCorrupt, FailAttempts: 1},
		{Phase: fault.PhaseMap, Task: 2, Kind: fault.KindStraggler, Factor: 6},
		{Phase: fault.PhaseReduce, Task: 11, Kind: fault.KindPanic, FailAttempts: 1},
		{Phase: fault.PhaseReduce, Task: 29, Kind: fault.KindStraggler, Factor: 5},
		{Phase: fault.PhaseReduce, Task: 47, Kind: fault.KindPanic, FailAttempts: 2},
		{Kind: fault.KindReadError, Dataset: "twtr", FailReads: 1},
		{Kind: fault.KindReadError, Dataset: "fsq", FailReads: 1},
		{Kind: fault.KindReadError, Dataset: "land", FailReads: 1},
	}}
}

// runChaosWorkload executes every workload query directly (ModeOriginal) at
// the given parallelism under the plan (nil = fault-free), returning each
// query's result fingerprint and the metrics snapshot. Fingerprints come
// from Store.Meta, which serves no bytes, so inspection never perturbs the
// counters being compared.
func runChaosWorkload(t *testing.T, plan *fault.Plan, workers, reduceTasks int) (map[string]uint64, obs.Snapshot) {
	t.Helper()
	cfg := QuickConfig()
	cfg.Workers = workers
	cfg.ReduceTasks = reduceTasks
	cfg.Obs = obs.NewRegistry()
	cfg.Faults = plan
	s, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fps := make(map[string]uint64)
	for _, q := range workload.AllQueries() {
		m, err := run(s, q, session.ModeOriginal)
		if err != nil {
			t.Fatalf("workers=%d R=%d: %s: %v", workers, reduceTasks, q.Name, err)
		}
		ds, ok := s.Store.Meta(m.ResultName)
		if !ok {
			t.Fatalf("%s: result %q not in store", q.Name, m.ResultName)
		}
		fps[q.Name] = ds.Relation().Fingerprint()
	}
	// Every materialization of the workload carries the size a fresh walk
	// over its rows gives, and the store accounts for exactly that.
	for _, kind := range []storage.Kind{storage.Base, storage.View} {
		for _, name := range s.Store.List(kind) {
			ds, _ := s.Store.Meta(name)
			var walk int64
			for _, r := range ds.Relation().Rows() {
				walk += int64(r.EncodedSize())
			}
			if got := ds.Relation().EncodedSize(); got != walk || ds.SizeBytes != walk {
				t.Errorf("%s: relation carries %d B, store accounts %d B, a walk says %d B", name, got, ds.SizeBytes, walk)
			}
		}
	}
	return fps, cfg.Obs.Snapshot()
}

// TestChaosDifferentialWorkload is the differential chaos harness: every
// workload query under the seeded fault plan must produce rows
// byte-identical to the fault-free run, across Workers ∈ {1,4,8} ×
// ReduceTasks ∈ {1,3}; and for the fixed plan, every sim-time counter must
// be identical at every parallelism setting (the PR 1 determinism
// guarantee extended to chaos).
func TestChaosDifferentialWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full workload 7 times")
	}
	clean, _ := runChaosWorkload(t, nil, 1, 1)
	plan := chaosPlan()
	refFPs, refSnap := runChaosWorkload(t, plan, 1, 1)

	if !reflect.DeepEqual(refFPs, clean) {
		t.Errorf("chaos run results differ from fault-free run:\n got %v\nwant %v", refFPs, clean)
	}
	// The plan actually fired: recovery counters are nonzero.
	for _, k := range []string{"mr_task_retries_total", "mr_straggler_tasks_total", "mr_speculative_tasks_total"} {
		if refSnap.Counters[k] <= 0 {
			t.Errorf("chaos run recorded no %s — plan did not fire", k)
		}
	}
	if refSnap.FloatCounters["mr_wasted_sim_seconds_total"] <= 0 {
		t.Error("chaos run charged no wasted sim-seconds")
	}

	for _, cfg := range []struct{ w, r int }{{1, 3}, {4, 1}, {4, 3}, {8, 1}, {8, 3}} {
		fps, snap := runChaosWorkload(t, plan, cfg.w, cfg.r)
		if !reflect.DeepEqual(fps, refFPs) {
			t.Errorf("workers=%d R=%d: chaos results differ from reference", cfg.w, cfg.r)
		}
		if !reflect.DeepEqual(snap.Counters, refSnap.Counters) {
			t.Errorf("workers=%d R=%d: counters differ under chaos\n got %v\nwant %v",
				cfg.w, cfg.r, snap.Counters, refSnap.Counters)
		}
		if !reflect.DeepEqual(snap.FloatCounters, refSnap.FloatCounters) {
			t.Errorf("workers=%d R=%d: float counters differ under chaos\n got %v\nwant %v",
				cfg.w, cfg.r, snap.FloatCounters, refSnap.FloatCounters)
		}
	}
}

// TestSpeculationReducesWorkloadSimSeconds lifts the speculation benefit to
// the experiments level: on a straggler-only plan, enabling speculative
// execution strictly reduces total simulated seconds for a real workload
// query, and results stay identical.
func TestSpeculationReducesWorkloadSimSeconds(t *testing.T) {
	plan := &fault.Plan{Seed: 7, Faults: []fault.Fault{
		{Phase: fault.PhaseMap, Task: 0, Kind: fault.KindStraggler, Factor: 8},
	}}
	run := func(disable bool) (float64, uint64) {
		cfg := QuickConfig()
		cfg.Obs = obs.NewRegistry()
		cfg.Faults = plan
		cfg.DisableSpeculation = disable
		s, err := newSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		q := workload.QueryFor(1, 1)
		m, err := run2(s, q)
		if err != nil {
			t.Fatal(err)
		}
		ds, ok := s.Store.Meta(m.ResultName)
		if !ok {
			t.Fatalf("result %q missing", m.ResultName)
		}
		return cfg.Obs.Snapshot().FloatCounters["mr_sim_seconds_total"], ds.Relation().Fingerprint()
	}
	specSim, specFP := run(false)
	noSpecSim, noSpecFP := run(true)
	if specSim <= 0 || noSpecSim <= 0 {
		t.Fatalf("no simulated time recorded: %g, %g", specSim, noSpecSim)
	}
	if specSim >= noSpecSim {
		t.Errorf("speculation did not strictly reduce workload SimSeconds: %g >= %g", specSim, noSpecSim)
	}
	if specFP != noSpecFP {
		t.Error("speculation changed query results")
	}
}

// run2 executes one query in ModeOriginal (helper keeps the closure above
// from shadowing the package-level run).
func run2(s *session.Session, q workload.Query) (*session.Metrics, error) {
	return run(s, q, session.ModeOriginal)
}
