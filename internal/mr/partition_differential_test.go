package mr

import (
	"math"
	"reflect"
	"testing"

	"opportune/internal/cost"
	"opportune/internal/fault"
	"opportune/internal/obs"
)

// partitionGrid is the parallelism grid of the shuffle-elimination oracle.
var partitionGrid = []struct{ w, r int }{{1, 1}, {1, 3}, {4, 1}, {4, 3}, {8, 1}, {8, 3}}

// runPartitionGroupJob executes the shuffle/group benchmark job with or
// without the partition-preserving path. With local=true the job declares
// its input hash-distributed over 32 buckets by the first shuffle-key
// column (a strict prefix of the two-column key), which is vacuously true:
// bucket membership is a pure function of the key value, so declaring it
// never changes what any group contains — the property this oracle proves.
func runPartitionGroupJob(t *testing.T, plan *fault.Plan, workers, reduceTasks int, local bool) groupOutcome {
	t.Helper()
	const rows, groups = 6000, 500
	st, schema := benchInput(rows, groups)
	params := cost.DefaultParams()
	params.SplitRows = 1024
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
	job := benchGroupJob(schema, rows, groups)
	if local {
		job.PartitionKeyCols = 1
		job.PartitionParts = 32
	}
	rel, _, err := runRecorded(e, job)
	if err != nil {
		t.Fatalf("local=%v workers=%d R=%d: %v", local, workers, reduceTasks, err)
	}
	snap := reg.Snapshot()
	out := groupOutcome{fp: rel.Fingerprint(), rows: len(rel.Rows()), snap: snap, rel: rel}
	return out
}

// partitionFamily is the only counter family allowed to differ between the
// shuffle-free and forced-shuffle runs of the same job.
var partitionFamily = []string{
	"mr_partition_local_jobs_total",
	"mr_partition_shuffle_jobs_total",
	"mr_shuffle_bytes_eliminated_total",
}

// stripPartitionFamily copies an integer counter map without the partition
// family keys.
func stripPartitionFamily(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	for _, k := range partitionFamily {
		delete(out, k)
	}
	return out
}

// TestPartitionShuffleEliminationOracle is the shuffle-elimination
// differential oracle: the partition-preserving execution path must be
// invisible everywhere except the transfer bill. For every point of the
// Workers × ReduceTasks grid, fault-free and under the chaos plan, it
// proves against the forced-shuffle run of the same job that
//
//   - the output relation is byte-identical (fingerprint and raw rows);
//   - every integer counter outside the documented partition family is
//     identical — same shuffle bytes/rows sorted and grouped, same retries,
//     same straggler/speculation behavior;
//   - the partition family deltas are pinned exactly: all shuffled bytes
//     count as eliminated (every key is well-formed), hits and misses flip
//     1↔0, and keyed jobs agree;
//   - the only float-counter deltas are the transfer term ct and its echo
//     in sim seconds, both exactly eliminated/ShuffleRate — recovery waste
//     is priced at full re-fetch cost in both modes, so every fault-waste
//     counter matches to the byte even under chaos.
func TestPartitionShuffleEliminationOracle(t *testing.T) {
	shuffleRate := cost.DefaultParams().ShuffleRate
	for _, tc := range []struct {
		name string
		plan *fault.Plan
	}{
		{name: "fault-free", plan: nil},
		{name: "chaos", plan: groupChaosPlan()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Serial references for both modes; each mode must also be
			// self-consistent across the whole grid.
			refShuffle := runPartitionGroupJob(t, tc.plan, 1, 1, false)
			refLocal := runPartitionGroupJob(t, tc.plan, 1, 1, true)
			if refShuffle.rows == 0 {
				t.Fatal("reference run produced no rows")
			}
			if tc.plan != nil && refLocal.snap.Counters["mr_task_retries_total"] == 0 {
				t.Error("chaos plan injected no task retries on the partition-local path")
			}
			for _, g := range partitionGrid {
				shuf := runPartitionGroupJob(t, tc.plan, g.w, g.r, false)
				loc := runPartitionGroupJob(t, tc.plan, g.w, g.r, true)

				// Byte-identity of the data plane, across modes and against
				// the serial references.
				if loc.fp != shuf.fp || loc.rows != shuf.rows || loc.fp != refShuffle.fp {
					t.Errorf("W=%d R=%d: fingerprints diverge: local %d (%d rows), shuffle %d (%d rows), ref %d",
						g.w, g.r, loc.fp, loc.rows, shuf.fp, shuf.rows, refShuffle.fp)
				}
				if !loc.rel.Equal(shuf.rel) {
					t.Errorf("W=%d R=%d: relation rows differ between shuffle-free and forced-shuffle", g.w, g.r)
				}

				// Grid self-consistency within each mode: full counter-map
				// equality against that mode's serial run.
				if !reflect.DeepEqual(loc.snap.Counters, refLocal.snap.Counters) {
					t.Errorf("W=%d R=%d: partition-local counters differ from serial partition-local run\n got %v\nwant %v",
						g.w, g.r, loc.snap.Counters, refLocal.snap.Counters)
				}
				if !reflect.DeepEqual(loc.snap.FloatCounters, refLocal.snap.FloatCounters) {
					t.Errorf("W=%d R=%d: partition-local float counters differ from serial partition-local run\n got %v\nwant %v",
						g.w, g.r, loc.snap.FloatCounters, refLocal.snap.FloatCounters)
				}

				// Cross-mode counter equality outside the partition family.
				if got, want := stripPartitionFamily(loc.snap.Counters), stripPartitionFamily(shuf.snap.Counters); !reflect.DeepEqual(got, want) {
					t.Errorf("W=%d R=%d: counters differ beyond the partition family\n got %v\nwant %v", g.w, g.r, got, want)
				}

				// Pinned partition-family deltas.
				shuffled := shuf.snap.Counters["mr_shuffle_bytes_total"]
				if el := loc.snap.Counters["mr_shuffle_bytes_eliminated_total"]; el != shuffled {
					t.Errorf("W=%d R=%d: eliminated %d bytes, want all %d shuffled bytes", g.w, g.r, el, shuffled)
				}
				if el := shuf.snap.Counters["mr_shuffle_bytes_eliminated_total"]; el != 0 {
					t.Errorf("W=%d R=%d: forced-shuffle run eliminated %d bytes", g.w, g.r, el)
				}
				for name, want := range map[string]int64{
					"mr_keyed_jobs_total":             1,
					"mr_partition_local_jobs_total":   1,
					"mr_partition_shuffle_jobs_total": 0,
				} {
					if got := loc.snap.Counters[name]; got != want {
						t.Errorf("W=%d R=%d: local run %s = %d, want %d", g.w, g.r, name, got, want)
					}
				}
				for name, want := range map[string]int64{
					"mr_keyed_jobs_total":             1,
					"mr_partition_local_jobs_total":   0,
					"mr_partition_shuffle_jobs_total": 1,
				} {
					if got := shuf.snap.Counters[name]; got != want {
						t.Errorf("W=%d R=%d: shuffle run %s = %d, want %d", g.w, g.r, name, got, want)
					}
				}

				// Float counters: identical except ct and sim seconds, whose
				// deltas are exactly the eliminated transfer.
				ctKey := "mr_breakdown_seconds_total{component=ct}"
				simKey := "mr_sim_seconds_total"
				wantDelta := float64(shuffled) / shuffleRate
				ctDelta := shuf.snap.FloatCounters[ctKey] - loc.snap.FloatCounters[ctKey]
				if ctDelta != wantDelta {
					t.Errorf("W=%d R=%d: ct delta %v, want exactly %v", g.w, g.r, ctDelta, wantDelta)
				}
				simDelta := shuf.snap.FloatCounters[simKey] - loc.snap.FloatCounters[simKey]
				if math.Abs(simDelta-wantDelta) > 1e-9*math.Max(1, shuf.snap.FloatCounters[simKey]) {
					t.Errorf("W=%d R=%d: sim-seconds delta %v, want %v", g.w, g.r, simDelta, wantDelta)
				}
				for k, sv := range shuf.snap.FloatCounters {
					if k == ctKey || k == simKey {
						continue
					}
					if lv, ok := loc.snap.FloatCounters[k]; !ok || lv != sv {
						t.Errorf("W=%d R=%d: float counter %s differs: local %v, shuffle %v", g.w, g.r, k, lv, sv)
					}
				}
				for k := range loc.snap.FloatCounters {
					if _, ok := shuf.snap.FloatCounters[k]; !ok {
						t.Errorf("W=%d R=%d: float counter %s only present on the local run", g.w, g.r, k)
					}
				}
			}
		})
	}
}

// TestPartitionFallbackOnShortKey proves the safety net: a job whose
// declared layout prefix is longer than any actual key falls back to full-
// key routing for every record — zero bytes eliminated, yet the partition
// "hit" flag still reflects the declared (attempted) path, and the output
// stays byte-identical to the forced-shuffle run.
func TestPartitionFallbackOnShortKey(t *testing.T) {
	run := func(keyCols int) groupOutcome {
		t.Helper()
		const rows, groups = 3000, 200
		st, schema := benchInput(rows, groups)
		params := cost.DefaultParams()
		params.SplitRows = 1024
		params.ReduceTasks = 3
		e := New(st, params)
		e.Workers = 4
		reg := obs.NewRegistry()
		e.Obs = reg
		st.SetObs(reg)
		job := benchGroupJob(schema, rows, groups)
		job.PartitionKeyCols = keyCols
		if keyCols > 0 {
			job.PartitionParts = 32
		}
		rel, _, err := runRecorded(e, job)
		if err != nil {
			t.Fatal(err)
		}
		return groupOutcome{fp: rel.Fingerprint(), rows: len(rel.Rows()), snap: reg.Snapshot()}
	}
	// The benchmark key encodes two columns; declaring a 3-column prefix
	// cannot be satisfied by any record.
	over := run(3)
	base := run(0)
	if over.fp != base.fp || over.rows != base.rows {
		t.Errorf("over-declared layout changed the output: %d (%d rows) vs %d (%d rows)",
			over.fp, over.rows, base.fp, base.rows)
	}
	if el := over.snap.Counters["mr_shuffle_bytes_eliminated_total"]; el != 0 {
		t.Errorf("over-declared layout eliminated %d bytes, want 0 (all keys too short)", el)
	}
	if got := over.snap.Counters["mr_partition_local_jobs_total"]; got != 1 {
		t.Errorf("over-declared layout recorded %d local jobs, want 1 (the path was attempted)", got)
	}
}
