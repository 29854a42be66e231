package mr

import (
	"sort"
	"testing"

	"opportune/internal/data"
	"opportune/internal/fault"
	"opportune/internal/obs"
	"opportune/internal/storage"
	"opportune/internal/value"
)

// combineWordsJob is wordCountJob plus a map-side combine. The reference
// arm (kernels=false) combines in its batch map through rowCombine and
// reduces per group through ReduceOut.EachGroup; the kernel arm, stamped
// FusedReduce, replaces both with hand-written combine and Reduce kernels
// that honor the engine contract (first-emission combine order, ascending
// reduce order) without the grouper. The two must be indistinguishable in
// output AND accounting.
func combineWordsJob(kernels bool) *Job {
	j := wordCountJob()
	j.CombineCost = j.ReduceCost
	if !kernels {
		combineInMap(j, sumCombine)
		return j
	}
	j.FusedReduce = true
	combineInMap(j, func(in []Keyed) (out []Keyed) {
		idx := map[string]int{}
		for _, rec := range in {
			if g, ok := idx[rec.Key]; ok {
				out[g].Row[1] = value.NewInt(out[g].Row[1].Int() + rec.Row[1].Int())
				continue
			}
			idx[rec.Key] = len(out)
			out = append(out, Keyed{Key: rec.Key, Row: data.Row{rec.Row[0], rec.Row[1]}})
		}
		return out
	})
	j.Reduce = func(recs []Keyed, out *ReduceOut) {
		sums := map[string]int64{}
		for _, rec := range recs {
			sums[rec.Key] += rec.Row[1].Int()
		}
		keys := make([]string, 0, len(sums))
		for k := range sums {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			out.Emit(k, data.Row{value.NewStr(k), value.NewInt(sums[k])})
		}
	}
	return j
}

func loadManyWords(st *storage.Store, rows int) {
	rel := data.NewRelation(data.NewSchema("id", "text"))
	corpus := []string{"wine red wine", "beer", "red red red", "ale stout", "wine"}
	for i := 0; i < rows; i++ {
		rel.Append(data.Row{value.NewInt(int64(i)), value.NewStr(corpus[i%len(corpus)])})
	}
	st.Put("docs", storage.Base, rel)
}

func runCombineWords(t *testing.T, kernels bool) (*data.Relation, *Result, map[string]int64) {
	t.Helper()
	e, st := newEngine()
	loadManyWords(st, 120)
	e.Params.SplitRows = 16 // several map splits, several combine folds
	e.Params.ReduceTasks = 3
	e.Workers = 4
	reg := obs.NewRegistry()
	e.Obs = reg
	out, res, err := runRecorded(e, combineWordsJob(kernels))
	if err != nil {
		t.Fatal(err)
	}
	return out, res, reg.Snapshot().Counters
}

// TestFusedReduceKernelParity pins the kernel contract: a combining map
// kernel and a FusedReduce job's Reduce kernel replace the grouped row fold and
// the per-group reference with identical output, identical CombineRows
// accounting (mr_combine_rows_total must not move) and identical simulated
// time; only the fused job's work is tallied in
// mr_fused_reduce_{groups,rows}_total.
func TestFusedReduceKernelParity(t *testing.T) {
	outI, resI, cI := runCombineWords(t, false)
	outF, resF, cF := runCombineWords(t, true)
	if outI.Fingerprint() != outF.Fingerprint() {
		t.Error("kernel output differs from the per-group reference")
	}
	if resI.CombineRows == 0 || resI.CombineRows != resF.CombineRows {
		t.Errorf("CombineRows: reference %d, kernels %d (want equal, nonzero)", resI.CombineRows, resF.CombineRows)
	}
	if cI["mr_combine_rows_total"] != cF["mr_combine_rows_total"] {
		t.Errorf("mr_combine_rows_total: reference %d, kernels %d",
			cI["mr_combine_rows_total"], cF["mr_combine_rows_total"])
	}
	// 120 rows in 16-row splits: every one of the 8 map tasks combined.
	if resI.FusedCombineBatches != 8 || resF.FusedCombineBatches != 8 {
		t.Errorf("combined map tasks: reference %d, kernels %d, want 8", resI.FusedCombineBatches, resF.FusedCombineBatches)
	}
	if resF.FusedReduceGroups == 0 || resF.FusedReduceRows == 0 {
		t.Errorf("kernel run folded groups=%d rows=%d, want both > 0", resF.FusedReduceGroups, resF.FusedReduceRows)
	}
	if resI.FusedReduceGroups != 0 || resI.FusedReduceRows != 0 {
		t.Error("per-group reference run tallied kernel work")
	}
	// Wall-clock-only contract: the kernels must not change simulated time.
	if resI.SimSeconds != resF.SimSeconds {
		t.Errorf("SimSeconds moved: reference %v, kernels %v", resI.SimSeconds, resF.SimSeconds)
	}
	if cF["mr_fused_reduce_jobs_total"] != 1 || cF["mr_fused_reduce_eligible_total"] != 1 {
		t.Errorf("fused job counters = %d/%d, want 1/1",
			cF["mr_fused_reduce_jobs_total"], cF["mr_fused_reduce_eligible_total"])
	}
}

// TestFusedReduceRunsUnderFaults pins the chaos contract at the engine
// level: under a plan that kills and slows map and reduce tasks, the reduce
// kernel still folds every partition, and the kernel arm matches the
// per-group reference arm under the same plan on output and on the whole
// Result outside the reduce-kernel tallies — retries, speculation and waste
// included — because recovery is priced from task volumes, never replayed
// through whichever reducer ran.
func TestFusedReduceRunsUnderFaults(t *testing.T) {
	plan := &fault.Plan{Faults: []fault.Fault{
		{Phase: fault.PhaseMap, Task: 0, Kind: fault.KindPanic, FailAttempts: 1},
		{Phase: fault.PhaseReduce, Task: fault.Shard("wine", fault.DefaultVirtualShards), Kind: fault.KindPanic, FailAttempts: 2},
		{Phase: fault.PhaseReduce, Task: fault.Shard("red", fault.DefaultVirtualShards), Kind: fault.KindStraggler, Factor: 6},
	}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	run := func(kernels bool, plan *fault.Plan) (*data.Relation, Result) {
		e, st := newEngine()
		loadManyWords(st, 120)
		e.Params.SplitRows = 16
		e.Params.ReduceTasks = 3
		e.Workers = 4
		if plan != nil {
			e.Faults = fault.NewInjector(plan)
			st.SetFaults(e.Faults)
		}
		out, res, err := runOne(e, combineWordsJob(kernels))
		if err != nil {
			t.Fatal(err)
		}
		return out, *res
	}
	clean, _ := run(false, nil)
	outF, resF := run(true, plan)
	outI, resI := run(false, plan)
	if outF.Fingerprint() != clean.Fingerprint() || outI.Fingerprint() != clean.Fingerprint() {
		t.Error("faulted output differs from the clean reference run")
	}
	if resF.FusedReduceGroups == 0 || resF.FusedReduceRows == 0 || resF.FusedCombineBatches == 0 {
		t.Errorf("reduce kernel did not run under the plan: groups=%d rows=%d combine batches=%d",
			resF.FusedReduceGroups, resF.FusedReduceRows, resF.FusedCombineBatches)
	}
	if resF.TaskRetries != 3 || resF.SpeculativeTasks != 1 {
		t.Errorf("TaskRetries = %d, SpeculativeTasks = %d, want 3 and 1", resF.TaskRetries, resF.SpeculativeTasks)
	}
	// The fused classification and the reduce kernel's tallies are the
	// only fields the arms may disagree on.
	resF.FusedReduce = false
	resF.FusedReduceGroups, resF.FusedReduceRows = 0, 0
	if resF != resI {
		t.Errorf("kernel and reference arms priced the plan differently:\nkernel %+v\nref    %+v", resF, resI)
	}
}
