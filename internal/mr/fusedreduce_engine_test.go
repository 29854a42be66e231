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

// combineWordsJob is wordCountJob plus a classic combiner, the shape the
// fused reduce kernels replace. setKernels=true attaches hand-written
// BatchCombine/BatchReduce kernels that honor the engine contract
// (first-emission combine order, ascending reduce order); they must be
// indistinguishable from the interpreter in output AND accounting.
func combineWordsJob(setKernels bool) *Job {
	j := wordCountJob()
	j.Combine = func(key string, rows []data.Row, emit func(data.Row)) {
		var sum int64
		for _, r := range rows {
			sum += r[1].Int()
		}
		emit(data.Row{rows[0][0], value.NewInt(sum)})
	}
	j.CombineCost = j.ReduceCost
	if !setKernels {
		return j
	}
	j.FusedReduceEligible = true
	j.FusedReduce = true
	j.BatchCombine = func(in, scratch []Keyed) ([]Keyed, int64, bool) {
		scratch = scratch[:0]
		idx := map[string]int{}
		for _, rec := range in {
			if g, ok := idx[rec.Key]; ok {
				scratch[g].Row[1] = value.NewInt(scratch[g].Row[1].Int() + rec.Row[1].Int())
				continue
			}
			idx[rec.Key] = len(scratch)
			scratch = append(scratch, Keyed{Key: rec.Key, Row: data.Row{rec.Row[0], rec.Row[1]}})
		}
		return scratch, int64(len(in)), true
	}
	j.BatchReduce = func(recs []Keyed, emit Emit) bool {
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
			emit(k, data.Row{value.NewStr(k), value.NewInt(sums[k])})
		}
		return true
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

func runCombineWords(t *testing.T, kernels, bailing bool) (*data.Relation, *Result, map[string]int64) {
	t.Helper()
	e, st := newEngine()
	loadManyWords(st, 120)
	e.Params.SplitRows = 16 // several map splits, several combine folds
	e.Params.ReduceTasks = 3
	e.Workers = 4
	reg := obs.NewRegistry()
	e.Obs = reg
	j := combineWordsJob(kernels)
	if bailing {
		// Kernels that always refuse: every split's combine and every
		// partition's reduce must replay through the interpreter.
		j.BatchCombine = func(in, scratch []Keyed) ([]Keyed, int64, bool) { return scratch, 0, false }
		j.BatchReduce = func(recs []Keyed, emit Emit) bool { return false }
	}
	out, res, err := runRecorded(e, j)
	if err != nil {
		t.Fatal(err)
	}
	return out, res, reg.Snapshot().Counters
}

// TestFusedReduceKernelParity pins the dispatch contract: batch kernels
// replace the grouper+interpreter folds with identical output, identical
// CombineRows accounting (mr_combine_rows_total must not move), and the
// fused work tallied in the mr_fused_reduce_* family.
func TestFusedReduceKernelParity(t *testing.T) {
	outI, resI, cI := runCombineWords(t, false, false)
	outF, resF, cF := runCombineWords(t, true, false)
	if outI.Fingerprint() != outF.Fingerprint() {
		t.Error("fused kernel output differs from interpreter")
	}
	if resI.CombineRows == 0 || resI.CombineRows != resF.CombineRows {
		t.Errorf("CombineRows: interpreter %d, fused %d (want equal, nonzero)", resI.CombineRows, resF.CombineRows)
	}
	if cI["mr_combine_rows_total"] != cF["mr_combine_rows_total"] {
		t.Errorf("mr_combine_rows_total: interpreter %d, fused %d",
			cI["mr_combine_rows_total"], cF["mr_combine_rows_total"])
	}
	if resF.FusedCombineBatches == 0 {
		t.Error("fused run folded no combine batches")
	}
	if resF.FusedReduceGroups == 0 || resF.FusedReduceRows == 0 {
		t.Errorf("fused run folded groups=%d rows=%d, want both > 0", resF.FusedReduceGroups, resF.FusedReduceRows)
	}
	if resF.FusedReduceRuntimeFallbacks != 0 {
		t.Errorf("well-behaved kernels bailed %d times", resF.FusedReduceRuntimeFallbacks)
	}
	if resI.FusedCombineBatches != 0 || resI.FusedReduceGroups != 0 {
		t.Error("interpreter run tallied fused work")
	}
	// Wall-clock-only contract: the kernels must not change simulated time.
	if resI.SimSeconds != resF.SimSeconds {
		t.Errorf("SimSeconds moved: interpreter %v, fused %v", resI.SimSeconds, resF.SimSeconds)
	}
	if cF["mr_fused_reduce_jobs_total"] != 1 || cF["mr_fused_reduce_eligible_total"] != 1 {
		t.Errorf("fused job counters = %d/%d, want 1/1",
			cF["mr_fused_reduce_jobs_total"], cF["mr_fused_reduce_eligible_total"])
	}
}

// TestFusedReduceRuntimeFallback pins the layout-bailout path: kernels that
// return false leave output and accounting exactly on the interpreter path,
// with every refused split and partition counted as a runtime fallback.
func TestFusedReduceRuntimeFallback(t *testing.T) {
	outI, resI, cI := runCombineWords(t, false, false)
	outB, resB, cB := runCombineWords(t, true, true)
	if outI.Fingerprint() != outB.Fingerprint() {
		t.Error("bailing kernels changed job output")
	}
	if resI.CombineRows != resB.CombineRows {
		t.Errorf("CombineRows: interpreter %d, bailing %d", resI.CombineRows, resB.CombineRows)
	}
	if resB.FusedReduceRuntimeFallbacks == 0 {
		t.Error("refusing kernels recorded no runtime fallbacks")
	}
	if resB.FusedCombineBatches != 0 || resB.FusedReduceGroups != 0 || resB.FusedReduceRows != 0 {
		t.Errorf("bailing run still tallied fused work: batches=%d groups=%d rows=%d",
			resB.FusedCombineBatches, resB.FusedReduceGroups, resB.FusedReduceRows)
	}
	// 120 rows / 16-row splits = 8 combine bails, plus 3 reduce partitions.
	if want := int64(8 + 3); resB.FusedReduceRuntimeFallbacks != want {
		t.Errorf("runtime fallbacks = %d, want %d", resB.FusedReduceRuntimeFallbacks, want)
	}
	if cB["mr_fused_reduce_runtime_fallback_total"] != resB.FusedReduceRuntimeFallbacks {
		t.Error("runtime fallback counter does not match the result tally")
	}
	if cI["mr_fused_reduce_runtime_fallback_total"] != 0 {
		t.Error("interpreter run recorded runtime fallbacks")
	}
}

// TestFusedReduceRunsUnderFaults pins the chaos contract at the engine
// level: under a plan that kills and slows map and reduce tasks, the reduce
// kernel still folds every partition, and the kernel arm matches the
// interpreter arm under the same plan on output and on the whole Result
// outside the fused tallies — retries, speculation and waste included —
// because recovery is priced from task volumes, never replayed through
// whichever path ran.
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
		out, res, err := e.Run(combineWordsJob(kernels))
		if err != nil {
			t.Fatal(err)
		}
		return out, *res
	}
	clean, _ := run(false, nil)
	outF, resF := run(true, plan)
	outI, resI := run(false, plan)
	if outF.Fingerprint() != clean.Fingerprint() || outI.Fingerprint() != clean.Fingerprint() {
		t.Error("faulted output differs from the clean interpreter run")
	}
	if resF.FusedReduceGroups == 0 || resF.FusedReduceRows == 0 || resF.FusedCombineBatches == 0 {
		t.Errorf("reduce kernel did not run under the plan: groups=%d rows=%d combine batches=%d",
			resF.FusedReduceGroups, resF.FusedReduceRows, resF.FusedCombineBatches)
	}
	if resF.TaskRetries != 3 || resF.SpeculativeTasks != 1 {
		t.Errorf("TaskRetries = %d, SpeculativeTasks = %d, want 3 and 1", resF.TaskRetries, resF.SpeculativeTasks)
	}
	// The fused classification and tallies are the only fields the arms
	// may disagree on.
	resF.FusedReduceEligible, resF.FusedReduceJob = false, false
	resF.FusedCombineBatches, resF.FusedReduceGroups, resF.FusedReduceRows = 0, 0, 0
	if resF != resI {
		t.Errorf("kernel and interpreter arms priced the plan differently:\nkernel %+v\ninterp %+v", resF, resI)
	}
}
