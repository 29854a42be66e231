package mr

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/fault"
	"opportune/internal/storage"
	"opportune/internal/value"
)

// newFaultedEngine builds an engine over the words fixture with one-row
// splits (so the three input rows become map tasks 0,1,2) and the given
// fault plan injected.
func newFaultedEngine(t *testing.T, plan *fault.Plan) (*Engine, *storage.Store) {
	t.Helper()
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	st := storage.NewStore()
	loadWords(st)
	params := cost.DefaultParams()
	params.SplitRows = 1
	e := New(st, params)
	e.Faults = fault.NewInjector(plan)
	st.SetFaults(e.Faults)
	return e, st
}

// checkInvariant asserts the accounting identity every run must satisfy.
func checkInvariant(t *testing.T, res *Result) {
	t.Helper()
	if got := res.Breakdown.Total() + res.WastedSeconds; got != res.SimSeconds {
		t.Errorf("Breakdown.Total()+WastedSeconds = %g, SimSeconds = %g", got, res.SimSeconds)
	}
}

func TestInjectedMapPanicRecoversAtTaskLevel(t *testing.T) {
	e, _ := newFaultedEngine(t, &fault.Plan{Faults: []fault.Fault{
		{Phase: fault.PhaseMap, Task: 1, Kind: fault.KindPanic, FailAttempts: 2},
	}})
	out, res, err := runOne(e, wordCountJob())
	if err != nil {
		t.Fatalf("task-level recovery failed: %v", err)
	}
	// Task recovery never escalated to the job: one attempt, two task retries.
	if res.Attempts != 1 || res.TaskRetries != 2 {
		t.Errorf("Attempts = %d, TaskRetries = %d, want 1 and 2", res.Attempts, res.TaskRetries)
	}
	if !strings.Contains(res.RecoveredError, "injected panic: map task 1 attempt 2") {
		t.Errorf("RecoveredError = %q", res.RecoveredError)
	}
	if res.Faults.TaskRetrySeconds <= 0 {
		t.Error("dead task attempts charged no retry seconds")
	}
	// Backoff after attempts 1 and 2: Base(1) + Base·Factor(2) = 3 sim-seconds.
	if res.Faults.BackoffSeconds != 3 {
		t.Errorf("BackoffSeconds = %g, want 3", res.Faults.BackoffSeconds)
	}
	// Task retries re-run from in-memory splits: no extra bytes anywhere.
	if res.RetriedInputBytes != 0 || res.RetriedShuffleBytes != 0 {
		t.Errorf("task retries moved bytes: %+v", res)
	}
	checkInvariant(t, res)

	// Output identical to a fault-free run.
	eClean, stClean := newEngine()
	loadWords(stClean)
	clean, _, err := runOne(eClean, wordCountJob())
	if err != nil {
		t.Fatal(err)
	}
	if out.Fingerprint() != clean.Fingerprint() {
		t.Error("recovered output differs from fault-free run")
	}
}

func TestInjectedReduceGroupPanicRecovers(t *testing.T) {
	shard := fault.Shard("wine", fault.DefaultVirtualShards)
	e, _ := newFaultedEngine(t, &fault.Plan{Faults: []fault.Fault{
		{Phase: fault.PhaseReduce, Task: shard, Kind: fault.KindPanic, FailAttempts: 1},
	}})
	out, res, err := runOne(e, wordCountJob())
	if err != nil {
		t.Fatalf("reduce group recovery failed: %v", err)
	}
	if res.Attempts != 1 || res.TaskRetries != 1 {
		t.Errorf("Attempts = %d, TaskRetries = %d, want 1 and 1", res.Attempts, res.TaskRetries)
	}
	if !strings.Contains(res.RecoveredError, "injected panic: reduce task") {
		t.Errorf("RecoveredError = %q", res.RecoveredError)
	}
	counts := map[string]int64{}
	for _, r := range out.Rows() {
		counts[r[0].Str()] = r[1].Int()
	}
	if counts["wine"] != 2 || counts["red"] != 4 || counts["beer"] != 1 {
		t.Errorf("recovered counts = %v", counts)
	}
	checkInvariant(t, res)
}

func TestCorruptMapOutputReexecutes(t *testing.T) {
	e, _ := newFaultedEngine(t, &fault.Plan{Faults: []fault.Fault{
		{Phase: fault.PhaseMap, Task: 0, Kind: fault.KindCorrupt, FailAttempts: 1},
	}})
	out, res, err := runOne(e, wordCountJob())
	if err != nil {
		t.Fatal(err)
	}
	if res.TaskRetries != 1 {
		t.Errorf("TaskRetries = %d, want 1", res.TaskRetries)
	}
	if !strings.Contains(res.RecoveredError, "injected corruption") {
		t.Errorf("RecoveredError = %q", res.RecoveredError)
	}
	// The corrupted attempt's output was discarded, not double-counted.
	if res.ShuffleRows != 7 {
		t.Errorf("ShuffleRows = %d, want 7 (corrupt output leaked into shuffle?)", res.ShuffleRows)
	}
	if out.Len() != 3 {
		t.Errorf("output rows = %d, want 3", out.Len())
	}
	checkInvariant(t, res)
}

// TestSpeculationStrictlyReducesSimSeconds is the acceptance criterion: on
// a straggler-only plan, speculative execution must strictly beat running
// the straggler to completion. With slowdown F=6 and lag factor 1 the copy
// wins at 2C against the straggler's 6C, wasting 2C instead of 5C.
func TestSpeculationStrictlyReducesSimSeconds(t *testing.T) {
	plan := &fault.Plan{Faults: []fault.Fault{
		{Phase: fault.PhaseMap, Task: 0, Kind: fault.KindStraggler, Factor: 6},
	}}
	run := func(disable bool) *Result {
		e, _ := newFaultedEngine(t, plan)
		e.DisableSpeculation = disable
		_, res, err := runOne(e, wordCountJob())
		if err != nil {
			t.Fatal(err)
		}
		checkInvariant(t, res)
		return res
	}
	spec := run(false)
	noSpec := run(true)

	if spec.StragglerTasks != 1 || spec.SpeculativeTasks != 1 || spec.SpeculativeWins != 1 {
		t.Errorf("speculation tallies = %+v", spec)
	}
	if noSpec.SpeculativeTasks != 0 || noSpec.StragglerTasks != 1 {
		t.Errorf("disabled speculation tallies = %+v", noSpec)
	}
	if noSpec.Faults.StragglerSeconds <= 0 {
		t.Error("disabled speculation charged no straggler seconds")
	}
	if spec.SimSeconds >= noSpec.SimSeconds {
		t.Errorf("speculation did not strictly reduce SimSeconds: %g >= %g",
			spec.SimSeconds, noSpec.SimSeconds)
	}
	// Both runs execute the same volumes; only waste differs.
	if spec.Breakdown != noSpec.Breakdown {
		t.Errorf("straggler changed the breakdown: %v vs %v", spec.Breakdown, noSpec.Breakdown)
	}
}

// TestStragglerBelowThresholdJustRunsSlow: a mild slowdown under the
// speculation threshold is charged as pure straggler time with no copy.
func TestStragglerBelowThresholdJustRunsSlow(t *testing.T) {
	e, _ := newFaultedEngine(t, &fault.Plan{Faults: []fault.Fault{
		{Phase: fault.PhaseMap, Task: 0, Kind: fault.KindStraggler, Factor: 1.5},
	}})
	_, res, err := runOne(e, wordCountJob())
	if err != nil {
		t.Fatal(err)
	}
	if res.StragglerTasks != 1 || res.SpeculativeTasks != 0 {
		t.Errorf("tallies = %+v", res)
	}
	if res.Faults.StragglerSeconds <= 0 || res.Faults.SpeculationSeconds != 0 {
		t.Errorf("waste = %+v", res.Faults)
	}
	checkInvariant(t, res)
}

func TestStorageReadFaultRecoversViaJobRetry(t *testing.T) {
	e, st := newFaultedEngine(t, &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.KindReadError, Dataset: "docs", FailReads: 1},
	}})
	e.MaxAttempts = 3
	before := st.Counters()
	out, res, err := runOne(e, wordCountJob())
	if err != nil {
		t.Fatalf("read fault not recovered: %v", err)
	}
	if res.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2", res.Attempts)
	}
	if !strings.Contains(res.RecoveredError, `injected read error: dataset "docs"`) {
		t.Errorf("RecoveredError = %q", res.RecoveredError)
	}
	// The failed read served no bytes, so engine and store reconcile with
	// zero retried volume.
	if res.RetriedInputBytes != 0 {
		t.Errorf("RetriedInputBytes = %d, want 0 (failed read served no bytes)", res.RetriedInputBytes)
	}
	after := st.Counters()
	if got := after.BytesRead - before.BytesRead; got != res.InputBytes {
		t.Errorf("store served %d bytes, engine accounts %d", got, res.InputBytes)
	}
	if out.Len() != 3 {
		t.Errorf("output rows = %d", out.Len())
	}
	checkInvariant(t, res)
}

func TestTaskBudgetExhaustionEscalatesToJobLevel(t *testing.T) {
	e, _ := newFaultedEngine(t, &fault.Plan{Faults: []fault.Fault{
		{Phase: fault.PhaseMap, Task: 0, Kind: fault.KindPanic, FailAttempts: 100},
	}})
	e.TaskMaxAttempts = 2
	e.MaxAttempts = 2
	_, res, err := runOne(e, wordCountJob())
	if err == nil {
		t.Fatal("unsurvivable plan succeeded")
	}
	if !strings.Contains(err.Error(), "injected panic") {
		t.Errorf("error lost the fault detail: %v", err)
	}
	// 2 job attempts × 1 task retry each (budget 2 per attempt).
	if res.Attempts != 2 || res.TaskRetries != 2 {
		t.Errorf("Attempts = %d, TaskRetries = %d, want 2 and 2", res.Attempts, res.TaskRetries)
	}
	checkInvariant(t, res)
}

// TestReduceTaskBudgetExhaustionEscalatesToJobLevel is the reduce-side
// twin: a shard whose scripted failures outlast the task budget fails the
// attempt with the injected fault in the error chain.
func TestReduceTaskBudgetExhaustionEscalatesToJobLevel(t *testing.T) {
	e, _ := newFaultedEngine(t, &fault.Plan{Faults: []fault.Fault{
		{Phase: fault.PhaseReduce, Task: fault.Shard("red", fault.DefaultVirtualShards), Kind: fault.KindPanic, FailAttempts: 100},
	}})
	e.TaskMaxAttempts = 2
	e.MaxAttempts = 2
	_, res, err := runOne(e, wordCountJob())
	if err == nil {
		t.Fatal("unsurvivable plan succeeded")
	}
	if !fault.IsInjected(err) || !strings.Contains(err.Error(), "injected panic: reduce task") {
		t.Errorf("error lost the fault detail: %v", err)
	}
	if res.Attempts != 2 || res.TaskRetries != 2 {
		t.Errorf("Attempts = %d, TaskRetries = %d, want 2 and 2", res.Attempts, res.TaskRetries)
	}
	checkInvariant(t, res)
}

// TestReduceFaultKillsTheWholeShard: a reduce task is a virtual shard, so a
// scripted reduce panic kills every group the shard holds in one attempt —
// one retry and one backoff, priced on the shard's whole volume — while the
// reducer itself runs once per group: the dead attempt is priced, not run.
func TestReduceFaultKillsTheWholeShard(t *testing.T) {
	byShard := map[int][]string{}
	var a, b, c string
	for i := 0; a == ""; i++ {
		w := fmt.Sprintf("w%d", i)
		s := fault.Shard(w, fault.DefaultVirtualShards)
		if len(byShard[s]) == 1 {
			a, b = byShard[s][0], w
		}
		byShard[s] = append(byShard[s], w)
	}
	shard := fault.Shard(a, fault.DefaultVirtualShards)
	for i := 0; c == ""; i++ {
		if w := fmt.Sprintf("x%d", i); fault.Shard(w, fault.DefaultVirtualShards) != shard {
			c = w
		}
	}
	st := storage.NewStore()
	rel := data.NewRelation(data.NewSchema("id", "text"))
	rel.Append(data.Row{value.NewInt(0), value.NewStr(a + " " + b + " " + a)})
	rel.Append(data.Row{value.NewInt(1), value.NewStr(c)})
	st.Put("docs", storage.Base, rel)
	e := New(st, cost.DefaultParams())
	e.Faults = fault.NewInjector(&fault.Plan{Faults: []fault.Fault{
		{Phase: fault.PhaseReduce, Task: shard, Kind: fault.KindPanic, FailAttempts: 1},
	}})
	job := wordCountJob()
	var calls atomic.Int64 // reduce partitions run concurrently
	job.Reduce = perGroup(func(key string, rows []data.Row, out *ReduceOut) {
		calls.Add(1)
		sumReduce(key, rows, out)
	})
	_, res, err := runOne(e, job)
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("reducer ran %d times, want once per group", n)
	}
	if res.TaskRetries != 1 || res.Faults.BackoffSeconds != e.Params.TaskBackoffBase {
		t.Errorf("TaskRetries = %d, BackoffSeconds = %g, want one of each for the shard", res.TaskRetries, res.Faults.BackoffSeconds)
	}
	var bytes int64
	for _, w := range []string{a, b, a} {
		bytes += int64(data.Row{value.NewStr(w), value.NewInt(1)}.EncodedSize() + len(w))
	}
	p := e.Params
	want := float64(bytes)*p.SortFactor + float64(bytes)/p.ShuffleRate + p.FnsSeconds(job.ReduceCost, 3)
	if res.Faults.TaskRetrySeconds != want {
		t.Errorf("TaskRetrySeconds = %g, want the shard's nominal cost %g", res.Faults.TaskRetrySeconds, want)
	}
	checkInvariant(t, res)
}

func TestDeadlineAbortCarriesPartialAccounting(t *testing.T) {
	e, _ := newFaultedEngine(t, &fault.Plan{Faults: []fault.Fault{
		{Phase: fault.PhaseMap, Task: 0, Kind: fault.KindStraggler, Factor: 1e9},
	}})
	e.DisableSpeculation = true // the straggler runs to completion, blowing the budget
	e.MaxAttempts = 3
	e.DeadlineSimSeconds = 1e-9
	_, res, err := runOne(e, wordCountJob())
	if err == nil {
		t.Fatal("deadline did not trip")
	}
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	// No retry past the deadline — graceful degradation, not a retry storm.
	if res.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1 (deadline must not retry)", res.Attempts)
	}
	// Partial accounting survives: the aborted attempt's volumes and waste.
	if res.InputBytes <= 0 {
		t.Error("partial volumes lost")
	}
	if res.WastedSeconds <= 0 {
		t.Error("aborted work not priced")
	}
	if res.Breakdown.Total() != 0 {
		t.Error("aborted job has a nonzero success breakdown")
	}
	checkInvariant(t, res)
}

func TestDeadlineGenerousEnoughIsInert(t *testing.T) {
	e, st := newEngine()
	loadWords(st)
	e.DeadlineSimSeconds = 1e9
	_, res, err := runOne(e, wordCountJob())
	if err != nil {
		t.Fatal(err)
	}
	if res.WastedSeconds != 0 {
		t.Errorf("inert deadline charged waste: %+v", res)
	}
}

// TestFaultedResultParallelismIndependent pins the PR 1 guarantee under
// chaos: with a fixed plan, the whole Result — fault waste floats included —
// is byte-identical at any Workers/ReduceTasks setting.
func TestFaultedResultParallelismIndependent(t *testing.T) {
	plan := &fault.Plan{Faults: []fault.Fault{
		{Phase: fault.PhaseMap, Task: 0, Kind: fault.KindPanic, FailAttempts: 1},
		{Phase: fault.PhaseMap, Task: 2, Kind: fault.KindStraggler, Factor: 6},
		{Phase: fault.PhaseMap, Task: 1, Kind: fault.KindCorrupt, FailAttempts: 1},
		{Phase: fault.PhaseReduce, Task: fault.Shard("red", fault.DefaultVirtualShards), Kind: fault.KindPanic, FailAttempts: 2},
		{Phase: fault.PhaseReduce, Task: fault.Shard("beer", fault.DefaultVirtualShards), Kind: fault.KindStraggler, Factor: 8},
	}}
	run := func(workers, reduceTasks int) (Result, uint64) {
		e, _ := newFaultedEngine(t, plan)
		e.Workers = workers
		e.Params.ReduceTasks = reduceTasks
		out, res, err := runOne(e, wordCountJob())
		if err != nil {
			t.Fatalf("workers=%d R=%d: %v", workers, reduceTasks, err)
		}
		checkInvariant(t, res)
		return *res, out.Fingerprint()
	}
	ref, refFP := run(1, 1)
	if ref.TaskRetries == 0 || ref.StragglerTasks == 0 {
		t.Fatalf("plan fired nothing: %+v", ref)
	}
	for _, cfg := range []struct{ w, r int }{{2, 1}, {4, 3}, {8, 2}} {
		got, fp := run(cfg.w, cfg.r)
		if got != ref {
			t.Errorf("workers=%d R=%d: Result differs:\n got %+v\nwant %+v", cfg.w, cfg.r, got, ref)
		}
		if fp != refFP {
			t.Errorf("workers=%d R=%d: output fingerprint differs", cfg.w, cfg.r)
		}
	}
}
