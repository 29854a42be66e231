package mr

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/fault"
	"opportune/internal/obs"
	"opportune/internal/storage"
	"opportune/internal/value"
)

// flakyWordCount returns the word-count job with a reduce that panics the
// first `failures` times it sees the key "wine". Attempts run serially and
// only one reduce task owns a key, so the plain counter is race-free and
// the injected failures are deterministic at any Workers/ReduceTasks.
func flakyWordCount(failures int) *Job {
	job := wordCountJob()
	n := 0
	job.Reduce = perGroup(func(key string, rows []data.Row, out *ReduceOut) {
		if key == "wine" && n < failures {
			n++
			panic("transient reduce failure")
		}
		sumReduce(key, rows, out)
	})
	return job
}

// TestWastedSecondsInvariant is the retry-accounting regression: failed
// attempts' time must land in an explicit WastedSeconds field with
// Breakdown.Total() + WastedSeconds == SimSeconds, instead of silently
// desynchronizing SimSeconds from the breakdown.
func TestWastedSecondsInvariant(t *testing.T) {
	e, st := newEngine()
	loadWords(st)
	e.MaxAttempts = 3
	_, res, err := runOne(e, flakyWordCount(2))
	if err != nil {
		t.Fatalf("job did not recover: %v", err)
	}
	if res.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3", res.Attempts)
	}
	if res.WastedSeconds <= 0 {
		t.Error("recovered failures charged no WastedSeconds")
	}
	if got := res.Breakdown.Total() + res.WastedSeconds; got != res.SimSeconds {
		t.Errorf("Breakdown.Total()+WastedSeconds = %g, SimSeconds = %g", got, res.SimSeconds)
	}

	// Clean runs keep the same invariant with zero waste.
	e2, st2 := newEngine()
	loadWords(st2)
	_, clean, err := runOne(e2, wordCountJob())
	if err != nil {
		t.Fatal(err)
	}
	if clean.WastedSeconds != 0 || clean.RetriedInputBytes != 0 || clean.RetriedShuffleBytes != 0 {
		t.Errorf("clean run reports retry accounting: %+v", clean)
	}
	if clean.Breakdown.Total() != clean.SimSeconds {
		t.Errorf("clean run: Breakdown.Total() = %g, SimSeconds = %g", clean.Breakdown.Total(), clean.SimSeconds)
	}

	// An unrecovered failure still satisfies the invariant (zero breakdown,
	// waste covers the recovered-from attempts only).
	e3, st3 := newEngine()
	loadWords(st3)
	e3.MaxAttempts = 2
	_, failed, err := runOne(e3, flakyWordCount(100))
	if err == nil {
		t.Fatal("permanent failure succeeded")
	}
	if got := failed.Breakdown.Total() + failed.WastedSeconds; got != failed.SimSeconds {
		t.Errorf("failed job: Breakdown.Total()+WastedSeconds = %g, SimSeconds = %g", got, failed.SimSeconds)
	}
}

// TestWastedSecondsInvariantUnderFaultPlans extends the accounting
// invariant to scripted chaos: under every fault type — task panic,
// straggler with speculation, storage read error, deadline abort — the
// identity Breakdown.Total() + WastedSeconds == SimSeconds must hold
// exactly, and all fault-induced overhead must be itemized in
// Result.Faults (WastedSeconds money), never folded into Breakdown.
func TestWastedSecondsInvariantUnderFaultPlans(t *testing.T) {
	wineShard := fault.Shard("wine", fault.DefaultVirtualShards)
	cases := []struct {
		name     string
		plan     *fault.Plan
		deadline float64
		wantErr  error // nil means the run must recover
		// noWaste marks faults that legitimately waste nothing: a failed
		// read dies before any bytes are served or work is done.
		noWaste bool
		// noRecovered marks faults that are not failures (stragglers slow
		// a task down without killing it), so nothing is "recovered from".
		noRecovered bool
	}{
		{name: "map task panic", plan: &fault.Plan{Faults: []fault.Fault{
			{Phase: fault.PhaseMap, Task: 1, Kind: fault.KindPanic, FailAttempts: 2},
		}}},
		{name: "reduce group panic", plan: &fault.Plan{Faults: []fault.Fault{
			{Phase: fault.PhaseReduce, Task: wineShard, Kind: fault.KindPanic, FailAttempts: 1},
		}}},
		{name: "corrupted map output", plan: &fault.Plan{Faults: []fault.Fault{
			{Phase: fault.PhaseMap, Task: 0, Kind: fault.KindCorrupt, FailAttempts: 1},
		}}},
		{name: "straggler with speculation", plan: &fault.Plan{Faults: []fault.Fault{
			{Phase: fault.PhaseMap, Task: 2, Kind: fault.KindStraggler, Factor: 6},
		}}, noRecovered: true},
		{name: "storage read error", plan: &fault.Plan{Faults: []fault.Fault{
			{Kind: fault.KindReadError, Dataset: "docs", FailReads: 1},
		}}, noWaste: true},
		{name: "deadline abort", plan: &fault.Plan{Faults: []fault.Fault{
			{Phase: fault.PhaseMap, Task: 0, Kind: fault.KindStraggler, Factor: 1e6},
		}}, deadline: 1e-9, wantErr: ErrDeadlineExceeded},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.plan.Validate(); err != nil {
				t.Fatal(err)
			}
			st := storage.NewStore()
			loadWords(st)
			params := cost.DefaultParams()
			params.SplitRows = 1 // three map tasks
			e := New(st, params)
			e.Faults = fault.NewInjector(tc.plan)
			st.SetFaults(e.Faults)
			e.MaxAttempts = 3
			e.DeadlineSimSeconds = tc.deadline
			if tc.deadline > 0 {
				e.DisableSpeculation = true // let the straggler blow the budget
			}
			_, res, err := runOne(e, wordCountJob())
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("run did not recover: %v", err)
				}
				if !tc.noWaste && res.WastedSeconds <= 0 {
					t.Error("recovered fault charged no waste")
				}
				if !tc.noRecovered && res.RecoveredError == "" {
					t.Error("recovered run surfaces no RecoveredError")
				}
			} else if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if got := res.Breakdown.Total() + res.WastedSeconds; got != res.SimSeconds {
				t.Errorf("Breakdown.Total()+WastedSeconds = %g, SimSeconds = %g", got, res.SimSeconds)
			}
			// Fault overhead is itemized waste: the sum of the itemized
			// components plus whole-attempt waste reconstructs WastedSeconds.
			jobWaste := res.WastedSeconds - res.Faults.Total()
			if jobWaste < 0 {
				t.Errorf("itemized fault waste %g exceeds WastedSeconds %g", res.Faults.Total(), res.WastedSeconds)
			}
		})
	}
}

// TestFaultObsCounters checks the recovery counters the engine publishes:
// values mirror the Result, and zero-valued families are still registered
// so snapshot key sets never depend on which faults fired.
func TestFaultObsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	st := storage.NewStore()
	loadWords(st)
	params := cost.DefaultParams()
	params.SplitRows = 1
	e := New(st, params)
	e.Obs = reg
	e.Faults = fault.NewInjector(&fault.Plan{Faults: []fault.Fault{
		{Phase: fault.PhaseMap, Task: 0, Kind: fault.KindPanic, FailAttempts: 1},
		{Phase: fault.PhaseMap, Task: 1, Kind: fault.KindStraggler, Factor: 6},
	}})
	_, res, err := runRecorded(e, wordCountJob())
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for k, want := range map[string]int64{
		"mr_task_retries_total":      int64(res.TaskRetries),
		"mr_straggler_tasks_total":   int64(res.StragglerTasks),
		"mr_speculative_tasks_total": int64(res.SpeculativeTasks),
		"mr_speculative_wins_total":  int64(res.SpeculativeWins),
		"mr_deadline_aborts_total":   0,
	} {
		got, ok := snap.Counters[k]
		if !ok {
			t.Errorf("counter %s not registered", k)
		} else if got != want {
			t.Errorf("%s = %d, want %d", k, got, want)
		}
	}
	// Summed in FaultWaste.Total()'s field order: float addition is not
	// associative, so a map-order sum can differ in the last ulp.
	var itemized float64
	for _, cw := range []struct {
		comp string
		want float64
	}{
		{"retry", res.Faults.TaskRetrySeconds},
		{"backoff", res.Faults.BackoffSeconds},
		{"straggler", res.Faults.StragglerSeconds},
		{"speculation", res.Faults.SpeculationSeconds},
	} {
		comp, want := cw.comp, cw.want
		k := "mr_fault_waste_sim_seconds_total{component=" + comp + "}"
		got, ok := snap.FloatCounters[k]
		if !ok {
			t.Errorf("float counter %s not registered", k)
		} else if got != want {
			t.Errorf("%s = %g, want %g", k, got, want)
		}
		itemized += got
	}
	if itemized != res.Faults.Total() {
		t.Errorf("itemized fault waste sums to %g, Result says %g", itemized, res.Faults.Total())
	}
}

// loadLexicon stores the table probeCount looks words up in: "red" twice,
// "beer" once, a null word, and words no document uses.
func loadLexicon(st *storage.Store) {
	rel := data.NewRelation(data.NewSchema("word", "class"))
	for _, r := range [][2]string{{"red", "color"}, {"tea", "drink"}, {"beer", "drink"}, {"", "none"}, {"red", "wine-color"}} {
		w := value.NewStr(r[0])
		if r[0] == "" {
			w = value.NullV
		}
		rel.Append(data.Row{w, value.NewStr(r[1])})
	}
	st.Put("lexicon", storage.Base, rel)
}

// probeCount is a word count keyed by lexicon class: the map side looks each
// word of docs up in the lexicon's word index — the probe a delta join
// compiles to — and emits one row per matched entry. Its reduce panics the
// first `failures` times it sees the class "color".
func probeCount(failures int) *Job {
	n := 0
	return &Job{
		Name:   "probecount",
		Inputs: []string{"docs"},
		Probes: []ProbeSpec{{Dataset: "lexicon", Col: "word"}},
		BatchMapFactory: func(ctx TaskCtx) BatchMapFunc {
			var enc data.KeyEncoder
			return batchOf(func(_ int, r data.Row, emit Emit) {
				for _, w := range strings.Fields(r[1].Str()) {
					for _, pos := range ctx.Probes[0].Lookup(enc.KeyOf(value.NewStr(w))) {
						class := ctx.Probes[0].Row(pos)[1]
						emit(class.Str(), data.Row{class, value.NewInt(1)})
					}
				}
			})
		},
		MapOutSchema: data.NewSchema("class", "n"),
		Reduce: perGroup(func(key string, rows []data.Row, out *ReduceOut) {
			if key == "color" && n < failures {
				n++
				panic("transient reduce failure")
			}
			out.Emit(key, data.Row{rows[0][0], value.NewInt(int64(len(rows)))})
		}),
		OutputSchema: data.NewSchema("class", "count"),
		Output:       "pc",
		MapCost:      []cost.LocalFn{{Ops: []cost.OpType{cost.OpAttr}, Scalar: 1}},
		ReduceCost:   []cost.LocalFn{{Ops: []cost.OpType{cost.OpGroup}, Scalar: 1}},
	}
}

// TestEngineStoreByteReconciliation is the under-reported-volume
// regression: after recovered failures, the engine's Result must account
// every byte the store served, not just the successful attempt's — index
// builds and the rows probes matched included.
func TestEngineStoreByteReconciliation(t *testing.T) {
	for _, cfg := range []struct{ workers, reduceTasks int }{{1, 1}, {4, 3}} {
		st := storage.NewStore()
		loadWords(st)
		loadLexicon(st)
		params := cost.DefaultParams()
		params.ReduceTasks = cfg.reduceTasks
		e := New(st, params)
		e.Workers = cfg.workers
		e.MaxAttempts = 3
		before := st.Counters()
		_, pres, err := runOne(e, probeCount(2))
		if err != nil {
			t.Fatalf("workers=%d: probe job did not recover: %v", cfg.workers, err)
		}
		if got := st.Counters().BytesRead - before.BytesRead; got != pres.InputBytes+pres.RetriedInputBytes {
			t.Errorf("workers=%d: probe job: store read %d bytes, engine accounts %d", cfg.workers, got, pres.InputBytes+pres.RetriedInputBytes)
		}
		before = st.Counters()
		_, res, err := runOne(e, flakyWordCount(2))
		if err != nil {
			t.Fatalf("workers=%d: job did not recover: %v", cfg.workers, err)
		}
		after := st.Counters()

		// Two failed attempts each re-read the full input.
		if res.RetriedInputBytes != 2*res.InputBytes {
			t.Errorf("workers=%d: RetriedInputBytes = %d, want %d", cfg.workers, res.RetriedInputBytes, 2*res.InputBytes)
		}
		// Reduce-side panics waste the whole shuffle of each failed attempt.
		if res.RetriedShuffleBytes != 2*res.ShuffleBytes {
			t.Errorf("workers=%d: RetriedShuffleBytes = %d, want %d", cfg.workers, res.RetriedShuffleBytes, 2*res.ShuffleBytes)
		}
		if got, want := after.BytesRead-before.BytesRead, res.InputBytes+res.RetriedInputBytes; got != want {
			t.Errorf("workers=%d: store read %d bytes, engine accounts %d", cfg.workers, got, want)
		}
		// Failed attempts die before materializing: writes reconcile exactly.
		if got := after.BytesWritten - before.BytesWritten; got != res.OutputBytes {
			t.Errorf("workers=%d: store wrote %d bytes, engine accounts %d", cfg.workers, got, res.OutputBytes)
		}

		// A shared scan whose second job panics twice: each of its retries
		// re-reads the input, so the store serves the scan once plus every
		// retried read.
		before = st.Counters()
		_, run, err := e.Run(bind(st, projectJob(), flakyWordCount(2))...)
		if err != nil {
			t.Fatalf("workers=%d: shared scan did not recover: %v", cfg.workers, err)
		}
		scan, second := run.Results[0].InputBytes, run.Results[1]
		if second.Attempts != 3 || second.RetriedInputBytes != 2*scan {
			t.Errorf("workers=%d: secondary Attempts = %d, RetriedInputBytes = %d; want 3, %d",
				cfg.workers, second.Attempts, second.RetriedInputBytes, 2*scan)
		}
		want := scan
		for _, r := range run.Results {
			want += r.RetriedInputBytes
		}
		if got := st.Counters().BytesRead - before.BytesRead; got != want {
			t.Errorf("workers=%d: shared scan: store read %d bytes, engine accounts %d", cfg.workers, got, want)
		}
	}
}

// TestRetriedAccountingWorkerIndependent pins the whole Result — including
// the new retry fields — to be identical at any parallelism setting.
func TestRetriedAccountingWorkerIndependent(t *testing.T) {
	run := func(workers, reduceTasks int) Result {
		st := storage.NewStore()
		loadWords(st)
		params := cost.DefaultParams()
		params.ReduceTasks = reduceTasks
		e := New(st, params)
		e.Workers = workers
		e.MaxAttempts = 3
		_, res, err := runOne(e, flakyWordCount(2))
		if err != nil {
			t.Fatal(err)
		}
		return *res
	}
	ref := run(1, 1)
	for _, cfg := range []struct{ w, r int }{{2, 1}, {4, 4}, {8, 3}} {
		if got := run(cfg.w, cfg.r); got != ref {
			t.Errorf("workers=%d R=%d: Result differs:\n got %+v\nwant %+v", cfg.w, cfg.r, got, ref)
		}
	}
}

// TestMapOnlySchemaMismatchFails is the malformed-materialization
// regression: a map-only job whose MapOutSchema disagrees with OutputSchema
// must fail instead of materializing rows of the wrong width.
func TestMapOnlySchemaMismatchFails(t *testing.T) {
	e, st := newEngine()
	loadWords(st)
	job := &Job{
		Name:   "badproject",
		Inputs: []string{"docs"},
		BatchMapFactory: perRow(func(_ int, r data.Row, emit Emit) {
			emit("", data.Row{r[0]})
		}),
		MapOutSchema: data.NewSchema("id"),
		OutputSchema: data.NewSchema("id", "extra"), // width mismatch
		Output:       "bad",
	}
	_, _, err := runOne(e, job)
	if err == nil || !strings.Contains(err.Error(), "map-only") {
		t.Fatalf("schema mismatch accepted: err = %v", err)
	}
	if st.Has("bad") {
		t.Error("malformed output was materialized")
	}
}

// TestRunTasksLowestIndexedError checks runTasks reports the error of the
// lowest-indexed failed task regardless of worker count and scheduling, and
// runs every task to completion even after a failure.
func TestRunTasksLowestIndexedError(t *testing.T) {
	for _, w := range []int{1, 4} {
		var ran atomic.Int64
		err := runTasks(w, 8, func(i int) error {
			ran.Add(1)
			switch i {
			case 2:
				panic(fmt.Sprintf("panic in task %d", i))
			case 5:
				return fmt.Errorf("error in task %d", i)
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "task 2") {
			t.Errorf("w=%d: err = %v, want lowest-indexed (task 2)", w, err)
		}
		if ran.Load() != 8 {
			t.Errorf("w=%d: %d tasks ran, want all 8", w, ran.Load())
		}
	}
	// A panic in task 0 outranks a later error.
	for _, w := range []int{1, 4} {
		err := runTasks(w, 4, func(i int) error {
			if i == 0 {
				panic("task 0 died")
			}
			if i == 3 {
				return fmt.Errorf("task 3 failed")
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "task 0") {
			t.Errorf("w=%d: err = %v, want task 0's", w, err)
		}
	}
}

// TestEngineObsMetricsAndSpans checks the engine's instrumentation: counter
// totals match the Result, and the span tree carries per-attempt phase
// children with simulated seconds that reconcile with the breakdown.
func TestEngineObsMetricsAndSpans(t *testing.T) {
	reg := obs.NewRegistry()
	e, st := newEngine()
	loadWords(st)
	e.Obs = reg
	e.MaxAttempts = 3
	before := reg.Snapshot()
	_, res, err := runRecorded(e, flakyWordCount(2))
	if err != nil {
		t.Fatal(err)
	}
	d := reg.Snapshot().Diff(before)

	wantCounters := map[string]int64{
		"mr_jobs_total":                  1,
		"mr_attempts_total":              3,
		"mr_retries_total":               2,
		"mr_input_bytes_total":           res.InputBytes,
		"mr_shuffle_bytes_total":         res.ShuffleBytes,
		"mr_output_bytes_total":          res.OutputBytes,
		"mr_retried_input_bytes_total":   res.RetriedInputBytes,
		"mr_retried_shuffle_bytes_total": res.RetriedShuffleBytes,
	}
	for k, want := range wantCounters {
		if got := d.Counters[k]; got != want {
			t.Errorf("%s = %d, want %d", k, got, want)
		}
	}
	if got := d.FloatCounters["mr_sim_seconds_total"]; got != res.SimSeconds {
		t.Errorf("mr_sim_seconds_total = %g, want %g", got, res.SimSeconds)
	}
	if got := d.FloatCounters["mr_wasted_sim_seconds_total"]; got != res.WastedSeconds {
		t.Errorf("mr_wasted_sim_seconds_total = %g, want %g", got, res.WastedSeconds)
	}
	if d.Histograms["mr_job_wall_seconds"].Count != 1 {
		t.Error("job wall-clock not observed")
	}

	spans := reg.Spans()
	if len(spans) != 1 {
		t.Fatalf("root spans = %d, want 1", len(spans))
	}
	root := spans[0]
	if root.Job != "wordcount" || root.Phase != "job" {
		t.Errorf("root span = %+v", root)
	}
	if len(root.Children) != 3 {
		t.Fatalf("attempt spans = %d, want 3", len(root.Children))
	}
	if math.Abs(root.SimSeconds-res.SimSeconds) > 1e-12 {
		t.Errorf("root sim = %g, want %g", root.SimSeconds, res.SimSeconds)
	}
	// The successful (last) attempt has the full phase tree; its phases'
	// simulated seconds reconcile with the cost breakdown.
	last := root.Children[2]
	var phases []string
	var phaseSim float64
	for _, c := range last.Children {
		phases = append(phases, c.Phase)
		phaseSim += c.SimSeconds
		for _, g := range c.Children {
			phaseSim += g.SimSeconds
		}
	}
	want := []string{"split", "map", "shuffle", "reduce", "materialize"}
	if strings.Join(phases, ",") != strings.Join(want, ",") {
		t.Errorf("phases = %v, want %v", phases, want)
	}
	if total := res.Breakdown.Total(); math.Abs(phaseSim-total) > 1e-9*math.Max(1, total) {
		t.Errorf("phase sim sum = %g, breakdown total = %g", phaseSim, total)
	}
	// Failed attempts are charged their partial cost on their span.
	if root.Children[0].SimSeconds <= 0 {
		t.Error("failed attempt span carries no simulated time")
	}
	sumAttempts := root.Children[0].SimSeconds + root.Children[1].SimSeconds + root.Children[2].SimSeconds
	if math.Abs(sumAttempts-res.SimSeconds) > 1e-12 {
		t.Errorf("attempt sims sum to %g, want %g", sumAttempts, res.SimSeconds)
	}
}
