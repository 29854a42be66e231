package mr

import (
	"reflect"
	"strings"
	"testing"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/fault"
	"opportune/internal/obs"
	"opportune/internal/storage"
	"opportune/internal/value"
)

// projectJob is a map-only consumer of the words fixture.
func projectJob() *Job {
	schema := data.NewSchema("id")
	return &Job{
		Name:   "project-ids",
		Inputs: []string{"docs"},
		BatchMapFactory: perRow(func(_ int, r data.Row, emit Emit) {
			emit("", data.Row{r[0]})
		}),
		MapOutSchema: schema,
		OutputSchema: schema,
		Output:       "ids",
		MapCost:      []cost.LocalFn{{Ops: []cost.OpType{cost.OpFilter}, Scalar: 1}},
	}
}

// longWordsJob counts only words longer than three characters.
func longWordsJob() *Job {
	j := wordCountJob()
	j.Name = "longwords"
	j.Output = "lw"
	base := j.BatchMapFactory
	j.BatchMapFactory = func(ctx TaskCtx) BatchMapFunc {
		fn := base(ctx)
		return func(input int, rows []data.Row, emit Emit) BatchReport {
			return fn(input, rows, func(key string, row data.Row) {
				if len(key) > 3 {
					emit(key, row)
				}
			})
		}
	}
	return j
}

// TestSharedScanMatchesStandalone proves the shared scan's contract: every
// job's relation and Result are identical to what the job run alone
// produces, the store reads the input once, and the reported saving is
// (n-1) scans.
func TestSharedScanMatchesStandalone(t *testing.T) {
	mk := func() []*Job { return []*Job{wordCountJob(), projectJob(), longWordsJob()} }

	// Reference: each job alone on a fresh engine over the same data.
	var wantRes []*Result
	var wantFP []uint64
	for _, job := range mk() {
		e, _ := newEngine()
		loadWords(e.Store)
		rel, res, err := runOne(e, job)
		if err != nil {
			t.Fatal(err)
		}
		wantRes = append(wantRes, res)
		wantFP = append(wantFP, rel.Fingerprint())
	}

	e, st := newEngine()
	loadWords(st)
	jobs := bind(st, mk()...)
	outs, out, err := e.Run(jobs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 || len(out.Results) != 3 {
		t.Fatalf("got %d outputs, %d results", len(outs), len(out.Results))
	}
	for i := range jobs {
		if outs[i].Relation().Fingerprint() != wantFP[i] {
			t.Errorf("job %d: relation differs from its run alone", i)
		}
		if !reflect.DeepEqual(out.Results[i], wantRes[i]) {
			t.Errorf("job %d: result differs:\n shared %+v\n alone  %+v", i, out.Results[i], wantRes[i])
		}
		checkInvariant(t, out.Results[i])
		if !st.Has(jobs[i].Output) {
			t.Errorf("job %d: output %q not materialized", i, jobs[i].Output)
		}
	}
	scan := wantRes[0].InputBytes
	if out.SavedBytes != 2*scan {
		t.Errorf("SavedBytes = %d, want %d", out.SavedBytes, 2*scan)
	}
	// The physical read happened once: the store counted one scan of the
	// input, not three.
	if got := st.Counters().BytesRead; got != scan {
		t.Errorf("store read %d bytes, want one scan = %d", got, scan)
	}
}

// TestSharedScanReadFaultChargesPrimary: a read fault on the shared scan
// lands on the first job, whose retry re-reads the input, while a later
// job (which takes that read) stays clean — for a scan of one, a job run
// alone, as for a scan of two.
func TestSharedScanReadFaultChargesPrimary(t *testing.T) {
	plan := &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.KindReadError, Dataset: "docs", FailReads: 1},
	}}
	for _, jobs := range [][]*Job{{wordCountJob()}, {wordCountJob(), projectJob()}} {
		e, st := newFaultedEngine(t, plan)
		e.MaxAttempts = 3
		_, out, err := e.Run(bind(st, jobs...)...)
		if err != nil {
			t.Fatal(err)
		}
		first := out.Results[0]
		// The fault fires on the first attempt's one read; the failed
		// attempt read nothing, so only the attempt count moves.
		if first.Attempts != 2 || first.RetriedInputBytes != 0 {
			t.Errorf("%d jobs: first job Attempts = %d, RetriedInputBytes = %d; want 2, 0",
				len(jobs), first.Attempts, first.RetriedInputBytes)
		}
		if !strings.Contains(first.RecoveredError, "injected read error") {
			t.Errorf("%d jobs: RecoveredError = %q", len(jobs), first.RecoveredError)
		}
		for _, res := range out.Results[1:] {
			if res.Attempts != 1 || res.RecoveredError != "" {
				t.Errorf("secondary saw the fault: %+v", res)
			}
		}
		for _, res := range out.Results {
			checkInvariant(t, res)
		}
		if got := st.Counters().BytesRead; got != first.InputBytes {
			t.Errorf("%d jobs: store read %d bytes, want one scan = %d", len(jobs), got, first.InputBytes)
		}
	}
}

// TestSharedScanRejectsMismatchedInputs: a shared scan is only defined for
// identical input lists, and for at least one job.
func TestSharedScanRejectsMismatchedInputs(t *testing.T) {
	e, st := newEngine()
	loadWords(st)
	other := data.NewRelation(data.NewSchema("id", "text"))
	other.Append(data.Row{value.NewInt(1), value.NewStr("x")})
	st.Put("other", storage.Base, other)

	bad := projectJob()
	bad.Inputs = []string{"other"}
	if _, _, err := e.Run(bind(st, wordCountJob(), bad)...); err == nil {
		t.Fatal("mismatched inputs accepted")
	}
	if _, _, err := e.Run(); err == nil {
		t.Fatal("empty job list accepted")
	}
}

// TestRunValidatesBeforeRunning: a job that fails validation fails the Run
// before anything runs — no attempt, no read, no span, no output, no Result
// to record — whether it runs alone or second in a scan of two.
func TestRunValidatesBeforeRunning(t *testing.T) {
	invalid := func() *Job {
		j := projectJob()
		j.BatchMapFactory = nil
		return j
	}
	for _, jobs := range [][]*Job{{invalid()}, {wordCountJob(), invalid()}} {
		e, st := newEngine()
		loadWords(st)
		e.Obs = obs.NewRegistry()
		before := st.Counters()
		rels, out, err := e.Run(bind(st, jobs...)...)
		if err == nil || !strings.Contains(err.Error(), "no map function") {
			t.Fatalf("%d jobs: err = %v, want a validation error", len(jobs), err)
		}
		if rels != nil || out != nil {
			t.Errorf("%d jobs: Run returned %v, %+v for an invalid job", len(jobs), rels, out)
		}
		if got := st.Counters(); got != before {
			t.Errorf("%d jobs: store counters moved: %+v → %+v", len(jobs), before, got)
		}
		if spans := e.Obs.Spans(); len(spans) != 0 {
			t.Errorf("%d jobs: %d spans recorded, want none", len(jobs), len(spans))
		}
		for _, j := range jobs {
			if st.Has(j.Output) {
				t.Errorf("%d jobs: output %q materialized", len(jobs), j.Output)
			}
		}
	}
}
