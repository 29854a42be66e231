package mr

import (
	"reflect"
	"strings"
	"testing"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/fault"
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
		OutputKind:   storage.View,
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

// TestSharedScanMatchesStandalone proves the meta-job's contract: every
// consumer's relation and Result are identical to what standalone Runs
// produce, and the reported saving is (n-1) scans.
func TestSharedScanMatchesStandalone(t *testing.T) {
	mk := func() []*Job { return []*Job{wordCountJob(), projectJob(), longWordsJob()} }

	// Standalone reference: each job on a fresh engine over the same data.
	var wantRes []*Result
	var wantFP []uint64
	for _, job := range mk() {
		e, _ := newEngine()
		loadWords(e.Store)
		rel, res, err := e.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		wantRes = append(wantRes, res)
		wantFP = append(wantFP, rel.Fingerprint())
	}

	e, st := newEngine()
	loadWords(st)
	jobs := mk()
	rels, out, err := e.RunSharedScan(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 3 || len(out.Results) != 3 {
		t.Fatalf("got %d rels, %d results", len(rels), len(out.Results))
	}
	for i := range jobs {
		if rels[i].Fingerprint() != wantFP[i] {
			t.Errorf("consumer %d: relation differs from standalone run", i)
		}
		if !reflect.DeepEqual(out.Results[i], wantRes[i]) {
			t.Errorf("consumer %d: result differs:\n shared    %+v\n standalone %+v", i, out.Results[i], wantRes[i])
		}
		checkInvariant(t, out.Results[i])
		if !st.Has(jobs[i].Output) {
			t.Errorf("consumer %d: output %q not materialized", i, jobs[i].Output)
		}
	}
	if out.ScanBytes != wantRes[0].InputBytes || out.ScanRows != wantRes[0].InputRows {
		t.Errorf("scan volumes = %d/%d, want %d/%d", out.ScanBytes, out.ScanRows, wantRes[0].InputBytes, wantRes[0].InputRows)
	}
	if out.SavedBytes != 2*out.ScanBytes {
		t.Errorf("SavedBytes = %d, want %d", out.SavedBytes, 2*out.ScanBytes)
	}
	if want := e.Params.SharedScanSavings(out.ScanBytes, 3); out.SavedSeconds != want {
		t.Errorf("SavedSeconds = %g, want %g", out.SavedSeconds, want)
	}
	// The physical read happened once: the store counted one scan of the
	// input, not three.
	if got := st.Counters().BytesRead; got != out.ScanBytes {
		t.Errorf("store read %d bytes, want one scan = %d", got, out.ScanBytes)
	}
}

// TestSharedScanReadFaultChargesPrimary proves a read fault during the
// shared split phase lands on the first consumer with standalone-identical
// accounting, while later consumers (whose standalone runs would have read
// after the fault budget drained) stay clean.
func TestSharedScanReadFaultChargesPrimary(t *testing.T) {
	plan := &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.KindReadError, Dataset: "docs", FailReads: 1},
	}}

	// Standalone reference: the first job against a fresh injector.
	eA, _ := newFaultedEngine(t, plan)
	eA.MaxAttempts = 3
	_, want, err := eA.Run(wordCountJob())
	if err != nil {
		t.Fatal(err)
	}
	if want.Attempts != 2 || want.RetriedInputBytes != 0 {
		// The fault fires on the first of three per-input reads; the failed
		// attempt read nothing, so only the attempt count moves.
		t.Fatalf("unexpected standalone shape: %+v", want)
	}

	eB, _ := newFaultedEngine(t, plan)
	eB.MaxAttempts = 3
	_, out, err := eB.RunSharedScan([]*Job{wordCountJob(), projectJob()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Results[0], want) {
		t.Errorf("primary result differs:\n shared    %+v\n standalone %+v", out.Results[0], want)
	}
	if !strings.Contains(out.Results[0].RecoveredError, "injected read error") {
		t.Errorf("RecoveredError = %q", out.Results[0].RecoveredError)
	}
	if out.Results[1].Attempts != 1 || out.Results[1].RecoveredError != "" {
		t.Errorf("secondary saw the fault: %+v", out.Results[1])
	}
	checkInvariant(t, out.Results[0])
	checkInvariant(t, out.Results[1])
}

// TestSharedScanRejectsMismatchedInputs: the meta-job is only defined for
// identical input lists.
func TestSharedScanRejectsMismatchedInputs(t *testing.T) {
	e, st := newEngine()
	loadWords(st)
	other := data.NewRelation(data.NewSchema("id", "text"))
	other.Append(data.Row{value.NewInt(1), value.NewStr("x")})
	st.Put("other", storage.Base, other)

	bad := projectJob()
	bad.Inputs = []string{"other"}
	if _, _, err := e.RunSharedScan([]*Job{wordCountJob(), bad}); err == nil {
		t.Fatal("mismatched inputs accepted")
	}
	if _, _, err := e.RunSharedScan(nil); err == nil {
		t.Fatal("empty consumer list accepted")
	}
}
