package mr

import (
	"errors"
	"math"
	"testing"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/fault"
	"opportune/internal/obs"
	"opportune/internal/storage"
)

// TestProbeJobAccounting: a job's lookups charge the stored rows they
// matched as input rows and bytes, the run that builds an index is charged
// one map-only scan of it and later runs nothing, the phase spans add up to
// the breakdown, and the whole Result is the same at any parallelism.
func TestProbeJobAccounting(t *testing.T) {
	run := func(workers, reduceTasks int, reg *obs.Registry) (first, second *Result, out *data.Relation) {
		st := storage.NewStore()
		loadWords(st)
		loadLexicon(st)
		params := cost.DefaultParams()
		params.ReduceTasks = reduceTasks
		params.SplitRows = 2
		e := New(st, params)
		e.Workers = workers
		var err error
		if _, first, err = runOne(e, probeCount(0)); err != nil {
			t.Fatal(err)
		}
		e.Obs = reg
		if out, second, err = runRecorded(e, probeCount(0)); err != nil {
			t.Fatal(err)
		}
		return first, second, out
	}
	reg := obs.NewRegistry()
	first, second, out := run(1, 1, reg)
	// "red" occurs four times and matches two entries; "beer" once.
	want := map[string]int64{"color": 4, "wine-color": 4, "drink": 1}
	if out.Len() != len(want) {
		t.Fatalf("output %v, want %v", out.Rows(), want)
	}
	for _, r := range out.Rows() {
		if want[r[0].Str()] != r[1].Int() {
			t.Errorf("class %s counted %d, want %d", r[0].Str(), r[1].Int(), want[r[0].Str()])
		}
	}
	if second.ProbeRows != 9 || second.InputRows != 3+9 {
		t.Errorf("ProbeRows %d, InputRows %d; want 9 matched stored rows on top of 3 docs", second.ProbeRows, second.InputRows)
	}
	if first.IndexRows != 5 || second.IndexRows != 0 {
		t.Errorf("IndexRows %d then %d: the first run builds the 5-row index, the second reuses it", first.IndexRows, second.IndexRows)
	}
	if d := first.InputBytes - second.InputBytes; d <= 0 || first.SimSeconds <= second.SimSeconds {
		t.Errorf("the building run read %d more bytes and cost %g vs %g sim-s: it must pay for the build",
			d, first.SimSeconds, second.SimSeconds)
	}
	if got := reg.Snapshot().Counters["mr_probe_rows_total"]; got != second.ProbeRows {
		t.Errorf("mr_probe_rows_total = %d, want %d", got, second.ProbeRows)
	}
	var phaseSim float64
	for _, c := range reg.Spans()[0].Children[0].Children {
		phaseSim += c.SimSeconds
		for _, g := range c.Children {
			phaseSim += g.SimSeconds
		}
	}
	if total := second.Breakdown.Total(); math.Abs(phaseSim-total) > 1e-9*math.Max(1, total) {
		t.Errorf("phase sim sum = %g, breakdown total = %g", phaseSim, total)
	}
	for _, cfg := range []struct{ w, r int }{{4, 3}, {8, 2}} {
		f, s, _ := run(cfg.w, cfg.r, obs.NewRegistry())
		if *f != *first || *s != *second {
			t.Errorf("workers=%d R=%d: Results differ:\n got %+v\n     %+v\nwant %+v\n     %+v", cfg.w, cfg.r, *f, *s, *first, *second)
		}
	}
}

// TestProbeReadFault: opening a probed index is a read of its dataset, so
// a scripted read fault on it fails the job before anything is served.
func TestProbeReadFault(t *testing.T) {
	e, st := newEngine()
	loadWords(st)
	loadLexicon(st)
	inj := fault.NewInjector(&fault.Plan{Faults: []fault.Fault{{Kind: fault.KindReadError, Dataset: "lexicon", FailReads: 1}}})
	e.Faults = inj
	st.SetFaults(inj)
	before := st.Counters()
	_, res, err := runOne(e, probeCount(0))
	var fired *fault.Fired
	if !errors.As(err, &fired) {
		t.Fatalf("err = %v, want the scripted read fault", err)
	}
	if got := st.Counters().BytesRead - before.BytesRead; got != res.InputBytes {
		t.Errorf("store read %d bytes, the failed attempt accounts %d", got, res.InputBytes)
	}
	if st.Has("pc") {
		t.Error("the failed job materialized its output")
	}
}
