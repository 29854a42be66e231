package session

import (
	"testing"

	"opportune/internal/fault"
)

// TestFailedBatchEnforcesBudget: a batch that fails mid-execution must leave
// the store and catalog as a failed sequential Run does — pins released,
// view bytes back under the budget (outputs were admitted over it under the
// pins), and no catalog entry for a view the batch's materializations
// evicted.
func TestFailedBatchEnforcesBudget(t *testing.T) {
	s := demo(t, 400)
	if _, err := s.Run(q(), "warm", ModeOriginal); err != nil {
		t.Fatal(err)
	}
	if len(s.Cat.Views()) == 0 {
		t.Fatal("warm-up retained no views")
	}
	s.Store.ViewCapacityBytes = 1 // any one view exceeds it

	// The group-by job materializes; the filter job after it exhausts its
	// task retries and sinks the batch.
	s.InjectFaults(fault.NewInjector(&fault.Plan{Faults: []fault.Fault{
		{Job: "job1-filter", Phase: fault.PhaseMap, Task: 0, Kind: fault.KindPanic, FailAttempts: 99},
	}}))
	if _, err := s.RunBatch([]BatchQuery{{Plan: qThresh(2), ResultName: "res", Mode: ModeOriginal}}, BatchOptions{}); err == nil {
		t.Fatal("batch survived a job whose every attempt panics")
	}

	if pins := s.Store.Pins(); len(pins) != 0 {
		t.Errorf("pins left behind: %v", pins)
	}
	if vb := s.Store.ViewBytes(); vb > s.Store.ViewCapacityBytes {
		t.Errorf("view bytes %d exceed capacity %d after the failed batch", vb, s.Store.ViewCapacityBytes)
	}
	for _, v := range s.Cat.Views() {
		if !s.Store.Has(v.Name) {
			t.Errorf("catalog lists evicted view %s", v.Name)
		}
	}
}
