package session

import (
	"testing"

	"opportune/internal/cost"
	"opportune/internal/fault"
	"opportune/internal/obs"
	"opportune/internal/plan"
	"opportune/internal/storage"
)

// TestFailedBatchEnforcesBudget: a batch that fails mid-execution must leave
// the store and catalog as a failed sequential Run does — pins released,
// view bytes back under the budget (outputs were admitted over it under the
// pins), and no catalog entry for a view the batch's materializations
// evicted — and must publish the record of every job it ran, the failed
// one included, so the engine's byte counters reconcile with the store's.
func TestFailedBatchEnforcesBudget(t *testing.T) {
	s := demo(t, 400)
	if _, err := s.Run(q(), "warm", ModeOriginal); err != nil {
		t.Fatal(err)
	}
	if len(s.Cat.Views()) == 0 {
		t.Fatal("warm-up retained no views")
	}
	s.Store.ViewCapacityBytes = 1 // any one view exceeds it
	reg := obs.NewRegistry()
	s.Instrument(reg)

	// The group-by job materializes; the filter job after it exhausts its
	// task retries and sinks the batch.
	s.InjectFaults(fault.NewInjector(&fault.Plan{Faults: []fault.Fault{
		{Job: "job1-filter", Phase: fault.PhaseMap, Task: 0, Kind: fault.KindPanic, FailAttempts: 99},
	}}))
	if _, err := s.RunBatch([]BatchQuery{{Plan: qThresh(2), ResultName: "res", Mode: ModeOriginal}}); err == nil {
		t.Fatal("batch survived a job whose every attempt panics")
	}

	if vb := s.Store.ViewBytes(); vb > s.Store.ViewCapacityBytes {
		t.Errorf("view bytes %d exceed capacity %d after the failed batch", vb, s.Store.ViewCapacityBytes)
	}
	for _, v := range s.Cat.Views() {
		if !s.Store.Has(v.Name) {
			t.Errorf("catalog lists evicted view %s", v.Name)
		}
	}

	c := reg.Snapshot().Counters
	if c["mr_jobs_total"] != 2 || c["mr_job_failures_total"] != 1 {
		t.Errorf("mr_jobs_total = %d, mr_job_failures_total = %d; want the group-by and the failed filter: 2, 1",
			c["mr_jobs_total"], c["mr_job_failures_total"])
	}
	read := c["storage_read_bytes_total"]
	if engine := c["mr_input_bytes_total"] + c["mr_retried_input_bytes_total"]; read == 0 || engine != read {
		t.Errorf("engine input bytes %d, store read bytes %d: every byte the batch read must be recorded", engine, read)
	}
}

// TestBudgetRunsUnitsInRankOrder: eviction ranks views by access order, so
// under a view budget a batch's independent units must write the store in
// rank order — the order sequential execution writes them — and not in
// whatever order their goroutines finish. The rank-0 query here is the
// heavy one; run concurrently it would finish last.
func TestBudgetRunsUnitsInRankOrder(t *testing.T) {
	for i := 0; i < 10; i++ {
		s := demo(t, 20000)
		logs, err := s.Store.Read("logs")
		if err != nil {
			t.Fatal(err)
		}
		s.Store.Put("logs2", storage.Base, logs) // a second input list: no shared scan
		s.Cat.RegisterBase("logs2", []string{"id", "user", "text"}, "id",
			cost.Stats{Rows: int64(logs.Len()), Bytes: logs.EncodedSize()}, map[string]int64{"user": 5})
		s.Store.ViewCapacityBytes = 1 << 40 // a budget nothing exceeds
		heavy := plan.GroupAgg(plan.Apply(plan.Scan("logs"), "W", []string{"text"}),
			[]string{"user"}, plan.AggSpec{Func: plan.AggSum, Col: "w", As: "s"})
		light := plan.GroupAgg(plan.Scan("logs2"), []string{"user"}, plan.AggSpec{Func: plan.AggCount, As: "n"})
		if _, err := s.RunBatch([]BatchQuery{
			{Plan: heavy, ResultName: "heavy", Mode: ModeOriginal},
			{Plan: light, ResultName: "light", Mode: ModeOriginal},
		}); err != nil {
			t.Fatal(err)
		}
		first, _ := s.Store.Meta("heavy")
		second, _ := s.Store.Meta("light")
		if first == nil || second == nil || first.CreatedSeq > second.CreatedSeq {
			t.Fatalf("batch %d: the rank-1 query's output was written before the rank-0 query's", i)
		}
	}
}
