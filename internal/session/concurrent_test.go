package session

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"opportune/internal/expr"
	"opportune/internal/plan"
	"opportune/internal/value"
)

// qThresh is q() with a configurable HAVING threshold, giving the stress
// tests a small family of distinct-but-overlapping queries.
func qThresh(th float64) *plan.Node {
	agg := plan.GroupAgg(
		plan.Apply(plan.Scan("logs"), "W", []string{"text"}),
		[]string{"user"}, plan.AggSpec{Func: plan.AggSum, Col: "w", As: "s"})
	return plan.Filter(agg, expr.NewCmp("s", expr.Gt, value.NewFloat(th)))
}

// multisetFP fingerprints a result irrespective of row order: concurrent
// runs may execute different (rewritten) plans whose reduce order differs,
// but the row multiset must match serial execution exactly.
func multisetFP(s *Session, name string) (uint64, error) {
	rel, err := s.Store.Read(name)
	if err != nil {
		return 0, err
	}
	var fp uint64
	for _, r := range rel.Rows() {
		h := fnv.New64a()
		for _, v := range r {
			h.Write([]byte(v.String()))
			h.Write([]byte{0})
		}
		fp ^= h.Sum64()
	}
	return fp ^ uint64(rel.Len()), nil
}

// TestConcurrentSessionRunStress drives one shared Session (and therefore
// one shared Store and Catalog) from many goroutines under `go test -race`:
// planning serializes on planMu, execution overlaps, every job output is
// registered and stats-sampled concurrently, and results must match serial
// runs of the same queries on an identical system.
func TestConcurrentSessionRunStress(t *testing.T) {
	const goroutines = 8
	const perG = 4

	shared := demo(t, 400)
	shared.Eng.Workers = 4

	// Serial reference: same data, same query family, fresh system.
	ref := demo(t, 400)
	refFP := make(map[float64]uint64)
	for _, th := range []float64{0, 1, 2} {
		name := fmt.Sprintf("ref-%g", th)
		if _, err := ref.Run(qThresh(th), name, ModeOriginal); err != nil {
			t.Fatal(err)
		}
		fp, err := multisetFP(ref, name)
		if err != nil {
			t.Fatal(err)
		}
		refFP[th] = fp
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	type done struct {
		name string
		th   float64
	}
	dones := make(chan done, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				th := float64((g + i) % 3)
				mode := ModeOriginal
				if (g+i)%2 == 1 {
					mode = ModeBFR
				}
				name := fmt.Sprintf("res-g%d-i%d", g, i)
				if _, err := shared.Run(qThresh(th), name, mode); err != nil {
					errs <- fmt.Errorf("g%d i%d: %w", g, i, err)
					return
				}
				dones <- done{name, th}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	close(dones)
	for err := range errs {
		t.Fatal(err)
	}
	for d := range dones {
		// A BFR run may answer from an existing materialization, in which
		// case its result name was never written; the metrics carry the
		// real name, but here it is enough to check written results.
		if !shared.Store.Has(d.name) {
			continue
		}
		fp, err := multisetFP(shared, d.name)
		if err != nil {
			t.Fatal(err)
		}
		if fp != refFP[d.th] {
			t.Errorf("%s (threshold %g): result differs from serial reference", d.name, d.th)
		}
	}
}

// TestConcurrentRunsUnderCapacityPressure adds a view-capacity budget so
// concurrent plans continually evict each other's retained views, their
// running inputs and intermediates included. Every run must still succeed:
// a run reads the versions it holds handles on, evicted or not.
func TestConcurrentRunsUnderCapacityPressure(t *testing.T) {
	const goroutines = 6
	const perG = 3

	s := demo(t, 300)
	s.Eng.Workers = 2
	// Roughly two retained views' worth of budget: constant churn.
	if _, err := s.Run(qThresh(0), "probe", ModeOriginal); err != nil {
		t.Fatal(err)
	}
	probe, _ := s.Store.Meta("probe")
	s.Store.ViewCapacityBytes = 4 * probe.SizeBytes
	s.DropViews()

	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				name := fmt.Sprintf("cap-g%d-i%d", g, i)
				if _, err := s.Run(qThresh(float64(i%3)), name, ModeOriginal); err != nil {
					errs <- fmt.Errorf("g%d i%d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Once the runs are done, the budget holds.
	s.Store.EnforceBudget()
	if vb := s.Store.ViewBytes(); vb > s.Store.ViewCapacityBytes {
		t.Errorf("view bytes %d exceed capacity %d after EnforceBudget", vb, s.Store.ViewCapacityBytes)
	}
}

// TestRetentionSkipsViewsDroppedMidway: a query that executed must not fail
// because its outputs lost their catalog entry before the statistics sample
// (here a concurrent DropViews; under a budget, an eviction). The run's
// handles keep the data; the view is simply not retained.
func TestRetentionSkipsViewsDroppedMidway(t *testing.T) {
	s := demo(t, 300)
	s.Eng.Workers = 2
	stop := make(chan struct{})
	var dropper sync.WaitGroup
	dropper.Add(1)
	go func() {
		defer dropper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.DropViews()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := s.Run(qThresh(float64(i%3)), fmt.Sprintf("drop-g%d-i%d", g, i), ModeOriginal); err != nil {
					t.Errorf("g%d i%d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	dropper.Wait()
}
