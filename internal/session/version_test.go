package session

import (
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"opportune/internal/expr"
	"opportune/internal/plan"
	"opportune/internal/udf"
	"opportune/internal/value"
)

// gate is a map UDF that can hold the run calling it: once armed, its
// first call signals entered and waits for release, so the job that made
// it stays in its map phase, after its split phase read every input.
type gate struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

// addGate registers two gated map UDFs on s: G(text) counts "wine" like
// W, and H(x) passes x through.
func addGate(t *testing.T, s *Session) *gate {
	t.Helper()
	g := &gate{entered: make(chan struct{}), release: make(chan struct{})}
	hold := func() {
		if g.armed.CompareAndSwap(true, false) {
			close(g.entered)
			<-g.release
		}
	}
	for _, d := range []*udf.Descriptor{{
		Name: "G", NArgs: 1, Kind: udf.KindMap, OutNames: []string{"w"}, TrueScalar: 5,
		Map: func(args, _ []value.V) [][]value.V {
			hold()
			return [][]value.V{{value.NewInt(int64(strings.Count(args[0].Str(), "wine")))}}
		},
	}, {
		Name: "H", NArgs: 1, Kind: udf.KindMap, OutNames: []string{"h"}, TrueScalar: 1,
		Map: func(args, _ []value.V) [][]value.V {
			hold()
			return [][]value.V{{args[0]}}
		},
	}} {
		if err := s.Cat.UDFs.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// held starts run on its own goroutine with the gate armed and returns
// once the run is held inside G or H; wait releases it and returns what
// the run returned.
func (g *gate) held(run func() (*Metrics, error)) (wait func() (*Metrics, error)) {
	type ran struct {
		m   *Metrics
		err error
	}
	done := make(chan ran, 1)
	g.armed.Store(true)
	go func() {
		m, err := run()
		done <- ran{m, err}
	}()
	<-g.entered
	return func() (*Metrics, error) {
		close(g.release)
		r := <-done
		return r.m, r.err
	}
}

// gatedDemo is demo with the gated UDFs.
func gatedDemo(t *testing.T, rows int) (*Session, *gate) {
	s := demo(t, rows)
	return s, addGate(t, s)
}

// perUserSum is a maintainable view: a per-user SUM over the map UDF G.
func perUserSum() *plan.Node {
	return plan.GroupAgg(plan.Apply(plan.Scan("logs"), "G", []string{"text"}),
		[]string{"user"}, plan.AggSpec{Func: plan.AggSum, Col: "w", As: "s"})
}

// TestRunStraddlingAnAppendReadsOneVersion: an append that lands while a
// run is inside its first job changes nothing the run reads. The plan
// counts each user's rows twice, through G (job 1, held) and through a
// filtered group-by (job 2, started after the append), and joins the counts
// (job 3): every user's two counts agree, and the answer is a clean
// recompute over the base the run was planned on.
func TestRunStraddlingAnAppendReadsOneVersion(t *testing.T) {
	query := func() *plan.Node {
		viaG := plan.GroupAgg(plan.Apply(plan.Scan("logs"), "G", []string{"text"}),
			[]string{"user"}, plan.AggSpec{Func: plan.AggCount, As: "n1"})
		// A predicate every row passes keeps the second count from being the
		// same view as the first under another producing job.
		all := plan.Filter(plan.Scan("logs"), expr.NewCmp("id", expr.Ge, value.NewInt(0)))
		plain := plan.ProjectAs(plan.GroupAgg(all, []string{"user"},
			plan.AggSpec{Func: plan.AggCount, As: "n2"}), []string{"user", "n2"}, []string{"u2", "n2"})
		return plan.JoinNodes(viaG, plain, "user", "u2")
	}
	s, g := gatedDemo(t, 300)
	wait := g.held(func() (*Metrics, error) { return s.Run(query(), "straddle", ModeOriginal) })
	if _, err := s.AppendRows("logs", ivmBatch(10000, 50)); err != nil {
		t.Fatal(err)
	}
	m, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if m.Jobs != 3 {
		t.Fatalf("setup: the plan ran %d jobs, want 3", m.Jobs)
	}
	rel := m.Result
	n1, n2 := rel.Schema().MustIndex("n1"), rel.Schema().MustIndex("n2")
	for _, r := range rel.Rows() {
		if value.Compare(r[n1], r[n2]) != 0 {
			t.Errorf("user row %v: the two counts read different versions of logs", r)
		}
	}
	ref, _ := gatedDemo(t, 300)
	want, err := ref.Run(query(), "straddle", ModeOriginal)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Fingerprint() != want.Result.Fingerprint() {
		t.Errorf("the straddling run answers %v, a pre-append recompute %v", rel.Rows(), want.Result.Rows())
	}
}

// TestStaleRunPublishesNoBytes: a run planned before an append must not
// write over what the append maintained. The run recomputes the standing
// view V (the per-user sums) as its first job and is held there while an
// append maintains V. Its write of V's name is then refused: a rewritten
// query asked before the run's retention reads the maintained V, and the
// refused retention leaves V listed with the maintained bytes.
func TestStaleRunPublishesNoBytes(t *testing.T) {
	histogram := func() *plan.Node {
		return plan.GroupAgg(perUserSum(), []string{"s"}, plan.AggSpec{Func: plan.AggCount, As: "n"})
	}
	s, g := gatedDemo(t, 300)
	first, err := s.Run(histogram(), "first", ModeOriginal)
	if err != nil {
		t.Fatal(err)
	}
	if first.Jobs != 2 {
		t.Fatalf("setup: the plan ran %d jobs, want 2", first.Jobs)
	}
	var view string
	for _, v := range s.Cat.Views() {
		if v.Name != "first" {
			view = v.Name
		}
	}
	batch := ivmBatch(10000, 50)
	ref, _ := gatedDemo(t, 300)
	if _, err := ref.AppendRows("logs", batch); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(perUserSum(), "sums", ModeOriginal)
	if err != nil {
		t.Fatal(err)
	}

	wait := g.held(func() (*Metrics, error) { return s.Run(histogram(), "held", ModeOriginal) })
	rep, err := s.AppendRows("logs", batch)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(rep.Maintained, view) {
		t.Fatalf("setup: the append did not maintain %s: %v", view, rep.Reasons)
	}
	asked := false
	BeforeRegister(s, func(string) {
		if asked {
			return
		}
		asked = true
		m, err := s.Run(perUserSum(), "sums", ModeBFR)
		if err != nil {
			t.Error(err)
			return
		}
		if m.Result.Fingerprint() != want.Result.Fingerprint() {
			t.Errorf("a query asked after the append answers %v, a recompute over the grown base %v",
				m.Result.Rows(), want.Result.Rows())
		}
	})
	_, err = wait()
	BeforeRegister(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !asked {
		t.Fatal("setup: the held run registered nothing")
	}
	if _, listed := s.Cat.Table(view); !listed {
		t.Fatalf("the stale run's retention unlisted the maintained %s", view)
	}
	got, err := s.Store.Read(view)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Result.Fingerprint() {
		t.Errorf("%s holds %v after the stale run, a recompute over the grown base %v", view, got.Rows(), want.Result.Rows())
	}
}

// TestRemovalMidRun: Delete, DropViews and eviction each remove a view a
// held run reads. Each removal takes effect at the request — bytes gone,
// catalog entry gone, OnRemove heard once — and the run still answers what
// a recompute does.
func TestRemovalMidRun(t *testing.T) {
	// Over the per-user sums: one job, answered from the view V when
	// rewritten, that calls H on every row.
	query := func() *plan.Node {
		return plan.GroupAgg(plan.Apply(perUserSum(), "H", []string{"s"}),
			[]string{"h"}, plan.AggSpec{Func: plan.AggCount, As: "n"})
	}
	ref, _ := gatedDemo(t, 300)
	want, err := ref.Run(query(), "res", ModeOriginal)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		remove func(s *Session)
	}{
		{"delete", func(s *Session) { s.Store.Delete("sums") }},
		{"drop views", func(s *Session) { s.DropViews() }},
		{"eviction", func(s *Session) {
			s.Store.ViewCapacityBytes = 1
			s.Store.EnforceBudget()
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, g := gatedDemo(t, 300)
			if _, err := s.Run(perUserSum(), "sums", ModeOriginal); err != nil {
				t.Fatal(err)
			}
			heard := 0
			forget := s.Store.OnRemove
			s.Store.OnRemove = func(name string) {
				if name == "sums" {
					heard++
				}
				forget(name)
			}
			wait := g.held(func() (*Metrics, error) { return s.Run(query(), "res", ModeBFR) })
			c.remove(s)
			if _, listed := s.Cat.Table("sums"); listed || s.Store.Has("sums") || heard != 1 {
				t.Errorf("at the request: listed %v, stored %v, heard %d times; want gone, heard once",
					listed, s.Store.Has("sums"), heard)
			}
			m, err := wait()
			if err != nil {
				t.Fatal(err)
			}
			if m.Rewrite == nil || !m.Rewrite.Improved || m.Jobs != 1 {
				t.Fatalf("setup: the run did not read the view (rewritten %v, %d jobs)", m.Rewrite != nil && m.Rewrite.Improved, m.Jobs)
			}
			if m.Result.Fingerprint() != want.Result.Fingerprint() {
				t.Errorf("the run answers %v, a recompute %v", m.Result.Rows(), want.Result.Rows())
			}
			if heard != 1 {
				t.Errorf("OnRemove heard the removal %d times, want once", heard)
			}
		})
	}
}
