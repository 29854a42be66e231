package session

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"opportune/internal/obs"
	"opportune/internal/plan"
	"opportune/internal/udf"
	"opportune/internal/value"
)

// contractSession is joinDemo at the given parallelism plus BAD, a map UDF
// declared single-output that returns two rows for a "tea" text, and
// BADWORDS, an exploding UDF that returns a row of two values, one more
// than it declares, for each word of a "tea" text: there is none in the
// demo's logs and a quarter of ivmBatch's rows carry one. The session is
// instrumented with the returned registry.
func contractSession(t *testing.T, workers int) (*Session, *obs.Registry) {
	t.Helper()
	s := joinDemo(t, 90)
	s.Eng.Workers = workers
	reg := obs.NewRegistry()
	s.Instrument(reg)
	if err := s.Cat.UDFs.Register(&udf.Descriptor{
		Name: "BAD", NArgs: 1, Kind: udf.KindMap, OutNames: []string{"bad"},
		Map: func(args, _ []value.V) [][]value.V {
			if strings.Contains(args[0].Str(), "tea") {
				return [][]value.V{{value.NewInt(1)}, {value.NewInt(2)}}
			}
			return [][]value.V{{value.NewInt(0)}}
		},
		TrueScalar: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Cat.UDFs.Register(&udf.Descriptor{
		Name: "BADWORDS", NArgs: 1, Kind: udf.KindMap, OutNames: []string{"word"}, Explode: true,
		Map: func(args, _ []value.V) [][]value.V {
			var out [][]value.V
			for _, w := range strings.Fields(args[0].Str()) {
				row := []value.V{value.NewStr(w)}
				if strings.Contains(args[0].Str(), "tea") {
					row = append(row, value.NewInt(1))
				}
				out = append(out, row)
			}
			return out
		},
		TrueScalar: 2,
	}); err != nil {
		t.Fatal(err)
	}
	return s, reg
}

// badMap is a map-only chain over BAD: one job, classified fused.
func badMap() *plan.Node {
	return plan.Project(plan.Apply(plan.Scan("logs"), "BAD", []string{"text"}), "id", "bad")
}

// badExplode is a map-only chain over BADWORDS: one job, whose fused
// kernel opens an explode segment.
func badExplode() *plan.Node {
	return plan.Project(plan.Apply(plan.Scan("logs"), "BADWORDS", []string{"text"}), "id", "word")
}

// badJoin is a maintainable aggregate of BAD's output over a join with BAD
// on the logs side: an append's delta plan probes the users index on the
// fused kernel. (A COUNT alone would not read BAD's column, and BFR would
// answer it from b_join: BAD is declared neither to filter nor to explode.)
func badJoin() *plan.Node {
	return plan.GroupAgg(plan.JoinNodes(plan.Apply(plan.Scan("logs"), "BAD", []string{"text"}),
		plan.Scan("users"), "user", "uid"), []string{"tier"}, plan.AggSpec{Func: plan.AggSum, Col: "bad", As: "b"})
}

// TestUDFContract: a UDF that breaks its declared single-output contract
// fails its query with udf.ErrContract on every session path — Run of a
// single-output and of an exploding violator, RunBatch, and the delta jobs
// of AppendRows — under
// ModeOriginal and ModeBFR at Workers 1 and 4. An append keeps its failure
// independence: only the violator's view is invalidated, with the contract
// as its reason, the others are maintained, and the next Run of that query
// fails typed.
// Every violating query computes BAD's column, so no rewrite can answer it
// from a view that was built without BAD.
func TestUDFContract(t *testing.T) {
	for _, mode := range []Mode{ModeOriginal, ModeBFR} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/W%d", mode, workers), func(t *testing.T) {
				t.Run("Run", func(t *testing.T) {
					s, reg := contractSession(t, workers)
					if _, err := s.AppendRows("logs", ivmBatch(700, 15)); err != nil {
						t.Fatal(err)
					}
					for _, c := range []struct {
						name    string
						p       *plan.Node
						counter string // the classification the failed job records
					}{
						{"fused", badMap(), "mr_fused_jobs_total"},
						{"explode_udf", badExplode(), "mr_fused_jobs_total"},
					} {
						before := reg.Snapshot().Counters[c.counter]
						if _, err := s.Run(c.p, "bad_"+c.name, mode); !errors.Is(err, udf.ErrContract) {
							t.Errorf("%s: Run error %v, want udf.ErrContract", c.name, err)
						}
						if reg.Snapshot().Counters[c.counter] == before {
							t.Errorf("%s: the failed job did not record %s", c.name, c.counter)
						}
					}
					good := BatchQuery{Plan: q(), ResultName: "good", Mode: mode}
					_, err := s.RunBatch([]BatchQuery{good, {Plan: badMap(), ResultName: "bad_batch", Mode: mode}})
					if !errors.Is(err, udf.ErrContract) {
						t.Errorf("RunBatch error %v, want udf.ErrContract", err)
					}
					if _, err := s.Run(good.Plan, good.ResultName, mode); err != nil {
						t.Errorf("a query that keeps the contract fails after the violations: %v", err)
					}
				})
				t.Run("AppendRows", func(t *testing.T) {
					// The views are built as written, as the maintenance
					// tests build theirs: mode applies to the Run after.
					s, reg := contractSession(t, workers)
					views := append(pipelineQueries(), BatchQuery{Plan: badJoin(), ResultName: "bad_join"})
					for _, v := range views {
						if _, err := s.Run(v.Plan, v.ResultName, ModeOriginal); err != nil {
							t.Fatal(err)
						}
					}
					// The delta jobs probe on the fused kernel.
					before := reg.Snapshot().Counters
					rep, err := s.AppendRows("logs", ivmBatch(700, 15))
					if err != nil {
						t.Fatalf("AppendRows failed as a whole: %v", err)
					}
					after := reg.Snapshot().Counters
					if after["mr_probe_rows_total"] == before["mr_probe_rows_total"] {
						t.Error("no delta job probed")
					}
					if !slices.Contains(rep.Invalidated, "bad_join") ||
						!strings.Contains(rep.Reasons["bad_join"], udf.ErrContract.Error()) {
						t.Errorf("bad_join: invalidated %v, reasons %v; want invalidated for the contract",
							rep.Invalidated, rep.Reasons)
					}
					for _, v := range pipelineQueries() {
						if !slices.Contains(rep.Maintained, v.ResultName) {
							t.Errorf("%s not maintained beside the violator: reasons %v", v.ResultName, rep.Reasons)
						}
					}
					checkStoreInvariant(t, s)
					if _, err := s.Run(badJoin(), "bad_join", mode); !errors.Is(err, udf.ErrContract) {
						t.Errorf("Run after the append: error %v, want udf.ErrContract", err)
					}
				})
			})
		}
	}
}

// errBoom is what the PANIC UDF panics with.
var errBoom = errors.New("boom")

// TestUDFPanicKeepsItsError: a UDF that panics with an error value fails
// Run and RunBatch with an error errors.Is still finds, at Workers 1 and 4
// — the recovered value is wrapped, not formatted.
func TestUDFPanicKeepsItsError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("W%d", workers), func(t *testing.T) {
			s := demo(t, 90)
			s.Eng.Workers = workers
			if err := s.Cat.UDFs.Register(&udf.Descriptor{
				Name: "PANIC", NArgs: 1, Kind: udf.KindMap, OutNames: []string{"p"},
				Map: func(args, _ []value.V) [][]value.V {
					if args[0].Str() == "coffee" {
						panic(errBoom)
					}
					return [][]value.V{{value.NewInt(1)}}
				},
				TrueScalar: 2,
			}); err != nil {
				t.Fatal(err)
			}
			p := plan.Apply(plan.Scan("logs"), "PANIC", []string{"text"})
			if _, err := s.Run(p, "p_run", ModeOriginal); !errors.Is(err, errBoom) {
				t.Errorf("Run error %v, want errBoom", err)
			}
			grouped := plan.GroupAgg(p, []string{"user"}, plan.AggSpec{Func: plan.AggSum, Col: "p", As: "s"})
			_, err := s.RunBatch([]BatchQuery{
				{Plan: p, ResultName: "p_a", Mode: ModeOriginal},
				{Plan: grouped, ResultName: "p_b", Mode: ModeOriginal},
			})
			if !errors.Is(err, errBoom) {
				t.Errorf("RunBatch error %v, want errBoom", err)
			}
		})
	}
}

// TestPreMapContract: an aggregate UDF's PreMap that returns a key of other
// than len(KeyNames) values, or a payload longer than PayloadCols, fails
// its query with udf.ErrContract at Workers 1 and 4 — instead of shifting
// payload values into the group key, or dying on an untyped panic. Only
// the "coffee" rows (a third of the demo's logs) break it.
func TestPreMapContract(t *testing.T) {
	for _, tc := range []struct {
		name         string
		key, payload int // values the PreMap returns for a "coffee" row
	}{
		{"short key", 1, 1},
		{"long key", 3, 0},
		{"long payload", 2, 2},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/W%d", tc.name, workers), func(t *testing.T) {
				s := demo(t, 90)
				s.Eng.Workers = workers
				if err := s.Cat.UDFs.Register(&udf.Descriptor{
					Name: "PAIRS", NArgs: 2, Kind: udf.KindAgg, KeyNames: []string{"u", "t"}, DerivedKeys: true,
					PayloadCols: 1, OutNames: []string{"n"}, TrueScalar: 1,
					PreMap: func(args, _ []value.V) ([]value.V, []value.V, bool) {
						if args[1].Str() != "coffee" {
							return []value.V{args[0], args[1]}, []value.V{value.NewInt(1)}, true
						}
						key := []value.V{args[0], args[1], args[0]}[:tc.key]
						payload := []value.V{value.NewInt(1), value.NewInt(2)}[:tc.payload]
						return key, payload, true
					},
					Reduce: func(_ []value.V, ps [][]value.V, _ []value.V) []value.V {
						return []value.V{value.NewInt(int64(len(ps)))}
					},
				}); err != nil {
					t.Fatal(err)
				}
				p := plan.Apply(plan.Scan("logs"), "PAIRS", []string{"user", "text"})
				if _, err := s.Run(p, "pairs", ModeOriginal); !errors.Is(err, udf.ErrContract) {
					t.Errorf("Run error %v, want udf.ErrContract", err)
				}
			})
		}
	}
}

// TestReduceContract: an aggregate UDF's Reduce that returns a row of other
// than len(OutNames) values fails its query with udf.ErrContract through
// Run and RunBatch at Workers 1 and 4 — instead of dying on the engine's
// untyped width panic — retains no view for it and leaves no pin. A nil
// return drops the group and fails nothing.
func TestReduceContract(t *testing.T) {
	for _, tc := range []struct {
		name  string
		width int // values Reduce returns for every group; -1 is nil
	}{
		{"wide", 2},
		{"empty", 0},
		{"nil", -1},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/W%d", tc.name, workers), func(t *testing.T) {
				s := demo(t, 90)
				s.Eng.Workers = workers
				if err := s.Cat.UDFs.Register(&udf.Descriptor{
					Name: "COUNTS", NArgs: 1, Kind: udf.KindAgg, KeyNames: []string{"u"}, KeyArgs: []int{0},
					OutNames: []string{"n"}, TrueScalar: 1,
					Reduce: func(_ []value.V, ps [][]value.V, _ []value.V) []value.V {
						if tc.width < 0 {
							return nil
						}
						out := make([]value.V, tc.width)
						for i := range out {
							out[i] = value.NewInt(int64(len(ps)))
						}
						return out
					},
				}); err != nil {
					t.Fatal(err)
				}
				p := plan.Apply(plan.Scan("logs"), "COUNTS", []string{"user"})
				views := len(s.Cat.Views())
				_, runErr := s.Run(p, "counts", ModeOriginal)
				_, batchErr := s.RunBatch([]BatchQuery{
					{Plan: q(), ResultName: "good", Mode: ModeOriginal},
					{Plan: p, ResultName: "counts_batch", Mode: ModeOriginal},
				})
				if tc.width < 0 {
					if runErr != nil || batchErr != nil {
						t.Fatalf("a Reduce returning nil failed: Run %v, RunBatch %v", runErr, batchErr)
					}
					return
				}
				if !errors.Is(runErr, udf.ErrContract) {
					t.Errorf("Run error %v, want udf.ErrContract", runErr)
				}
				if !errors.Is(batchErr, udf.ErrContract) {
					t.Errorf("RunBatch error %v, want udf.ErrContract", batchErr)
				}
				for _, name := range []string{"counts", "counts_batch"} {
					if _, listed := s.Cat.Table(name); listed || s.Store.Has(name) {
						t.Errorf("the failed query's result %s was retained", name)
					}
				}
				if got := len(s.Cat.Views()); got != views {
					t.Errorf("catalog holds %d views after the failures, %d before", got, views)
				}
			})
		}
	}
}
