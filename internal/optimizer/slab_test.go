package optimizer

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/expr"
	"opportune/internal/meta"
	"opportune/internal/mr"
	"opportune/internal/plan"
	"opportune/internal/storage"
	"opportune/internal/udf"
	"opportune/internal/value"
)

// slabFixture is a fixture for the allocation, retention and aliasing tests:
// an 8-column table "clus" whose group key comes in 256-row runs (16
// distinct keys per 4 096-row split), a 16-row "prof" to join it with, and
// UDFs whose bodies allocate nothing — they hand back slices they own and
// overwrite on the next call, which the ownership rule allows (the engine
// copies what a UDF returns before calling it again) — so what a run
// allocates is what the framework allocates. The UDFs share state: one task
// at a time.
func slabFixture(t testing.TB, rows int) *fixture {
	t.Helper()
	st := storage.NewStore()
	cols := []string{"tweet_id", "user_id", "text", "a", "b", "c", "d", "e"}
	rel := data.NewRelation(data.NewSchema(cols...))
	for i := 0; i < rows; i++ {
		rel.Append(data.Row{
			value.NewInt(int64(i)), value.NewInt(int64(i / 256)), value.NewStr(fmt.Sprintf("text-%d", i%50)),
			value.NewInt(int64(i % 7)), value.NewFloat(float64(i) / 4), value.NewStr("b"), value.NewInt(int64(-i)), value.NullV,
		})
	}
	st.Put("clus", storage.Base, rel)
	prof := data.NewRelation(data.NewSchema("uid", "grade"))
	for i := 0; i < 16; i++ {
		prof.Append(data.Row{value.NewInt(int64(i)), value.NewStr(fmt.Sprintf("g%d", i%3))})
	}
	st.Put("prof", storage.Base, prof)

	cat := meta.NewCatalog()
	cat.RegisterBase("clus", cols, "tweet_id", cost.Stats{Rows: int64(rows), Bytes: rel.EncodedSize()},
		map[string]int64{"tweet_id": int64(rows), "user_id": int64(rows/256 + 1)})
	cat.RegisterBase("prof", []string{"uid", "grade"}, "uid", cost.Stats{Rows: 16, Bytes: prof.EncodedSize()},
		map[string]int64{"uid": 16})

	half := [][]value.V{{value.NullV}}
	two := [][]value.V{{value.NullV}, {value.NullV}}
	pairKey, pairPayload := make([]value.V, 2), make([]value.V, 1)
	for _, d := range []*udf.Descriptor{
		{
			Name: "UDF_HALF", NArgs: 1, Kind: udf.KindMap, OutNames: []string{"half"}, TrueScalar: 1,
			Map: func(args, _ []value.V) [][]value.V {
				half[0][0] = value.NewInt(args[0].Int() / 2)
				return half
			},
		},
		{
			// Two rows per input; part is 0 for one output row in 200.
			Name: "UDF_TWICE", NArgs: 1, Kind: udf.KindMap, OutNames: []string{"part"}, Explode: true, TrueScalar: 1,
			Map: func(args, _ []value.V) [][]value.V {
				two[0][0] = value.NewInt((args[0].Int() * 2) % 200)
				two[1][0] = value.NewInt((args[0].Int()*2 + 1) % 200)
				return two
			},
		},
		{
			Name: "UDF_TOT", NArgs: 2, Kind: udf.KindAgg, KeyNames: []string{"user_id"}, KeyArgs: []int{0},
			OutNames: []string{"total"}, TrueScalar: 1,
			Reduce: func(_ []value.V, ps [][]value.V, _ []value.V) []value.V {
				return []value.V{value.NewInt(int64(len(ps)))}
			},
		},
		{
			Name: "UDF_PAIR", NArgs: 2, Kind: udf.KindAgg, KeyNames: []string{"lo", "hi"}, DerivedKeys: true,
			PayloadCols: 1, OutNames: []string{"n"}, TrueScalar: 1,
			PreMap: func(args, _ []value.V) ([]value.V, []value.V, bool) {
				if args[1].Int()%5 == 0 {
					return nil, nil, false
				}
				pairKey[0], pairKey[1], pairPayload[0] = args[0], value.NewInt(args[0].Int()+1), args[1]
				return pairKey, pairPayload, true
			},
			Reduce: func(_ []value.V, ps [][]value.V, _ []value.V) []value.V {
				return []value.V{value.NewInt(int64(len(ps)))}
			},
		},
	} {
		if err := cat.UDFs.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	params := cost.DefaultParams()
	eng := mr.New(st, params)
	eng.Workers = 1
	return &fixture{store: st, cat: cat, eng: eng, opt: New(cat, params, expr.NewEvaluator())}
}

// slabPlans are the map sides the budget covers: runFusedBatch into a
// pass-through boundary (map-only, sort), each of the boundary emitters that
// builds its own record (group-agg, agg-UDF with the default and a custom
// PreMap, join), an exploding chain, the identity program of a bare scan
// (its stored rows handed through into an agg-UDF boundary), and an
// append's delta join: a 4 096-row delta probing prof's index.
var slabPlans = []struct {
	name   string
	plan   func() *plan.Node
	min    int // rows the first job's map side emits for the 4 096-row split, at least
	groups int // a group-by's fused map side folds them into this many records
}{
	{"map-only", func() *plan.Node {
		return plan.Filter(plan.Apply(plan.Scan("clus"), "UDF_HALF", []string{"tweet_id"}), expr.NewCmp("half", expr.Ge, value.NewInt(100)))
	}, 3800, 0},
	{"sort", func() *plan.Node {
		return plan.Sort(plan.Apply(plan.Scan("clus"), "UDF_HALF", []string{"tweet_id"}), []string{"half"}, nil, -1)
	}, 4096, 0},
	{"group-agg", func() *plan.Node {
		return plan.GroupAgg(plan.Apply(plan.Scan("clus"), "UDF_HALF", []string{"tweet_id"}), []string{"user_id"},
			plan.AggSpec{Func: plan.AggCount, As: "n"}, plan.AggSpec{Func: plan.AggSum, Col: "half", As: "s"},
			plan.AggSpec{Func: plan.AggAvg, Col: "b", As: "m"}, plan.AggSpec{Func: plan.AggMin, Col: "text", As: "lo"})
	}, 4096, 16},
	{"agg-udf", func() *plan.Node {
		return plan.Apply(plan.Apply(plan.Scan("clus"), "UDF_HALF", []string{"tweet_id"}), "UDF_TOT", []string{"user_id", "half"})
	}, 4096, 0},
	{"agg-udf-premap", func() *plan.Node {
		return plan.Apply(plan.Apply(plan.Scan("clus"), "UDF_HALF", []string{"tweet_id"}), "UDF_PAIR", []string{"user_id", "tweet_id"})
	}, 3000, 0},
	{"join", func() *plan.Node {
		return plan.JoinNodes(plan.Apply(plan.Scan("clus"), "UDF_HALF", []string{"tweet_id"}), plan.Scan("prof"), "user_id", "uid")
	}, 4096, 0},
	{"explode", func() *plan.Node {
		return plan.Filter(plan.Apply(plan.Scan("clus"), "UDF_TWICE", []string{"tweet_id"}), expr.NewCmp("part", expr.Lt, value.NewInt(150)))
	}, 6000, 0},
	{"bare-scan", func() *plan.Node {
		return plan.Apply(plan.Scan("clus"), "UDF_TOT", []string{"user_id", "a"})
	}, 4096, 0},
	{"probe", func() *plan.Node {
		// Every delta row matches one prof row; SUM reads the indexed side.
		return plan.GroupAgg(plan.JoinNodes(plan.Apply(plan.Scan("~delta~clus"), "UDF_HALF", []string{"tweet_id"}),
			plan.Scan("prof"), "user_id", "uid"), []string{"grade"},
			plan.AggSpec{Func: plan.AggCount, As: "n"}, plan.AggSpec{Func: plan.AggSum, Col: "uid", As: "s"},
			plan.AggSpec{Func: plan.AggMax, Col: "half", As: "hi"})
	}, 4096, 3},
}

// putDeltaClus registers a copy of clus as the appended delta
// "~delta~clus", so a join of it compiles as an index probe.
func putDeltaClus(t testing.TB, f *fixture) {
	t.Helper()
	rel, err := f.store.Read("clus")
	if err != nil {
		t.Fatal(err)
	}
	cols := rel.Schema().Cols()
	f.store.Put("~delta~clus", storage.Base, rel)
	f.cat.RegisterBase("~delta~clus", cols, "", cost.Stats{Rows: int64(rel.Len()), Bytes: rel.EncodedSize()}, nil)
	f.cat.MarkDelta("~delta~clus")
}

// TestMapSideAllocBudget: what one map task allocates does not grow with the
// rows it handles. A 4 096-row split with 16 distinct keys in runs and UDFs
// that allocate nothing costs fewer than 100 allocations on every map side
// — fused kernel or interpreter, into each kind of boundary, through an
// index probe too — where a row and its pieces used to be allocated one by
// one (more than 4 096).
func TestMapSideAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, tc := range slabPlans {
		for _, interp := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/interpreted=%v", tc.name, interp), func(t *testing.T) {
				f := slabFixture(t, 4096)
				putDeltaClus(t, f)
				w, err := f.opt.Compile(tc.plan())
				if err != nil {
					t.Fatal(err)
				}
				jobs, err := f.opt.Executable(w, "res")
				if err != nil {
					t.Fatal(err)
				}
				if interp {
					// The group-by reference's combine is test code; the
					// budget is on what its map side emits per row.
					stripJobs(t, f.opt, w, jobs, false)
				}
				job := jobs[0]
				rel, err := f.store.Read(job.Inputs[0])
				if err != nil {
					t.Fatal(err)
				}
				split := rel.Rows()
				var probes []*mr.Probe
				for _, ps := range job.Probes {
					d, _ := f.store.Meta(ps.Dataset)
					ix, _, err := f.store.Index(d, ps.Col)
					if err != nil {
						t.Fatal(err)
					}
					probes = append(probes, mr.NewProbe(ix))
				}
				if (len(probes) > 0) != (tc.name == "probe") {
					t.Fatalf("job probes %v", job.Probes)
				}
				out := make([]mr.Keyed, 0, 3*len(split))
				emit := func(key string, r data.Row) { out = append(out, mr.Keyed{Key: key, Row: r}) }
				task := func() {
					out = out[:0]
					job.BatchMapFactory(mr.TaskCtx{Probes: probes})(0, split, emit)
				}
				allocs := testing.AllocsPerRun(5, task)
				if tc.groups > 0 && !interp {
					if len(out) != tc.groups {
						t.Fatalf("fused map side emitted %d records, want one per group, %d", len(out), tc.groups)
					}
				} else if len(out) < tc.min {
					t.Fatalf("map side emitted %d rows, expected at least %d", len(out), tc.min)
				}
				t.Logf("%d rows in, %d out: %.0f allocations", len(split), len(out), allocs)
				if allocs >= 100 {
					t.Errorf("one %d-row map task (%d rows out) costs %.0f allocations, budget < 100", len(split), len(out), allocs)
				}
			})
		}
	}
}

// heapAfterGC is the live heap once the pools have been emptied (a pooled
// buffer survives one collection in the victim cache).
func heapAfterGC() uint64 {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestRetentionViewsPinNoMapSideSlab: a view that keeps a small part of what
// the map side produced must not keep the slabs those rows were cut from. A
// sorted LIMIT 10 and a map-only explode-then-filter that keeps one output
// row in 200, over 40 000 rows: with only the view (and the base table) left
// reachable, the heap has grown by far less than one split's slab — the
// sort/LIMIT reducer copies what it keeps, and the fused kernel cuts the
// rows it hands a keeping sink only after the chain's last filter.
func TestRetentionViewsPinNoMapSideSlab(t *testing.T) {
	const rows = 40000
	splitSlab := 4096 * 9 * uint64(reflect.TypeOf(value.V{}).Size()) // one split of "clus" + one UDF column, in cells
	for _, tc := range []struct {
		name   string
		plan   *plan.Node
		keeps  int
		budget uint64
	}{
		{"sort-limit", plan.Sort(plan.Apply(plan.Scan("clus"), "UDF_HALF", []string{"tweet_id"}), []string{"a", "half"}, []bool{false, true}, 10),
			10, splitSlab / 4},
		{"explode-filter", plan.Filter(plan.Apply(plan.Scan("clus"), "UDF_TWICE", []string{"tweet_id"}), expr.NewCmp("part", expr.Eq, value.NewInt(0))),
			rows * 2 / 200, splitSlab},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := slabFixture(t, rows)
			base, err := f.store.Read("clus")
			if err != nil {
				t.Fatal(err)
			}
			before := heapAfterGC()
			w, err := f.opt.Compile(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			jobs, err := f.opt.Executable(w, "res")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := runJobs(f.eng, jobs); err != nil {
				t.Fatal(err)
			}
			view, err := f.store.Read("res")
			if err != nil {
				t.Fatal(err)
			}
			if view.Len() != tc.keeps {
				t.Fatalf("view holds %d rows, want %d", view.Len(), tc.keeps)
			}
			f, w, jobs = nil, nil, nil // keep only the view (and the base table it was computed from)
			after := heapAfterGC()
			t.Logf("heap %d KB before, %d KB with only the %d-row view kept", before>>10, after>>10, tc.keeps)
			if after > before && after-before > tc.budget {
				t.Errorf("keeping a %d-row view of %d rows holds %d KB of heap, budget %d KB (one split's slab is %d KB)",
					tc.keeps, rows, (after-before)>>10, tc.budget>>10, splitSlab>>10)
			}
			runtime.KeepAlive(view)
			runtime.KeepAlive(base)
		})
	}
}

// TestRetentionJoinViewFootprint is the budget on what a materialized 1:N
// join view costs in memory: every one of "clus"'s 40 960 rows meets the one
// "dim" row of its user, so the view is 40 960 ten-column rows, and once only
// the view and the two base tables are reachable the heap may have grown by
// at most joinRowBudget bytes per view row. The cells dominate (the strings
// are the base tables' bytes), so the budget moves with the width of
// value.V.
func TestRetentionJoinViewFootprint(t *testing.T) {
	const rows = 40960        // user_id 0..159, 256 rows each
	const joinRowBudget = 193 // bytes per view row: 183.7 measured with 16-byte cells, + 5 %
	f := slabFixture(t, rows)
	dim := data.NewRelation(data.NewSchema("uid", "grade"))
	for i := 0; i < rows/256; i++ {
		dim.Append(data.Row{value.NewInt(int64(i)), value.NewStr(fmt.Sprintf("g%d", i%3))})
	}
	f.store.Put("dim", storage.Base, dim)
	f.cat.RegisterBase("dim", []string{"uid", "grade"}, "uid", cost.Stats{Rows: int64(dim.Len()), Bytes: dim.EncodedSize()},
		map[string]int64{"uid": int64(dim.Len())})
	base, err := f.store.Read("clus")
	if err != nil {
		t.Fatal(err)
	}
	before := heapAfterGC()
	w, err := f.opt.Compile(plan.JoinNodes(plan.Scan("dim"), plan.Scan("clus"), "uid", "user_id"))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := f.opt.Executable(w, "res")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runJobs(f.eng, jobs); err != nil {
		t.Fatal(err)
	}
	view, err := f.store.Read("res")
	if err != nil {
		t.Fatal(err)
	}
	if view.Len() != rows || view.Schema().Len() != 10 {
		t.Fatalf("view holds %d rows of %d columns, want %d of 10", view.Len(), view.Schema().Len(), rows)
	}
	f, w, jobs = nil, nil, nil // keep only the view and the base tables
	after := heapAfterGC()
	var perRow float64
	if after > before {
		perRow = float64(after-before) / rows
	}
	t.Logf("a %d-row join view holds %.1f bytes of heap per row (budget %d)", rows, perRow, joinRowBudget)
	if perRow > joinRowBudget {
		t.Errorf("a %d-row 1:N join view holds %.1f bytes of heap per row, budget %d", rows, perRow, joinRowBudget)
	}
	runtime.KeepAlive(view)
	runtime.KeepAlive(base)
	runtime.KeepAlive(dim)
}

// TestUDFArgsAreValidOnlyForTheCall pins the one ownership contract both map
// paths now share: the args slice belongs to the engine and is reused for
// the next row. A UDF that returns a slice aliasing args is fine (the engine
// copies it out before the next call); one that keeps args and writes
// through it later gets no promise — but it gets the *same* outcome on the
// fused kernel and the interpreter, row for row.
func TestUDFArgsAreValidOnlyForTheCall(t *testing.T) {
	run := func(interp bool) []data.Row {
		f := slabFixture(t, 1000)
		var kept []value.V
		if err := f.cat.UDFs.Register(&udf.Descriptor{
			Name: "UDF_KEEPS_ARGS", NArgs: 1, Kind: udf.KindMap, OutNames: []string{"echo"}, TrueScalar: 1,
			Map: func(args, _ []value.V) [][]value.V {
				if kept != nil {
					kept[0] = value.NewInt(-1) // a write through last call's args, after returning
				}
				kept = args
				return [][]value.V{args[:1]} // aliases args
			},
		}); err != nil {
			t.Fatal(err)
		}
		f.eng.Params.SplitRows = 128
		w, err := f.opt.Compile(plan.Project(plan.Apply(plan.Scan("clus"), "UDF_KEEPS_ARGS", []string{"tweet_id"}), "tweet_id", "echo"))
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := f.opt.Executable(w, "res")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runArm(t, f, w, jobs, interp); err != nil {
			t.Fatal(err)
		}
		rel, err := f.store.Read("res")
		if err != nil {
			t.Fatal(err)
		}
		return rel.Rows()
	}
	fused, interp := run(false), run(true)
	if len(fused) != 1000 {
		t.Fatalf("fused arm produced %d rows", len(fused))
	}
	if !data.RowsEqual(fused, interp) {
		for i := range fused {
			if i < len(interp) && !fused[i].Equal(interp[i]) {
				t.Fatalf("row %d: fused %v, interpreted %v — the two paths give a UDF that keeps its args different lifetimes", i, fused[i], interp[i])
			}
		}
		t.Fatalf("fused %d rows, interpreted %d", len(fused), len(interp))
	}
	// The first row of a split echoes its own id (args was fresh); a later
	// one sees the write through the kept slice.
	if fused[0][1].Int() != 0 || fused[1][1].Int() != -1 {
		t.Errorf("rows 0 and 1 echo %v and %v; the UDF's late write should land in the reused args", fused[0][1], fused[1][1])
	}
}
