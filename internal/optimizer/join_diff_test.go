package optimizer

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/expr"
	"opportune/internal/fault"
	"opportune/internal/meta"
	"opportune/internal/mr"
	"opportune/internal/plan"
	"opportune/internal/storage"
	"opportune/internal/value"
)

// walkedSize is the reference implementation of Relation.EncodedSize: a
// fresh walk over every value, independent of the size the relation carries.
func walkedSize(rows []data.Row) int64 {
	var n int64
	for _, r := range rows {
		n += 4
		for _, v := range r {
			n += int64(v.EncodedSize())
		}
	}
	return n
}

// joinKey draws from the key population of the join differential fixture:
// one hot key, a few duplicated ones, keys of both numeric and string kind
// (the encoded-key order is not the value order), NULL, and keys that exist
// on one side only.
func joinKey(rng *rand.Rand, side int) value.V {
	switch p := rng.Intn(100); {
	case p < 40:
		return value.NewInt(7) // hot key: most of the fan-out
	case p < 70:
		return value.NewInt(int64(rng.Intn(5)))
	case p < 80:
		return value.NewStr(fmt.Sprintf("k%d", rng.Intn(3)))
	case p < 88:
		return value.NullV
	default:
		// One-sided: left-only keys are 100+, right-only 200+.
		return value.NewInt(int64(100*(side+1) + rng.Intn(6)))
	}
}

// joinFixture loads three base tables: lt and rt join on lk = rk with every
// right column kept; st self-joins on k, where the right copy of the key is
// projected away by the annotated OutCols.
type joinFixture struct {
	store *storage.Store
	cat   *meta.Catalog
	eng   *mr.Engine
	opt   *Optimizer
}

func newJoinFixture(t testing.TB) *joinFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(15))
	st := storage.NewStore()
	cat := meta.NewCatalog()
	load := func(name string, cols []string, rows int, row func(i int) data.Row) {
		rel := data.NewRelation(data.NewSchema(cols...))
		for i := 0; i < rows; i++ {
			rel.Append(row(i))
		}
		st.Put(name, storage.Base, rel)
		cat.RegisterBase(name, cols, cols[0], cost.Stats{Rows: int64(rows), Bytes: rel.EncodedSize()}, nil)
	}
	load("lt", []string{"lid", "lk", "lv", "ls"}, 400, func(i int) data.Row {
		return data.Row{value.NewInt(int64(i)), joinKey(rng, 0), value.NewInt(int64(i % 9)), value.NewStr(fmt.Sprintf("left-%d", i%13))}
	})
	load("rt", []string{"rid", "rk", "rv", "rs"}, 90, func(i int) data.Row {
		v := value.NewFloat(float64(i) / 4)
		if i%11 == 0 {
			v = value.NullV
		}
		return data.Row{value.NewInt(int64(i)), joinKey(rng, 1), v, value.NewStr(fmt.Sprintf("r%d", i%4))}
	})
	load("st", []string{"sid", "k", "s"}, 120, func(i int) data.Row {
		return data.Row{value.NewInt(int64(i)), joinKey(rng, 0), value.NewStr(fmt.Sprintf("s%d", i%5))}
	})
	params := cost.DefaultParams()
	params.SplitRows = 64 // several map splits per side
	return &joinFixture{store: st, cat: cat, eng: mr.New(st, params), opt: New(cat, params, expr.NewEvaluator())}
}

// joinCase is one join query plus what the oracle needs to know about it:
// the two sides as the reducer sees them (after each side's map chain), the
// key columns, and which right columns the output keeps.
type joinCase struct {
	name         string
	plan         *plan.Node
	left, right  func(f *joinFixture) []data.Row
	lKey, rKey   int
	rKeep        []int
	inputs       []string
	readFaultsOn string
}

func tableRows(f *joinFixture, name string) []data.Row {
	ds, ok := f.store.Meta(name)
	if !ok {
		panic("missing fixture table " + name)
	}
	return ds.Relation().Rows()
}

func joinCases() []joinCase {
	return []joinCase{
		{
			name: "all-right-cols",
			plan: plan.JoinNodes(plan.Scan("lt"), plan.Scan("rt"), "lk", "rk"),
			left: func(f *joinFixture) []data.Row { return tableRows(f, "lt") },
			right: func(f *joinFixture) []data.Row {
				return tableRows(f, "rt")
			},
			lKey: 1, rKey: 1, rKeep: []int{0, 1, 2, 3},
			inputs: []string{"lt", "rt"}, readFaultsOn: "lt",
		},
		{
			// The filter runs map-side (fused), so the reducer joins a subset.
			name: "filtered-left",
			plan: plan.JoinNodes(plan.Filter(plan.Scan("lt"), expr.NewCmp("lv", expr.Ge, value.NewInt(3))),
				plan.Scan("rt"), "lk", "rk"),
			left: func(f *joinFixture) []data.Row {
				var out []data.Row
				for _, r := range tableRows(f, "lt") {
					if r[2].Int() >= 3 {
						out = append(out, r)
					}
				}
				return out
			},
			right: func(f *joinFixture) []data.Row { return tableRows(f, "rt") },
			lKey:  1, rKey: 1, rKeep: []int{0, 1, 2, 3},
			inputs: []string{"lt", "rt"}, readFaultsOn: "rt",
		},
		{
			// Self-join on one signature: the annotation keeps the left copy of
			// k only, so the reducer projects the right side down to s2.
			name: "right-projection",
			plan: plan.JoinNodes(plan.Scan("st"),
				plan.ProjectAs(plan.Scan("st"), []string{"k", "s"}, []string{"k", "s2"}), "k", "k"),
			left: func(f *joinFixture) []data.Row { return tableRows(f, "st") },
			right: func(f *joinFixture) []data.Row {
				var out []data.Row
				for _, r := range tableRows(f, "st") {
					out = append(out, data.Row{r[1], r[2]})
				}
				return out
			},
			lKey: 1, rKey: 0, rKeep: []int{1},
			inputs: []string{"st", "st"}, readFaultsOn: "st",
		},
	}
}

// nestedLoopJoin is the oracle: for every distinct non-NULL key in encoded-
// key order, every left row in scan order against every right row in scan
// order. It returns the expected output rows and the shuffle volume (each
// non-NULL-key row travels padded to the co-group width, plus its key).
func nestedLoopJoin(ls, rs []data.Row, lKey, rKey int, rKeep []int) (out []data.Row, shuffleBytes, shuffleRows int64) {
	var enc data.KeyEncoder
	lw, rw := 0, 0
	if len(ls) > 0 {
		lw = len(ls[0])
	}
	if len(rs) > 0 {
		rw = len(rs[0])
	}
	seen := map[string]bool{}
	var keys []string
	note := func(rows []data.Row, keyIx, otherW int) {
		for _, r := range rows {
			if r[keyIx].IsNull() {
				continue
			}
			k := enc.KeyOf(r[keyIx])
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
			// side tag (an Int) + own columns + the other side's NULL padding.
			shuffleBytes += int64(r.EncodedSize()) + 9 + int64(otherW) + int64(len(k))
			shuffleRows++
		}
	}
	note(ls, lKey, rw)
	note(rs, rKey, lw)
	sort.Strings(keys)
	for _, k := range keys {
		for _, l := range ls {
			if l[lKey].IsNull() || enc.KeyOf(l[lKey]) != k {
				continue
			}
			for _, r := range rs {
				if r[rKey].IsNull() || enc.KeyOf(r[rKey]) != k {
					continue
				}
				row := append(data.Row(nil), l...)
				for _, ix := range rKeep {
					row = append(row, r[ix])
				}
				out = append(out, row)
			}
		}
	}
	return out, shuffleBytes, shuffleRows
}

// joinChaosPlan is the PR-3 chaos shape aimed at the join: a map panic and a
// map straggler by split index, a reduce panic on the hot key's shard (the
// group whose slab is the largest — its dead attempt must leave nothing
// behind), a reduce straggler that speculates a second copy, and one read
// error.
func joinChaosPlan(dataset string) *fault.Plan {
	var enc data.KeyEncoder
	hot := fault.Shard(enc.KeyOf(value.NewInt(7)), fault.DefaultVirtualShards)
	dup := fault.Shard(enc.KeyOf(value.NewInt(2)), fault.DefaultVirtualShards)
	return &fault.Plan{Seed: 15, Faults: []fault.Fault{
		{Phase: fault.PhaseMap, Task: 0, Kind: fault.KindPanic, FailAttempts: 2},
		{Phase: fault.PhaseMap, Task: 1, Kind: fault.KindStraggler, Factor: 5},
		{Phase: fault.PhaseReduce, Task: hot, Kind: fault.KindPanic, FailAttempts: 1},
		{Phase: fault.PhaseReduce, Task: dup, Kind: fault.KindStraggler, Factor: 6},
		{Kind: fault.KindReadError, Dataset: dataset, FailReads: 1},
	}}
}

// joinRun is what one execution of one join case is compared on.
type joinRun struct {
	rows     []data.Row
	res      mr.Result
	counters storage.Counters
}

func runJoinCase(t *testing.T, jc joinCase, chaos bool, workers, reduceTasks int) (joinRun, *joinFixture) {
	t.Helper()
	f := newJoinFixture(t)
	f.eng.Workers = workers
	f.eng.Params.ReduceTasks = reduceTasks
	f.eng.MaxAttempts = 3
	if chaos {
		p := joinChaosPlan(jc.readFaultsOn)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		f.eng.Faults = fault.NewInjector(p)
		f.store.SetFaults(f.eng.Faults)
	}
	w, err := f.opt.Compile(jc.plan)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if len(w.Nodes) != 1 {
		t.Fatalf("join compiled to %d jobs, want 1", len(w.Nodes))
	}
	jobs, err := f.opt.Executable(w, "joined")
	if err != nil {
		t.Fatalf("executable: %v", err)
	}
	f.store.ResetCounters()
	rel, res, err := runJob(f.eng, jobs[0])
	if err != nil {
		t.Fatalf("run (chaos=%v W=%d R=%d): %v", chaos, workers, reduceTasks, err)
	}
	stored, ok := f.store.Meta("joined")
	if !ok || stored.Relation() != rel {
		t.Fatal("the job's output is not what the store holds")
	}
	if got, want := rel.EncodedSize(), walkedSize(rel.Rows()); got != want {
		t.Errorf("relation carries size %d, a walk says %d", got, want)
	}
	if stored.SizeBytes != rel.EncodedSize() {
		t.Errorf("store sized the output %d, relation says %d", stored.SizeBytes, rel.EncodedSize())
	}
	return joinRun{rows: rel.Rows(), res: *res, counters: f.store.Counters()}, f
}

// TestJoinDifferentialOracle pins the slab-emitting reduce-side join to a
// nested-loop oracle: byte-identical output *including row order*, and
// Input/Shuffle/Output bytes equal to what a fresh walk over the oracle's
// rows gives — at every Workers × ReduceTasks point, fault-free and under the
// chaos plan, where every deterministic field of the Result and the storage
// counters must also match the serial run of the same arm.
func TestJoinDifferentialOracle(t *testing.T) {
	for _, jc := range joinCases() {
		for _, chaos := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/chaos=%v", jc.name, chaos), func(t *testing.T) {
				ref, f := runJoinCase(t, jc, chaos, 1, 1)
				want, shufBytes, shufRows := nestedLoopJoin(jc.left(f), jc.right(f), jc.lKey, jc.rKey, jc.rKeep)
				if len(want) < 1000 {
					t.Fatalf("fixture too tame: oracle joined %d rows", len(want))
				}
				if float64(len(want)) < 3*float64(shufRows) {
					t.Errorf("fan-out %d/%d is not join-shaped", len(want), shufRows)
				}
				var inBytes, inRows int64
				for _, in := range jc.inputs {
					inBytes += walkedSize(tableRows(f, in))
					inRows += int64(len(tableRows(f, in)))
				}
				if chaos {
					if ref.res.TaskRetries == 0 || ref.res.SpeculativeTasks == 0 || ref.res.Attempts < 2 {
						t.Errorf("chaos plan did not bite: retries %d, speculative %d, attempts %d",
							ref.res.TaskRetries, ref.res.SpeculativeTasks, ref.res.Attempts)
					}
				} else if ref.res.WastedSeconds != 0 {
					t.Errorf("fault-free run wasted %v s", ref.res.WastedSeconds)
				}
				for _, g := range fusionGrid {
					got := ref
					if g.w != 1 || g.r != 1 {
						got, _ = runJoinCase(t, jc, chaos, g.w, g.r)
					}
					at := fmt.Sprintf("W=%d R=%d", g.w, g.r)
					if !data.RowsEqual(got.rows, want) {
						t.Fatalf("%s: output differs from the nested-loop oracle (%d rows vs %d)", at, len(got.rows), len(want))
					}
					r := got.res
					if r.InputBytes != inBytes || r.InputRows != inRows {
						t.Errorf("%s: input %d B / %d rows, oracle %d / %d", at, r.InputBytes, r.InputRows, inBytes, inRows)
					}
					if r.ShuffleBytes != shufBytes || r.ShuffleRows != shufRows {
						t.Errorf("%s: shuffle %d B / %d rows, oracle %d / %d", at, r.ShuffleBytes, r.ShuffleRows, shufBytes, shufRows)
					}
					if r.OutputBytes != walkedSize(want) || r.OutputRows != int64(len(want)) {
						t.Errorf("%s: output %d B / %d rows, oracle %d / %d", at, r.OutputBytes, r.OutputRows, walkedSize(want), len(want))
					}
					if !reflect.DeepEqual(r, ref.res) {
						t.Errorf("%s: Result differs from the serial run:\n got %+v\nwant %+v", at, r, ref.res)
					}
					if got.counters != ref.counters {
						t.Errorf("%s: storage counters %+v, serial %+v", at, got.counters, ref.counters)
					}
					if c := got.counters; c.BytesRead != r.InputBytes+r.RetriedInputBytes || c.BytesWritten != r.OutputBytes {
						t.Errorf("%s: store moved %d read / %d written, engine says %d+%d / %d",
							at, c.BytesRead, c.BytesWritten, r.InputBytes, r.RetriedInputBytes, r.OutputBytes)
					}
				}
			})
		}
	}
}

// TestJoinGroupClosedFormSize fuzzes key groups through joinGroup and checks
// the closed-form size against a walk of the rows it built, the row contents
// against the plain nested loop, and the slab-per-group aliasing rule: rows
// are capped at their own width, so appending to one cannot reach the next.
func TestJoinGroupClosedFormSize(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	randVal := func() value.V {
		switch rng.Intn(5) {
		case 0:
			return value.NullV
		case 1:
			return value.NewInt(rng.Int63n(1000))
		case 2:
			return value.NewFloat(rng.Float64())
		case 3:
			return value.NewBool(rng.Intn(2) == 0)
		default:
			return value.NewStr(fmt.Sprintf("%0*d", rng.Intn(12)+1, rng.Intn(10)))
		}
	}
	randRows := func(n, w int) []data.Row {
		rows := make([]data.Row, n)
		for i := range rows {
			rows[i] = make(data.Row, w)
			for j := range rows[i] {
				rows[i][j] = randVal()
			}
		}
		return rows
	}
	var scratch []value.V // shared by every iteration, as by a partition's groups
	for iter := 0; iter < 300; iter++ {
		lw, rw := 1+rng.Intn(5), 1+rng.Intn(5)
		ls, rs := randRows(rng.Intn(8), lw), randRows(rng.Intn(8), rw)
		var rKeep []int
		for ix := 0; ix < rw; ix++ {
			if rng.Intn(3) > 0 {
				rKeep = append(rKeep, ix)
			}
		}
		rng.Shuffle(len(rKeep), func(i, j int) { rKeep[i], rKeep[j] = rKeep[j], rKeep[i] })
		rows, bytes := joinGroup(ls, rs, rKeep, &scratch)
		var want []data.Row
		for _, l := range ls {
			for _, r := range rs {
				row := append(data.Row(nil), l...)
				for _, ix := range rKeep {
					row = append(row, r[ix])
				}
				want = append(want, row)
			}
		}
		if len(rows) != len(want) {
			t.Fatalf("iter %d: %d rows, want %d", iter, len(rows), len(want))
		}
		for i := range rows {
			if !rows[i].Equal(want[i]) {
				t.Fatalf("iter %d row %d: %v, want %v", iter, i, rows[i], want[i])
			}
			if cap(rows[i]) != len(rows[i]) {
				t.Fatalf("iter %d row %d: cap %d exceeds width %d — a row can reach its neighbour", iter, i, cap(rows[i]), len(rows[i]))
			}
		}
		if got := walkedSize(rows); bytes != got {
			t.Fatalf("iter %d (%d×%d, keep %v): closed form %d, walk %d", iter, len(ls), len(rs), rKeep, bytes, got)
		}
	}
}
