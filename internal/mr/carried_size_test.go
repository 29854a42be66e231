package mr

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/value"
)

// walkSize is the oracle for every carried size: the sum over rows of the
// row's own EncodedSize, taken by walking them.
func walkSize(rows []data.Row) int64 {
	var n int64
	for _, r := range rows {
		n += int64(r.EncodedSize())
	}
	return n
}

// TestCarriedSizesMatchAWalk pins the sizes map tasks carry — what the
// shuffle scan, the map-only materialize loop and MergeByKey now read
// instead of walking rows — to a walk of the same rows: shuffle bytes to
// what the reducers actually receive (every shuffled record reaches one),
// output bytes to the stored relation, with and without a combiner, on the
// partition-local route with keys it cannot route, and at several
// parallelism settings.
func TestCarriedSizesMatchAWalk(t *testing.T) {
	type variant struct {
		name    string
		combine bool
		mapOnly bool
		local   bool
	}
	for _, v := range []variant{
		{name: "reduce"},
		{name: "combine", combine: true},
		{name: "map-only", mapOnly: true},
		{name: "partition-local", local: true},
		{name: "partition-local+combine", local: true, combine: true},
	} {
		for _, g := range []struct{ w, r int }{{1, 1}, {4, 3}} {
			t.Run(fmt.Sprintf("%s/W%dR%d", v.name, g.w, g.r), func(t *testing.T) {
				const rows, groups = 3000, 37
				st, schema := benchInput(rows, groups)
				params := cost.DefaultParams()
				params.SplitRows = 256
				params.ReduceTasks = g.r
				e := New(st, params)
				e.Workers = g.w

				var shuffled, routable atomic.Int64
				keyIdxs := []int{0, 2}
				job := &Job{
					Name:         "carried",
					Inputs:       []string{"bench_in"},
					MapOutSchema: schema,
					OutputSchema: schema,
					Output:       "carried_out",
					BatchMapFactory: func(TaskCtx) BatchMapFunc {
						var enc data.KeyEncoder
						return batchOf(func(_ int, r data.Row, emit Emit) {
							key := enc.Key(r, keyIdxs)
							if r[1].Int()%7 == 0 {
								key = "?" // not a key encoding: the local route must refuse it
							}
							emit(key, r)
						})
					},
				}
				if !v.mapOnly {
					job.Reduce = perGroup(func(key string, rs []data.Row, out *ReduceOut) {
						n := walkSize(rs) + int64(len(key)*len(rs))
						shuffled.Add(n)
						if _, ok := data.KeyPrefix(key, 1); ok {
							routable.Add(n)
						}
						for _, r := range rs {
							out.Emit(key, r)
						}
					})
				}
				if v.combine {
					// Keeps the first and the last row of each task-local
					// group: the shuffle must carry the combined records' size.
					combineInMap(job, rowCombine(func(_ string, rs []data.Row, emit func(data.Row)) {
						emit(rs[0])
						if len(rs) > 1 {
							emit(rs[len(rs)-1])
						}
					}))
				}
				if v.local {
					job.PartitionKeyCols, job.PartitionParts = 1, 8
				}
				rel, res, err := runOne(e, job)
				if err != nil {
					t.Fatal(err)
				}
				walk := walkSize(rel.Rows())
				if rel.EncodedSize() != walk || res.OutputBytes != walk {
					t.Errorf("output: relation carries %d, Result %d, a walk says %d", rel.EncodedSize(), res.OutputBytes, walk)
				}
				if v.mapOnly {
					if res.ShuffleBytes != 0 || rel.Len() != rows {
						t.Errorf("map-only job: %d shuffle bytes, %d rows", res.ShuffleBytes, rel.Len())
					}
					return
				}
				if res.ShuffleBytes != shuffled.Load() || res.ShuffleBytes == 0 {
					t.Errorf("ShuffleBytes %d, the reducers received %d", res.ShuffleBytes, shuffled.Load())
				}
				wantLocal := int64(0)
				if v.local {
					wantLocal = routable.Load()
					if wantLocal == 0 || wantLocal == res.ShuffleBytes {
						t.Fatalf("fixture too tame: %d of %d bytes routable", wantLocal, res.ShuffleBytes)
					}
				}
				if res.LocalShuffleBytes != wantLocal {
					t.Errorf("LocalShuffleBytes %d, a walk of the routable records says %d", res.LocalShuffleBytes, wantLocal)
				}
			})
		}
	}
}

// TestPoolsExposeNoStaleEntries: a buffer taken from a pool exposes no key
// or row of an earlier user at any index up to its capacity.
func TestPoolsExposeNoStaleEntries(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // keep the pools from being emptied mid-test
	row := data.Row{value.NewStr("stale")}
	reusedKeyed, reusedRows := false, false
	for round := 0; round < 64; round++ {
		kb := keyedBufs.get(300)
		for i := 0; i < 7+round; i++ {
			kb = append(kb, Keyed{Key: "stale", Row: row})
		}
		first := &kb[:1][0]
		keyedBufs.put(kb)
		kb = keyedBufs.get(300)
		reusedKeyed = reusedKeyed || first == &kb[:1][0]
		for i, kr := range kb[:cap(kb)] {
			if kr.Key != "" || kr.Row != nil {
				t.Fatalf("round %d: keyed buffer exposes a stale record at %d of cap %d", round, i, cap(kb))
			}
		}
		keyedBufs.put(kb)

		// A reduce partition's arena, two runs deep.
		o := ReduceOut{job: &Job{OutputSchema: data.NewSchema("c")}, arena: rowBufs.get(300)}
		for i := 0; i < 5+round; i++ {
			o.Emit("k", row)
		}
		o.Emit("l", row)
		o.seal()
		firstRow := &o.arena[:1][0]
		rowBufs.put(o.arena)
		rb := rowBufs.get(300)
		reusedRows = reusedRows || firstRow == &rb[:1][0]
		for i, r := range rb[:cap(rb)] {
			if r != nil {
				t.Fatalf("round %d: rows buffer exposes a stale row at %d of cap %d", round, i, cap(rb))
			}
		}
		rowBufs.put(rb)
	}
	if !reusedKeyed || !reusedRows {
		t.Fatalf("the pools never handed a buffer back (keyed %v, rows %v): the test saw nothing", reusedKeyed, reusedRows)
	}
}

// TestGrouperBuildAllocBudget: once a pooled grouper has grown to
// its workload, building it again allocates nothing — the per-call offset
// and cursor slices are gone.
func TestGrouperBuildAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	recs := make([]Keyed, 4096)
	for i := range recs {
		recs[i] = Keyed{Key: fmt.Sprintf("k%02d", i%16), Row: data.Row{value.NewInt(int64(i))}}
	}
	g := getGrouper(16)
	g.build(recs)
	allocs := testing.AllocsPerRun(20, func() {
		clear(g.ids)
		g.keys, g.counts = g.keys[:0], g.counts[:0]
		g.build(recs)
	})
	if allocs != 0 {
		t.Errorf("grouper.build allocates %.0f times per call on a warm grouper, want 0", allocs)
	}
	if got := len(g.rows(g.id("k03"))); got != 256 {
		t.Errorf("group k03 holds %d rows, want 256", got)
	}
}
