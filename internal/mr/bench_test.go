package mr

import (
	"fmt"
	"testing"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/storage"
	"opportune/internal/value"
)

// benchInput builds a synthetic shuffle-heavy input: rows rows spread over
// groups distinct keys, three payload columns.
func benchInput(rows, groups int) (*storage.Store, *data.Schema) {
	schema := data.NewSchema("k", "a", "b", "c")
	rel := data.NewRelation(schema)
	for i := 0; i < rows; i++ {
		rel.Append(data.Row{
			value.NewInt(int64(i % groups)),
			value.NewInt(int64(i)),
			value.NewStr(fmt.Sprintf("payload-%d", i%97)),
			value.NewFloat(float64(i) * 0.5),
		})
	}
	st := storage.NewStore()
	st.Put("bench_in", storage.Base, rel)
	return st, schema
}

// benchGroupJob is a group-by-count job shaped like the optimizer's
// compiled group-agg jobs: a per-task map with its own key encoder emits a
// composite key per row, the reducer folds each group to one row, and the
// estimator's cardinality hints are set the way executableJob plumbs them.
func benchGroupJob(schema *data.Schema, rows, groups int) *Job {
	keyIdxs := []int{0, 2}
	outSchema := data.NewSchema("k", "b", "n")
	return &Job{
		Name:         "bench-shuffle-group",
		Inputs:       []string{"bench_in"},
		MapOutSchema: schema,
		BatchMapFactory: func(TaskCtx) BatchMapFunc {
			var enc data.KeyEncoder
			return batchOf(func(_ int, r data.Row, emit Emit) {
				emit(enc.Key(r, keyIdxs), r)
			})
		},
		Reduce: perGroup(func(key string, rows []data.Row, out *ReduceOut) {
			out.Emit(key, data.Row{rows[0][0], rows[0][2], value.NewInt(int64(len(rows)))})
		}),
		OutputSchema: outSchema,
		Output:       "bench_out",
		MapCost:      []cost.LocalFn{{Ops: []cost.OpType{cost.OpAttr}, Scalar: 1}},
		ReduceCost:   []cost.LocalFn{{Ops: []cost.OpType{cost.OpGroup}, Scalar: 1}},
		EstGroups:    int64(groups),
	}
}

// BenchmarkShuffleGroup measures the engine's shuffle/group/merge hot path:
// per-tuple key building, hash partitioning, per-partition grouping, and the
// global key-ordered merge.
func BenchmarkShuffleGroup(b *testing.B) {
	st, schema := benchInput(20000, 2000)
	params := cost.DefaultParams()
	params.ReduceTasks = 3
	e := New(st, params)
	e.Workers = 4
	job := benchGroupJob(schema, 20000, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := runOne(e, job); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKWayMerge measures merging R per-partition key-sorted runs into
// one globally key-ordered sequence — the reduce-output merge step of
// shuffleReduce.
func BenchmarkKWayMerge(b *testing.B) {
	const runs, perRun = 8, 2048
	src := make([][]redOut, runs)
	for p := 0; p < runs; p++ {
		src[p] = make([]redOut, perRun)
		for i := 0; i < perRun; i++ {
			src[p][i] = redOut{
				key:  fmt.Sprintf("key-%04d-%02d", i, p),
				rows: []data.Row{{value.NewInt(int64(i))}},
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int
		mergeRuns(src, func(ro *redOut) string { return ro.key }, func(ro *redOut) {
			n += len(ro.rows)
		})
		if n != runs*perRun {
			b.Fatal("bad merge")
		}
	}
}

// BenchmarkPartitionLocalGroup is BenchmarkShuffleGroup on the partition-
// preserving path: same job, input declared hash-clustered on the first
// key column, so routing goes by decoded key prefix instead of a full
// cross-partition shuffle.
func BenchmarkPartitionLocalGroup(b *testing.B) {
	st, schema := benchInput(20000, 2000)
	params := cost.DefaultParams()
	params.ReduceTasks = 3
	e := New(st, params)
	e.Workers = 4
	job := benchGroupJob(schema, 20000, 2000)
	job.PartitionKeyCols = 1
	job.PartitionParts = 32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, res, err := runOne(e, job); err != nil {
			b.Fatal(err)
		} else if res.LocalShuffleBytes == 0 {
			b.Fatal("partition-local path not taken")
		}
	}
}

// BenchmarkMaterializeLarge tracks what a large job output costs between the
// moment its rows exist and the moment a consumer has read them: output
// accounting, Store.Put, and the consuming job's input accounting. A map-only
// identity job materializes 200 000 four-column rows and a second job scans
// the result, emitting nothing.
func BenchmarkMaterializeLarge(b *testing.B) {
	st, schema := benchInput(200000, 5000)
	produce := &Job{
		Name: "bench-materialize", Inputs: []string{"bench_in"},
		BatchMapFactory: perRow(func(_ int, r data.Row, emit Emit) { emit("", r) }),
		MapOutSchema:    schema, OutputSchema: schema,
		Output:  "bench_big",
		MapCost: []cost.LocalFn{{Ops: []cost.OpType{cost.OpAttr}, Scalar: 1}},
	}
	consume := &Job{
		Name: "bench-consume", Inputs: []string{"bench_big"},
		BatchMapFactory: perRow(func(int, data.Row, Emit) {}),
		MapOutSchema:    schema, OutputSchema: schema,
		Output:  "bench_none",
		MapCost: []cost.LocalFn{{Ops: []cost.OpType{cost.OpAttr}, Scalar: 1}},
	}
	e := New(st, cost.DefaultParams())
	e.Workers = 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := runSequence(e, produce, consume)
		if err != nil {
			b.Fatal(err)
		}
		written, read := results[0].OutputBytes, results[0].InputBytes+results[1].InputBytes
		if written == 0 || read < 2*written {
			b.Fatalf("accounting lost the materialization: wrote %d, read %d", written, read)
		}
	}
}
