package mr

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/storage"
	"opportune/internal/value"
)

// loadCorpus installs a docs table large enough to span many map splits.
func loadCorpus(st *storage.Store, rows int) {
	rel := data.NewRelation(data.NewSchema("id", "text"))
	texts := []string{
		"wine red wine", "beer and coffee", "red red red",
		"coffee wine beer", "the quick brown fox", "wine",
	}
	for i := 0; i < rows; i++ {
		rel.Append(data.Row{value.NewInt(int64(i)), value.NewStr(texts[i%len(texts)])})
	}
	st.Put("docs", storage.Base, rel)
}

// runWithWorkers runs the word-count job (with a combiner) at the given
// worker count and small splits, returning the output and result.
func runWithWorkers(t testing.TB, workers, reduceTasks, rows int) (*data.Relation, *Result) {
	t.Helper()
	st := storage.NewStore()
	loadCorpus(st, rows)
	params := cost.DefaultParams()
	params.SplitRows = 64
	params.ReduceTasks = reduceTasks
	e := New(st, params)
	e.Workers = workers
	job := wordCountJob()
	combineInMap(job, sumCombine)
	job.CombineCost = []cost.LocalFn{{Ops: []cost.OpType{cost.OpGroup}, Scalar: 1}}
	out, res, err := runOne(e, job)
	if err != nil {
		t.Fatal(err)
	}
	return out, res
}

// TestParallelDeterminism is the tentpole's acceptance check: the same job
// must produce byte-identical output relations and identical Result volume
// accounting at every worker count and reduce-partition count.
func TestParallelDeterminism(t *testing.T) {
	refOut, refRes := runWithWorkers(t, 1, 1, 1000)
	for _, cfg := range []struct{ workers, reduceTasks int }{
		{1, 4}, {2, 1}, {4, 4}, {8, 3}, {8, 16},
	} {
		out, res := runWithWorkers(t, cfg.workers, cfg.reduceTasks, 1000)
		if out.Len() != refOut.Len() {
			t.Fatalf("workers=%d R=%d: rows = %d, want %d", cfg.workers, cfg.reduceTasks, out.Len(), refOut.Len())
		}
		if out.Fingerprint() != refOut.Fingerprint() {
			t.Errorf("workers=%d R=%d: output not byte-identical to serial", cfg.workers, cfg.reduceTasks)
		}
		if *res != *refRes {
			t.Errorf("workers=%d R=%d: Result differs:\n got %+v\nwant %+v", cfg.workers, cfg.reduceTasks, *res, *refRes)
		}
	}
}

// TestParallelMapOnlyDeterminism checks that map-only jobs preserve the
// serial input-order output under parallel execution.
func TestParallelMapOnlyDeterminism(t *testing.T) {
	mk := func(workers int) *data.Relation {
		st := storage.NewStore()
		loadCorpus(st, 500)
		params := cost.DefaultParams()
		params.SplitRows = 32
		e := New(st, params)
		e.Workers = workers
		schema := data.NewSchema("id", "n")
		job := &Job{
			Name:   "lens",
			Inputs: []string{"docs"},
			BatchMapFactory: perRow(func(_ int, r data.Row, emit Emit) {
				emit("", data.Row{r[0], value.NewInt(int64(len(r[1].Str())))})
			}),
			MapOutSchema: schema,
			OutputSchema: schema,
			Output:       "lens",
			MapCost:      []cost.LocalFn{{Ops: []cost.OpType{cost.OpAttr}, Scalar: 1}},
		}
		out, _, err := runOne(e, job)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial, parallel := mk(1), mk(8)
	if serial.Fingerprint() != parallel.Fingerprint() {
		t.Error("map-only output depends on worker count")
	}
	// Map-only output preserves input order: ids ascend.
	for i := 0; i < parallel.Len()-1; i++ {
		if parallel.Row(i)[0].Int() >= parallel.Row(i + 1)[0].Int() {
			t.Fatalf("output out of input order at row %d", i)
		}
	}
}

// TestMapFactoryTaskCtx checks that per-task map state is seeded from the
// deterministic TaskCtx handed to BatchMapFactory: tags derived from
// GlobalRow must be unique and identical at any worker count.
func TestMapFactoryTaskCtx(t *testing.T) {
	mk := func(workers int) *data.Relation {
		st := storage.NewStore()
		loadCorpus(st, 300)
		params := cost.DefaultParams()
		params.SplitRows = 16
		e := New(st, params)
		e.Workers = workers
		schema := data.NewSchema("word", "tag")
		job := &Job{
			Name:   "tagger",
			Inputs: []string{"docs"},
			BatchMapFactory: func(ctx TaskCtx) BatchMapFunc {
				tag := ctx.GlobalRow << 20
				return func(_ int, rows []data.Row, emit Emit) BatchReport {
					for _, r := range rows {
						for _, w := range strings.Fields(r[1].Str()) {
							tag++
							emit("", data.Row{value.NewStr(w), value.NewInt(tag)})
						}
					}
					return BatchReport{}
				}
			},
			MapOutSchema: schema,
			OutputSchema: schema,
			Output:       "tags",
			MapCost:      []cost.LocalFn{{Ops: []cost.OpType{cost.OpAttr}, Scalar: 1}},
		}
		out, _, err := runOne(e, job)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial, parallel := mk(1), mk(8)
	if serial.Fingerprint() != parallel.Fingerprint() {
		t.Error("per-task tags depend on worker count")
	}
	seen := make(map[int64]bool, parallel.Len())
	for _, r := range parallel.Rows() {
		tag := r[1].Int()
		if seen[tag] {
			t.Fatalf("duplicate tag %d", tag)
		}
		seen[tag] = true
	}
}

// TestReducePanicChargesMoreThanMapPanic is the wasted-time regression: a
// retry after a reduce-side panic must be charged the map, combine, and
// shuffle work that ran before the failure, so it costs strictly more than
// a retry after an immediate map-side panic.
func TestReducePanicChargesMoreThanMapPanic(t *testing.T) {
	run := func(breakReduce bool) *Result {
		st := storage.NewStore()
		loadCorpus(st, 200)
		e := New(st, cost.DefaultParams())
		e.MaxAttempts = 2
		job := wordCountJob()
		var failed atomic.Bool // tasks run concurrently: exactly one call panics
		if breakReduce {
			job.Reduce = perGroup(func(key string, rows []data.Row, out *ReduceOut) {
				if failed.CompareAndSwap(false, true) {
					panic("reduce bug")
				}
				sumReduce(key, rows, out)
			})
		} else {
			orig := job.BatchMapFactory
			job.BatchMapFactory = func(ctx TaskCtx) BatchMapFunc {
				fn := orig(ctx)
				return func(i int, rows []data.Row, emit Emit) BatchReport {
					if failed.CompareAndSwap(false, true) {
						panic("map bug")
					}
					return fn(i, rows, emit)
				}
			}
		}
		_, res, err := runOne(e, job)
		if err != nil {
			t.Fatal(err)
		}
		if res.Attempts != 2 {
			t.Fatalf("Attempts = %d, want 2", res.Attempts)
		}
		return res
	}
	mapRetry := run(false)
	reduceRetry := run(true)
	if reduceRetry.SimSeconds <= mapRetry.SimSeconds {
		t.Errorf("reduce-panic retry (%g s) not charged more than map-panic retry (%g s)",
			reduceRetry.SimSeconds, mapRetry.SimSeconds)
	}
	// Both charge strictly more than a clean run.
	st := storage.NewStore()
	loadCorpus(st, 200)
	e := New(st, cost.DefaultParams())
	_, clean, err := runOne(e, wordCountJob())
	if err != nil {
		t.Fatal(err)
	}
	if mapRetry.SimSeconds <= clean.SimSeconds {
		t.Errorf("map-panic retry (%g s) not charged over clean run (%g s)", mapRetry.SimSeconds, clean.SimSeconds)
	}
}

// TestRunSequenceParallelAggregates checks per-job accounting is worker-
// count independent across a job sequence.
func TestRunSequenceParallelAggregates(t *testing.T) {
	mk := func(workers int) []*Result {
		st := storage.NewStore()
		loadCorpus(st, 600)
		params := cost.DefaultParams()
		params.SplitRows = 50
		e := New(st, params)
		e.Workers = workers
		wc := wordCountJob()
		second := &Job{
			Name:   "lengths",
			Inputs: []string{"wc"},
			BatchMapFactory: perRow(func(_ int, r data.Row, emit Emit) {
				emit(fmt.Sprint(len(r[0].Str())), data.Row{value.NewInt(int64(len(r[0].Str()))), r[1]})
			}),
			MapOutSchema: data.NewSchema("len", "count"),
			Reduce:       perGroup(sumReduce),
			OutputSchema: data.NewSchema("len", "total"),
			Output:       "lens_by_count",
			MapCost:      []cost.LocalFn{{Ops: []cost.OpType{cost.OpAttr}, Scalar: 1}},
			ReduceCost:   []cost.LocalFn{{Ops: []cost.OpType{cost.OpGroup}, Scalar: 1}},
		}
		results, err := runSequence(e, wc, second)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	s, p := mk(1), mk(8)
	for i := range s {
		if *s[i] != *p[i] {
			t.Errorf("job %d result differs:\nserial   %+v\nparallel %+v", i, s[i], p[i])
		}
	}
}

// TestReduceFanOut counts the reduce kernel's calls, one per non-empty
// partition. An explicit ReduceTasks is honored on an input far below a
// split; ReduceTasks 0 reduces min(Workers, ⌈shuffled records / SplitRows⌉)
// partitions. Every setting gives the output and the Result of a serial
// run with one partition at the same SplitRows.
func TestReduceFanOut(t *testing.T) {
	run := func(workers, reduceTasks int, splitRows int64) (*data.Relation, *Result, int64) {
		t.Helper()
		st := storage.NewStore()
		loadCorpus(st, 300)
		params := cost.DefaultParams()
		params.SplitRows = splitRows
		params.ReduceTasks = reduceTasks
		e := New(st, params)
		e.Workers = workers
		job := wordCountJob() // no combiner: a record per word occurrence
		var calls atomic.Int64
		reduce := job.Reduce
		job.Reduce = func(recs []Keyed, out *ReduceOut) {
			calls.Add(1)
			reduce(recs, out)
		}
		out, res, err := runOne(e, job)
		if err != nil {
			t.Fatal(err)
		}
		return out, res, calls.Load()
	}
	for _, c := range []struct {
		workers, reduceTasks int
		splitRows            int64
		want                 int64 // reduce calls; 0: the ReduceTasks=0 rule
	}{
		{4, 3, 4096, 3}, {1, 3, 4096, 3}, {4, 0, 4096, 1},
		{4, 0, 64, 0}, {2, 0, 64, 0}, {8, 0, 256, 0},
	} {
		refOut, refRes, _ := run(1, 1, c.splitRows)
		out, res, calls := run(c.workers, c.reduceTasks, c.splitRows)
		want := c.want
		if want == 0 {
			want = min(int64(c.workers), (res.ShuffleRows+c.splitRows-1)/c.splitRows)
		}
		if calls != want {
			t.Errorf("W=%d R=%d split %d: %d reduce calls over %d records, want %d",
				c.workers, c.reduceTasks, c.splitRows, calls, res.ShuffleRows, want)
		}
		if !out.Equal(refOut) || out.Fingerprint() != refOut.Fingerprint() {
			t.Errorf("W=%d R=%d split %d: output differs from one partition's", c.workers, c.reduceTasks, c.splitRows)
		}
		if *res != *refRes {
			t.Errorf("W=%d R=%d split %d: Result differs:\n got %+v\nwant %+v", c.workers, c.reduceTasks, c.splitRows, *res, *refRes)
		}
	}
}
