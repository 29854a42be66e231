package mr

import (
	"strings"
	"sync/atomic"
	"testing"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/fault"
	"opportune/internal/obs"
	"opportune/internal/storage"
	"opportune/internal/value"
)

func newEngine() (*Engine, *storage.Store) {
	st := storage.NewStore()
	return New(st, cost.DefaultParams()), st
}

func loadWords(st *storage.Store) {
	rel := data.NewRelation(data.NewSchema("id", "text"))
	rows := []string{"wine red wine", "beer", "red red red"}
	for i, s := range rows {
		rel.Append(data.Row{value.NewInt(int64(i)), value.NewStr(s)})
	}
	st.Put("docs", storage.Base, rel)
}

// rowMap is a map function stated per row, the shape most engine tests
// write their map side in.
type rowMap func(input int, r data.Row, emit Emit)

// batchOf adapts a per-row map function into a batch map function that
// calls it on each row of the split, in order.
func batchOf(fn rowMap) BatchMapFunc {
	return func(input int, rows []data.Row, emit Emit) BatchReport {
		for _, r := range rows {
			fn(input, r, emit)
		}
		return BatchReport{}
	}
}

// perRow is the BatchMapFactory of a stateless per-row map function: every
// task shares fn.
func perRow(fn rowMap) func(TaskCtx) BatchMapFunc {
	return func(TaskCtx) BatchMapFunc { return batchOf(fn) }
}

// groupFn is a reduce side stated per key group, the shape most engine
// tests write their reduce side in; it emits under the group's key.
type groupFn func(key string, rows []data.Row, out *ReduceOut)

// perGroup is the partition kernel of a per-group reduce function: it
// visits the partition's groups through out.EachGroup.
func perGroup(fn groupFn) func([]Keyed, *ReduceOut) {
	return func(recs []Keyed, out *ReduceOut) {
		out.EachGroup(recs, func(key string, rows []data.Row) { fn(key, rows, out) })
	}
}

// bind binds each job's inputs and probes to the versions the store holds
// now (nil for a name it does not hold), as the session's planner does.
func bind(st *storage.Store, jobs ...*Job) []*Job {
	for _, j := range jobs {
		j.Sources = make([]*storage.Dataset, len(j.Inputs))
		for i, name := range j.Inputs {
			j.Sources[i], _ = st.Meta(name)
		}
		j.ProbeSources = make([]*storage.Dataset, len(j.Probes))
		for i, p := range j.Probes {
			j.ProbeSources[i], _ = st.Meta(p.Dataset)
		}
	}
	return jobs
}

// runOne binds job and runs it alone, a shared scan of one, and returns
// its relation and Result (nil when the job failed validation).
func runOne(e *Engine, job *Job) (*data.Relation, *Result, error) {
	outs, run, err := e.Run(bind(e.Store, job)...)
	if run == nil {
		return nil, nil, err
	}
	if err != nil {
		return nil, run.Results[0], err
	}
	return outs[0].Relation(), run.Results[0], nil
}

// runRecorded runs one job alone and publishes its record, the way the
// session executor does.
func runRecorded(e *Engine, job *Job) (*data.Relation, *Result, error) {
	rel, res, err := runOne(e, job)
	if res != nil {
		e.RecordJob(res, err, 0)
	}
	return rel, res, err
}

// runSequence runs jobs alone one after another, each job's output in the
// store before the next starts, recording each as it finishes, the failed
// one included. It returns the successful jobs' results.
func runSequence(e *Engine, jobs ...*Job) ([]*Result, error) {
	var results []*Result
	for _, j := range jobs {
		_, res, err := runRecorded(e, j)
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}

// wordCountJob is the canonical MR job: tokenize in map, sum in reduce.
func wordCountJob() *Job {
	mapOut := data.NewSchema("word", "n")
	return &Job{
		Name:   "wordcount",
		Inputs: []string{"docs"},
		BatchMapFactory: perRow(func(_ int, r data.Row, emit Emit) {
			for _, w := range strings.Fields(r[1].Str()) {
				emit(w, data.Row{value.NewStr(w), value.NewInt(1)})
			}
		}),
		MapOutSchema: mapOut,
		Reduce:       perGroup(sumReduce),
		OutputSchema: data.NewSchema("word", "count"),
		Output:       "wc",
		MapCost:      []cost.LocalFn{{Ops: []cost.OpType{cost.OpAttr}, Scalar: 1}},
		ReduceCost:   []cost.LocalFn{{Ops: []cost.OpType{cost.OpGroup}, Scalar: 1}},
	}
}

// sumReduce is wordCountJob's reducer: one (word, Σn) row per key.
func sumReduce(key string, rows []data.Row, out *ReduceOut) {
	var sum int64
	for _, r := range rows {
		sum += r[1].Int()
	}
	out.Emit(key, data.Row{rows[0][0], value.NewInt(sum)})
}

// combineInMap makes job combine inside its batch map, the way a group-by's
// compiled map kernel does: each task's emissions go through combine before
// they reach the engine, and the task reports Combined with the rows
// combine consumed.
func combineInMap(job *Job, combine func(in []Keyed) []Keyed) {
	factory := job.BatchMapFactory
	job.BatchMapFactory = func(ctx TaskCtx) BatchMapFunc {
		m := factory(ctx)
		return func(input int, rows []data.Row, emit Emit) BatchReport {
			var in []Keyed
			m(input, rows, func(key string, r data.Row) { in = append(in, Keyed{key, r}) })
			for _, kr := range combine(in) {
				emit(kr.Key, kr.Row)
			}
			return BatchReport{Combined: true, CombineRows: int64(len(in))}
		}
	}
}

// rowCombine adapts a per-key row fold to combineInMap: it groups one map
// task's records per key in first-emission order and returns what fold
// emits for each key, under that key.
func rowCombine(fold func(key string, rows []data.Row, emit func(data.Row))) func(in []Keyed) []Keyed {
	return func(in []Keyed) (out []Keyed) {
		g := getGrouper(len(in))
		defer g.release()
		g.build(in)
		for id := int32(0); id < int32(g.len()); id++ {
			key := g.keys[id]
			fold(key, g.rows(id), func(r data.Row) { out = append(out, Keyed{key, r}) })
		}
		return out
	}
}

// sumCombine is wordCountJob's combiner: one (word, Σn) partial per key.
var sumCombine = rowCombine(func(_ string, rows []data.Row, emit func(data.Row)) {
	var sum int64
	for _, r := range rows {
		sum += r[1].Int()
	}
	emit(data.Row{rows[0][0], value.NewInt(sum)})
})

func TestWordCount(t *testing.T) {
	e, st := newEngine()
	loadWords(st)
	out, res, err := runOne(e, wordCountJob())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for _, r := range out.Rows() {
		counts[r[0].Str()] = r[1].Int()
	}
	want := map[string]int64{"wine": 2, "red": 4, "beer": 1}
	for w, n := range want {
		if counts[w] != n {
			t.Errorf("count[%s] = %d, want %d", w, counts[w], n)
		}
	}
	if len(counts) != 3 {
		t.Errorf("distinct words = %d", len(counts))
	}
	// output materialized as a view
	if !st.Has("wc") {
		t.Error("output not materialized")
	}
	// volumes measured
	if res.InputRows != 3 || res.InputBytes <= 0 {
		t.Errorf("input volumes = %+v", res)
	}
	if res.ShuffleRows != 7 { // 7 words emitted
		t.Errorf("ShuffleRows = %d, want 7", res.ShuffleRows)
	}
	if res.OutputRows != 3 {
		t.Errorf("OutputRows = %d", res.OutputRows)
	}
	if res.SimSeconds <= 0 {
		t.Error("no simulated time")
	}
	if res.DataMovedBytes() != res.InputBytes+res.ShuffleBytes+res.OutputBytes {
		t.Error("DataMovedBytes mismatch")
	}
}

func TestMapOnlyJob(t *testing.T) {
	e, st := newEngine()
	loadWords(st)
	schema := data.NewSchema("id")
	job := &Job{
		Name:   "project",
		Inputs: []string{"docs"},
		BatchMapFactory: perRow(func(_ int, r data.Row, emit Emit) {
			emit("", data.Row{r[0]})
		}),
		MapOutSchema: schema,
		OutputSchema: schema,
		Output:       "ids",
		MapCost:      []cost.LocalFn{{Ops: []cost.OpType{cost.OpAttr}, Scalar: 1}},
	}
	out, res, err := runOne(e, job)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Errorf("rows = %d", out.Len())
	}
	if res.ShuffleBytes != 0 || res.ShuffleRows != 0 {
		t.Errorf("map-only job shuffled: %+v", res)
	}
	if res.Breakdown.Ct != 0 || res.Breakdown.Cr != 0 {
		t.Errorf("map-only job has transfer/reduce cost: %v", res.Breakdown)
	}
}

func TestMultiInputCoGroupJoin(t *testing.T) {
	e, st := newEngine()
	left := data.NewRelation(data.NewSchema("uid", "name"))
	left.Append(data.Row{value.NewInt(1), value.NewStr("ann")})
	left.Append(data.Row{value.NewInt(2), value.NewStr("bob")})
	right := data.NewRelation(data.NewSchema("uid", "city"))
	right.Append(data.Row{value.NewInt(1), value.NewStr("sf")})
	right.Append(data.Row{value.NewInt(3), value.NewStr("la")})
	st.Put("users", storage.Base, left)
	st.Put("homes", storage.Base, right)

	mapOut := data.NewSchema("side", "uid", "payload")
	job := &Job{
		Name:   "join",
		Inputs: []string{"users", "homes"},
		BatchMapFactory: perRow(func(input int, r data.Row, emit Emit) {
			emit(r[0].String(), data.Row{value.NewInt(int64(input)), r[0], r[1]})
		}),
		MapOutSchema: mapOut,
		Reduce: perGroup(func(key string, rows []data.Row, out *ReduceOut) {
			var names, cities []value.V
			var uid value.V
			for _, r := range rows {
				uid = r[1]
				if r[0].Int() == 0 {
					names = append(names, r[2])
				} else {
					cities = append(cities, r[2])
				}
			}
			for _, n := range names {
				for _, c := range cities {
					out.Emit(key, data.Row{uid, n, c})
				}
			}
		}),
		OutputSchema: data.NewSchema("uid", "name", "city"),
		Output:       "joined",
	}
	out, _, err := runOne(e, job)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("join rows = %d, want 1", out.Len())
	}
	r := out.Row(0)
	if r[0].Int() != 1 || r[1].Str() != "ann" || r[2].Str() != "sf" {
		t.Errorf("join row = %v", r)
	}
}

func TestRunErrors(t *testing.T) {
	e, _ := newEngine()
	if _, _, err := runOne(e, &Job{Name: "x", Output: "o"}); err == nil {
		t.Error("nil map accepted")
	}
	if _, _, err := runOne(e, &Job{Name: "x", BatchMapFactory: perRow(func(int, data.Row, Emit) {})}); err == nil {
		t.Error("empty output name accepted")
	}
	job := wordCountJob()
	job.Inputs = []string{"missing"}
	if _, _, err := runOne(e, job); err == nil {
		t.Error("missing input accepted")
	}
}

func TestDeterministicOutput(t *testing.T) {
	run := func() uint64 {
		e, st := newEngine()
		loadWords(st)
		out, _, err := runOne(e, wordCountJob())
		if err != nil {
			t.Fatal(err)
		}
		return out.Fingerprint()
	}
	if run() != run() {
		t.Error("engine output not deterministic")
	}
}

// TestRunSequenceAndAggregate: a sequence runs in order, and its recorded
// counters aggregate every job it ran in that order, the failed one
// included.
func TestRunSequenceAndAggregate(t *testing.T) {
	e, st := newEngine()
	loadWords(st)
	reg := obs.NewRegistry()
	e.Obs = reg
	wc := wordCountJob()
	filterSchema := data.NewSchema("word", "count")
	filter := &Job{
		Name:   "popular",
		Inputs: []string{"wc"},
		BatchMapFactory: perRow(func(_ int, r data.Row, emit Emit) {
			if r[1].Int() >= 2 {
				emit("", r)
			}
		}),
		MapOutSchema: filterSchema,
		OutputSchema: filterSchema,
		Output:       "popular",
		MapCost:      []cost.LocalFn{{Ops: []cost.OpType{cost.OpFilter}, Scalar: 1}},
	}
	results, err := runSequence(e, wc, filter)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	out, err := st.Read("popular")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 { // wine(2), red(4)
		t.Errorf("popular rows = %d", out.Len())
	}
	snap := reg.Snapshot()
	if snap.Counters["mr_jobs_total"] != 2 || snap.FloatCounters["mr_sim_seconds_total"] != results[0].SimSeconds+results[1].SimSeconds {
		t.Errorf("recorded %d jobs, %g sim-s; want 2, %g", snap.Counters["mr_jobs_total"],
			snap.FloatCounters["mr_sim_seconds_total"], results[0].SimSeconds+results[1].SimSeconds)
	}
	// failure propagates, and the failed job is recorded
	if _, err := runSequence(e, flakyWordCount(100)); err == nil {
		t.Error("runSequence swallowed error")
	}
	if snap := reg.Snapshot(); snap.Counters["mr_jobs_total"] != 3 || snap.Counters["mr_job_failures_total"] != 1 {
		t.Errorf("after the failed sequence: %d jobs, %d failures recorded; want 3, 1",
			snap.Counters["mr_jobs_total"], snap.Counters["mr_job_failures_total"])
	}
}

func TestMapEmitWidthBecomesJobFailure(t *testing.T) {
	// Contract violations in user code fail the job (like a real cluster),
	// they do not crash the engine.
	e, st := newEngine()
	loadWords(st)
	job := wordCountJob()
	job.BatchMapFactory = perRow(func(_ int, r data.Row, emit Emit) {
		emit("k", data.Row{r[0]}) // wrong width
	})
	_, res, err := runOne(e, job)
	if err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("wrong-width emit: err = %v", err)
	}
	if res == nil || res.Attempts != 1 {
		t.Errorf("res = %+v", res)
	}
}

func TestFlakyUDFRetriesFromDurableInputs(t *testing.T) {
	e, st := newEngine()
	loadWords(st)
	e.MaxAttempts = 3
	failures := 2
	job := wordCountJob()
	orig := job.BatchMapFactory
	job.BatchMapFactory = func(ctx TaskCtx) BatchMapFunc {
		fn := orig(ctx)
		return func(i int, rows []data.Row, emit Emit) BatchReport {
			for _, r := range rows {
				if failures > 0 && r[0].Int() == 1 {
					failures--
					panic("transient UDF failure")
				}
			}
			return fn(i, rows, emit)
		}
	}
	out, res, err := runOne(e, job)
	if err != nil {
		t.Fatalf("job did not recover: %v", err)
	}
	if res.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3", res.Attempts)
	}
	if out.Len() != 3 {
		t.Errorf("rows = %d", out.Len())
	}
	// failed attempts' simulated time is charged
	e2, st2 := newEngine()
	loadWords(st2)
	_, clean, err := runOne(e2, wordCountJob())
	if err != nil {
		t.Fatal(err)
	}
	if res.SimSeconds <= clean.SimSeconds {
		t.Errorf("retries not charged: %g vs clean %g", res.SimSeconds, clean.SimSeconds)
	}
	// permanent failure exhausts attempts
	e.MaxAttempts = 2
	job2 := wordCountJob()
	job2.BatchMapFactory = perRow(func(int, data.Row, Emit) { panic("permanent") })
	if _, res, err := runOne(e, job2); err == nil || res.Attempts != 2 {
		t.Errorf("permanent failure: err=%v res=%+v", err, res)
	}
}

// BenchmarkWordCountJob measures raw engine throughput on the canonical
// map+shuffle+reduce job.
func BenchmarkWordCountJob(b *testing.B) {
	st := storage.NewStore()
	rel := data.NewRelation(data.NewSchema("id", "text"))
	for i := 0; i < 10000; i++ {
		rel.Append(data.Row{value.NewInt(int64(i)), value.NewStr("the quick brown fox jumps over the lazy dog")})
	}
	st.Put("docs", storage.Base, rel)
	e := New(st, cost.DefaultParams())
	b.SetBytes(rel.EncodedSize() / int64(rel.Len()) * 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := runOne(e, wordCountJob()); err != nil {
			b.Fatal(err)
		}
	}
}

// blockWordCount is wordCountJob with a reducer that hands its output over
// as one pre-measured block per group: the word once per occurrence.
func blockWordCount(reduce groupFn) *Job {
	job := wordCountJob()
	job.OutputSchema = data.NewSchema("word", "i")
	job.Output = "wc_block"
	if reduce != nil {
		job.Reduce = perGroup(reduce)
	}
	return job
}

func occurrenceBlock(rows []data.Row) ([]data.Row, int64) {
	slab := make([]value.V, 2*len(rows))
	block := make([]data.Row, len(rows))
	var bytes int64
	for i, r := range rows {
		block[i] = slab[2*i : 2*i+2 : 2*i+2]
		block[i][0], block[i][1] = r[0], value.NewInt(int64(i))
		bytes += int64(block[i].EncodedSize())
	}
	return block, bytes
}

// TestEmitBlockTakesTheSliceAndItsSize: a block emitter's rows reach the
// output relation without passing through the partition buffer, the size it
// reported is the size the relation, the Result and the store carry, and a
// straggling group's speculative copy is priced, not run: the reducer runs
// once per group with or without the fault plan.
func TestEmitBlockTakesTheSliceAndItsSize(t *testing.T) {
	plan := &fault.Plan{Faults: []fault.Fault{
		{Phase: fault.PhaseReduce, Task: fault.Shard("red", fault.DefaultVirtualShards), Kind: fault.KindStraggler, Factor: 6},
	}}
	for _, faulted := range []bool{false, true} {
		st := storage.NewStore()
		loadWords(st)
		e := New(st, cost.DefaultParams())
		if faulted {
			e.Faults = fault.NewInjector(plan)
		}
		var calls atomic.Int64 // reduce partitions run concurrently
		out, res, err := runOne(e, blockWordCount(func(key string, rows []data.Row, out *ReduceOut) {
			calls.Add(1)
			block, n := occurrenceBlock(rows)
			out.EmitBlock(key, block, n)
		}))
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != 7 || res.OutputRows != 7 {
			t.Fatalf("faulted=%v: %d rows (Result %d), want one per word occurrence", faulted, out.Len(), res.OutputRows)
		}
		var walk int64
		for _, r := range out.Rows() {
			walk += int64(r.EncodedSize())
		}
		ds, _ := st.Meta("wc_block")
		if out.EncodedSize() != walk || res.OutputBytes != walk || ds.SizeBytes != walk {
			t.Errorf("faulted=%v: relation %d / Result %d / store %d bytes, a walk says %d",
				faulted, out.EncodedSize(), res.OutputBytes, ds.SizeBytes, walk)
		}
		if faulted && res.SpeculativeTasks != 1 {
			t.Errorf("SpeculativeTasks = %d, want the scripted one", res.SpeculativeTasks)
		}
		if n := calls.Load(); n != 3 {
			t.Errorf("faulted=%v: reducer ran %d times, want once per group", faulted, n)
		}
	}
}

// TestEmitBlockRejectsMixedEmission: a key emits row by row or as one
// block, never both — the engine could not keep the key's run otherwise.
func TestEmitBlockRejectsMixedEmission(t *testing.T) {
	block := func(key string, rows []data.Row, out *ReduceOut) {
		b, n := occurrenceBlock(rows)
		out.EmitBlock(key, b, n)
	}
	row := func(rows []data.Row) data.Row { return data.Row{rows[0][0], value.NewInt(0)} }
	for name, reduce := range map[string]func([]Keyed, *ReduceOut){
		"emit-then-block": perGroup(func(key string, rows []data.Row, out *ReduceOut) {
			out.Emit(key, row(rows))
			block(key, rows, out)
		}),
		"block-then-emit": perGroup(func(key string, rows []data.Row, out *ReduceOut) {
			block(key, rows, out)
			out.Emit(key, row(rows))
		}),
		"block-twice": perGroup(func(key string, rows []data.Row, out *ReduceOut) {
			block(key, rows, out)
			block(key, rows, out)
		}),
		"wrong-width": perGroup(func(key string, rows []data.Row, out *ReduceOut) {
			out.EmitBlock(key, []data.Row{{rows[0][0]}}, 0)
		}),
	} {
		runBroken(t, name, reduce)
	}
}

// TestReduceOutRejectsKeysOutOfOrder pins the rest of the reduce contract:
// within a partition keys strictly ascend, so a key's rows form one run —
// the k-way merge could not keep the global key order otherwise.
func TestReduceOutRejectsKeysOutOfOrder(t *testing.T) {
	row := func(rows []data.Row) data.Row { return data.Row{rows[0][0], value.NewInt(0)} }
	for name, reduce := range map[string]func([]Keyed, *ReduceOut){
		"keys-descend": func(recs []Keyed, out *ReduceOut) {
			var keys []string
			out.EachGroup(recs, func(key string, _ []data.Row) { keys = append(keys, key) })
			for i := len(keys) - 1; i >= 0; i-- {
				out.Emit(keys[i], data.Row{value.NewStr(keys[i]), value.NewInt(0)})
			}
		},
		"key-in-two-runs": func(recs []Keyed, out *ReduceOut) {
			for pass := 0; pass < 2; pass++ {
				out.EachGroup(recs, func(key string, rows []data.Row) { out.Emit(key, row(rows)) })
			}
		},
	} {
		runBroken(t, name, reduce)
	}
}

// runBroken runs blockWordCount's input through a kernel that breaks the
// reduce contract, every key in one partition, and fails unless the job does.
func runBroken(t *testing.T, name string, reduce func([]Keyed, *ReduceOut)) {
	t.Helper()
	e, st := newEngine()
	loadWords(st)
	e.Params.ReduceTasks = 1
	job := blockWordCount(nil)
	job.Reduce = reduce
	if _, _, err := runOne(e, job); err == nil {
		t.Errorf("%s: job succeeded", name)
	}
}
