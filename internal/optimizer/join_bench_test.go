package optimizer

import (
	"testing"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/expr"
	"opportune/internal/meta"
	"opportune/internal/mr"
	"opportune/internal/plan"
	"opportune/internal/storage"
	"opportune/internal/value"
)

// BenchmarkJoinReduceFanout runs one compiled reduce-side join of the
// ingest workload's ing_social shape through the engine: 400 keys, 50 left
// and 17 right rows each, so 26 800 shuffled rows fan out to 340 000 output
// rows of four columns. Everything the job pays after the shuffle — building
// the rows, sizing the partition buffers and the output relation, measuring
// the output, Store.Put — is per *output* row, which is what this tracks.
func BenchmarkJoinReduceFanout(b *testing.B) {
	const keys, perL, perR = 400, 50, 17
	st := storage.NewStore()
	cat := meta.NewCatalog()
	load := func(name string, cols []string, per int) {
		rel := data.NewRelation(data.NewSchema(cols...))
		for i := 0; i < keys*per; i++ {
			rel.Append(data.Row{value.NewInt(int64(i)), value.NewInt(int64(i % keys))})
		}
		st.Put(name, storage.Base, rel)
		cat.RegisterBase(name, cols, cols[0], cost.Stats{Rows: int64(rel.Len()), Bytes: rel.EncodedSize()},
			map[string]int64{cols[0]: int64(rel.Len()), cols[1]: keys})
	}
	load("tw", []string{"tweet_id", "user_id"}, perL)
	load("ck", []string{"checkin_id", "fuser"}, perR)
	params := cost.DefaultParams()
	opt := New(cat, params, expr.NewEvaluator())
	w, err := opt.Compile(plan.JoinNodes(plan.Scan("tw"), plan.Scan("ck"), "user_id", "fuser"))
	if err != nil {
		b.Fatal(err)
	}
	jobs, err := opt.Executable(w, "bench_join")
	if err != nil {
		b.Fatal(err)
	}
	eng := mr.New(st, params)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, res, err := runJob(eng, jobs[0])
		if err != nil {
			b.Fatal(err)
		}
		if rel.Len() != keys*perL*perR || res.OutputBytes != rel.EncodedSize() {
			b.Fatalf("joined %d rows, %d B accounted vs %d carried", rel.Len(), res.OutputBytes, rel.EncodedSize())
		}
	}
}
