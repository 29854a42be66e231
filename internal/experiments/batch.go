package experiments

import (
	"fmt"
	"time"

	"opportune/internal/session"
	"opportune/internal/workload"
)

// BatchThroughput compares one-query-at-a-time execution of the workload
// against MRShare-style batched execution (Session.RunBatch): cross-query
// job dedup, shared scans, and inter-job parallelism. Simulated seconds
// are deterministic; wall-clock shows the parallelism win on the local
// worker pool.
type BatchThroughput struct {
	Queries   int
	BatchSize int

	SeqSimSeconds   float64 // Σ per-query TotalSeconds, sequential session
	BatchSimSeconds float64 // Σ physical batch sim + stats jobs
	SimSpeedup      float64

	SeqWallSeconds   float64
	BatchWallSeconds float64
	WallSpeedup      float64

	JobsSubmitted  int
	JobsExecuted   int
	JobsDeduped    int
	SharedScans    int
	ScanBytesSaved int64
}

// Render prints the comparison.
func (r *BatchThroughput) Render() string {
	rows := [][]string{
		{"sequential", f3(r.SeqSimSeconds), f3(r.SeqWallSeconds), fmt.Sprint(r.JobsSubmitted), "-", "-"},
		{fmt.Sprintf("batched(%d)", r.BatchSize), f3(r.BatchSimSeconds), f3(r.BatchWallSeconds),
			fmt.Sprint(r.JobsExecuted), fmt.Sprint(r.JobsDeduped), fmt.Sprint(r.SharedScans)},
	}
	return fmt.Sprintf("Batch throughput: %d queries, batch size %d\n%s\nsim speedup %.2fx  wall speedup %.2fx  scan bytes saved %sGB\n",
		r.Queries, r.BatchSize, table([]string{"strategy", "sim_s", "wall_s", "jobs", "deduped", "shared_scans"}, rows),
		r.SimSpeedup, r.WallSpeedup, gb(r.ScanBytesSaved))
}

// RunBatchThroughput runs the experiment. Both strategies execute the same
// queries in the same order on fresh sessions; batching chunks them into
// groups of cfg.BatchSize and executes each group as one shared-scan batch
// with physical accounting.
func RunBatchThroughput(cfg Config) (*BatchThroughput, error) {
	queries := workload.AllQueries()
	if cfg.Quick {
		// Two analysts' full evolution keeps the quick run representative:
		// intra-analyst versions dedup, both analysts share base-log scans.
		queries = queries[:8]
	}
	size := cfg.BatchSize
	if size <= 0 {
		size = 8
	}
	out := &BatchThroughput{Queries: len(queries), BatchSize: size}

	// Sequential baseline.
	seq, err := newSession(cfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for _, q := range queries {
		m, err := run(seq, q, session.ModeOriginal)
		if err != nil {
			return nil, err
		}
		out.SeqSimSeconds += m.TotalSeconds()
	}
	out.SeqWallSeconds = time.Since(t0).Seconds()

	// Batched execution.
	bs, err := newSession(cfg)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	for lo := 0; lo < len(queries); lo += size {
		hi := lo + size
		if hi > len(queries) {
			hi = len(queries)
		}
		batch, err := workload.Batch(queries[lo:hi], session.ModeOriginal)
		if err != nil {
			return nil, err
		}
		res, err := bs.RunBatch(batch, session.BatchOptions{})
		if err != nil {
			return nil, err
		}
		out.BatchSimSeconds += res.Stats.SimSeconds
		for _, m := range res.PerQuery {
			out.BatchSimSeconds += m.StatsSeconds
		}
		out.JobsSubmitted += res.Stats.JobsSubmitted
		out.JobsExecuted += res.Stats.JobsExecuted
		out.JobsDeduped += res.Stats.JobsDeduped
		out.SharedScans += res.Stats.SharedScans
		out.ScanBytesSaved += res.Stats.ScanBytesSaved
	}
	out.BatchWallSeconds = time.Since(t0).Seconds()

	if out.BatchSimSeconds > 0 {
		out.SimSpeedup = out.SeqSimSeconds / out.BatchSimSeconds
	}
	if out.BatchWallSeconds > 0 {
		out.WallSpeedup = out.SeqWallSeconds / out.BatchWallSeconds
	}
	return out, nil
}
