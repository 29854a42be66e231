package mr

import (
	"fmt"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/storage"
)

// ProbeSpec names one hash index a job's map side looks rows up in — the
// stored side of a delta join compiled as an index probe: a dataset and the
// column it is indexed on.
type ProbeSpec struct {
	Dataset, Col string
}

// Probe is one map task's handle on an index its job probes (Job.Probes,
// TaskCtx.Probes). Lookups are lock-free; the task tallies the stored rows
// they matched and those rows' bytes, which the engine charges as read.
type Probe struct {
	ix          *storage.Index
	rows, bytes int64
}

// NewProbe returns a map task's handle on an index, with nothing charged
// yet: the engine opens one per task and job probe (TaskCtx.Probes).
func NewProbe(ix *storage.Index) *Probe { return &Probe{ix: ix} }

// Lookup returns the positions of the stored rows whose indexed column
// encodes to key (data.KeyEncoder.KeyOf), ascending, charging them to the
// task.
func (p *Probe) Lookup(key string) []int32 {
	pos, bytes := p.ix.Lookup(key)
	p.rows += int64(len(pos))
	p.bytes += bytes
	return pos
}

// Row returns the stored row at a position Lookup returned.
func (p *Probe) Row(pos int32) data.Row { return p.ix.Row(pos) }

// indexScan prices an index build: a map-only scan of the indexed dataset.
var indexScan = []cost.LocalFn{{Ops: []cost.OpType{cost.OpAttr}, Scalar: 1}}

// openProbes opens every index the job probes on its bound version, once
// per attempt. Each open is a read of the dataset, so a read fault fails the attempt; an open that
// builds its index charges the attempt a map-only scan of the dataset — its
// bytes as input read, its rows as IndexRows. Returns the bytes the builds
// read.
func (e *Engine) openProbes(job *Job, res *Result) ([]*storage.Index, int64, error) {
	if len(job.Probes) == 0 {
		return nil, 0, nil
	}
	ixs := make([]*storage.Index, len(job.Probes))
	var built int64
	for i, ps := range job.Probes {
		ix, fresh, err := e.Store.Index(job.ProbeSources[i], ps.Col)
		if err != nil {
			return nil, 0, fmt.Errorf("mr: job %q: %w", job.Name, err)
		}
		if fresh {
			built += ix.Bytes()
			res.InputBytes += ix.Bytes()
			res.IndexRows += int64(ix.Len())
		}
		ixs[i] = ix
	}
	return ixs, built, nil
}
