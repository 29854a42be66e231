package optimizer

import (
	"fmt"
	"hash/fnv"

	"opportune/internal/afk"
	"opportune/internal/cost"
	"opportune/internal/expr"
	"opportune/internal/meta"
	"opportune/internal/obs"
	"opportune/internal/plan"
	"opportune/internal/udf"
)

// Optimizer compiles and costs plans against a catalog.
type Optimizer struct {
	Cat    *meta.Catalog
	Params cost.Params
	Eval   *expr.Evaluator

	// annEst caches output-cardinality estimates by annotation fingerprint
	// across Compile calls, so that every plan producing the same logical
	// output is estimated identically — the consistency BFREWRITE's
	// termination and work-efficiency arguments assume. The rewriter costs
	// many alternative plans for the same targets during one search; the
	// first estimate computed for an annotation wins. Callers reset it
	// between queries (statistics change as views accumulate).
	annEst map[string]cost.Stats

	// Obs, when set, receives estimate-cache hit/miss counters. Planning is
	// deterministic (and serialized by the session), so these counters are
	// reproducible across runs.
	Obs *obs.Registry
}

// ClearEstimates drops the cross-plan estimate cache; call between queries.
func (o *Optimizer) ClearEstimates() {
	o.annEst = make(map[string]cost.Stats)
}

// New creates an optimizer. eval supplies implementations of opaque filter
// predicates; pass a fresh evaluator if the workload has none.
func New(cat *meta.Catalog, params cost.Params, eval *expr.Evaluator) *Optimizer {
	if eval == nil {
		eval = expr.NewEvaluator()
	}
	return &Optimizer{Cat: cat, Params: params, Eval: eval, annEst: make(map[string]cost.Stats)}
}

// JobNode is one MR job in the compiled plan W — a rewritable target
// (together with its ancestors) in the paper's terms.
type JobNode struct {
	Index   int
	Logical *plan.Node // boundary logical node whose output this job materializes
	Deps    []*JobNode

	Ann     afk.Annotation
	OutCols []string
	Est     cost.Stats     // estimated output cardinality
	EstCost cost.Breakdown // estimated cost of this job alone
	EstSpec cost.JobSpec   // estimated volumes behind EstCost (engine pre-size hints)

	// PartKeyCols and PartParts record the partition-preserving match found
	// for this job (0,0 when it must shuffle): the inputs' declared layout
	// prefix-matches the job's ordered shuffle key over PartKeyCols leading
	// key columns distributed across PartParts buckets.
	PartKeyCols int
	PartParts   int

	// ViewName is the deterministic dataset name this job materializes as:
	// derived from the annotation fingerprint, so semantically identical
	// jobs across queries share one materialization.
	ViewName string
	// PlanFP is the syntactic fingerprint of the producing logical subplan.
	PlanFP string

	// streams are the compiled input pipelines (one per boundary input).
	streams []stream
}

// Work is the compiled plan W: a DAG of MR jobs in topological order with
// the sink last (NODE_n).
type Work struct {
	Nodes []*JobNode
	Root  *plan.Node
}

// Sink returns NODE_n.
func (w *Work) Sink() *JobNode { return w.Nodes[len(w.Nodes)-1] }

// TotalCost is COST(W): the sum of the estimated costs of all jobs.
func (w *Work) TotalCost() float64 {
	var t float64
	for _, n := range w.Nodes {
		t += n.EstCost.Total()
	}
	return t
}

// CostThrough is COST(W_i): the cost of the sub-plan rooted at node i —
// node i plus all its ancestors.
func (w *Work) CostThrough(i int) float64 {
	seen := make(map[int]bool)
	var rec func(*JobNode) float64
	rec = func(n *JobNode) float64 {
		if seen[n.Index] {
			return 0
		}
		seen[n.Index] = true
		t := n.EstCost.Total()
		for _, d := range n.Deps {
			t += rec(d)
		}
		return t
	}
	return rec(w.Nodes[i])
}

// stream is one input of a boundary node: a source dataset (or upstream
// job) plus the map-side pipeline applied to it.
type stream struct {
	srcDataset string   // set when the source is a stored dataset
	srcJob     *JobNode // set when the source is an upstream job
	ops        []*plan.Node
	srcCols    []string
	outNode    *plan.Node // the logical node feeding the boundary (post-pipeline)
}

func (s stream) inputName() string {
	if s.srcJob != nil {
		return s.srcJob.ViewName
	}
	return s.srcDataset
}

// isBoundary reports whether a logical node ends an MR job: every shuffle
// operator does (joins, group-bys, aggregate UDFs) — except a join compiled
// as a probe stage (probeOf), which runs map-side.
func (o *Optimizer) isBoundary(n *plan.Node) bool {
	switch n.Kind {
	case plan.KindJoin:
		_, probe := o.probeOf(n)
		return !probe
	case plan.KindGroupAgg, plan.KindSort:
		return true
	case plan.KindUDF:
		if d, ok := o.Cat.UDFs.Get(n.UDFName); ok {
			return d.Kind == udf.KindAgg
		}
	}
	return false
}

// Compile annotates the plan and cuts it into the job DAG W, attaching the
// logical-expression and cost annotations to every node.
func (o *Optimizer) Compile(root *plan.Node) (*Work, error) {
	if err := plan.Annotate(root, o.Cat); err != nil {
		return nil, err
	}
	if root.Kind == plan.KindScan {
		return nil, fmt.Errorf("optimizer: trivial plan (bare scan of %s)", root.Dataset)
	}
	w := &Work{Root: root}
	est := newEstimator(o.Cat, o.annEst)
	est.obs = o.Obs
	byBoundary := make(map[*plan.Node]*JobNode)

	var build func(n *plan.Node) (*JobNode, error)
	build = func(n *plan.Node) (*JobNode, error) {
		if j, ok := byBoundary[n]; ok {
			return j, nil
		}
		j := &JobNode{Logical: n, Ann: n.Ann, OutCols: n.OutCols}

		// Collect one stream per boundary input; for map-only jobs (the
		// root of a pipeline with no shuffle) there is a single stream and
		// no reduce.
		var inputs []*plan.Node
		if o.isBoundary(n) {
			inputs = n.Inputs
		} else {
			inputs = []*plan.Node{n}
		}
		for _, in := range inputs {
			st, err := o.collectStream(in, build)
			if err != nil {
				return nil, err
			}
			if st.srcJob != nil {
				j.Deps = append(j.Deps, st.srcJob)
			}
			j.streams = append(j.streams, st)
		}

		j.Est = est.stats(n)
		j.EstCost = o.estimateJobCost(j, est)
		j.ViewName = ViewNameFor(n.Ann)
		j.PlanFP = n.Fingerprint()
		j.Index = len(w.Nodes)
		w.Nodes = append(w.Nodes, j)
		byBoundary[n] = j
		return j, nil
	}

	// The sink job: if the root is itself a boundary it is that job;
	// otherwise a map-only job materializes the trailing pipeline.
	if _, err := build(root); err != nil {
		return nil, err
	}
	return w, nil
}

// collectStream walks from the boundary input down to its source (a scan or
// an upstream boundary), gathering the map-side pipeline operators; through
// a probe join it follows the delta's side.
func (o *Optimizer) collectStream(n *plan.Node, build func(*plan.Node) (*JobNode, error)) (stream, error) {
	var ops []*plan.Node
	cur := n
	for {
		if cur.Kind == plan.KindScan {
			// reverse ops into execution order
			rev(ops)
			return stream{srcDataset: cur.Dataset, ops: ops, srcCols: cur.OutCols, outNode: n}, nil
		}
		if o.isBoundary(cur) {
			j, err := build(cur)
			if err != nil {
				return stream{}, err
			}
			rev(ops)
			return stream{srcJob: j, ops: ops, srcCols: cur.OutCols, outNode: n}, nil
		}
		ops = append(ops, cur)
		if pj, probe := o.probeOf(cur); probe {
			cur = cur.Inputs[pj.delta]
		} else {
			cur = cur.Inputs[0]
		}
	}
}

func rev(ops []*plan.Node) {
	for i, j := 0, len(ops)-1; i < j; i, j = i+1, j-1 {
		ops[i], ops[j] = ops[j], ops[i]
	}
}

// estimateJobCost prices one job with the optimizer-side (calibrated)
// scalars.
func (o *Optimizer) estimateJobCost(j *JobNode, est *estimator) cost.Breakdown {
	spec := cost.JobSpec{}
	boundary := j.Logical
	mapOnly := !o.isBoundary(boundary)

	for _, st := range j.streams {
		var src cost.Stats
		if st.srcJob != nil {
			src = st.srcJob.Est
		} else if t, ok := o.Cat.Table(st.srcDataset); ok {
			src = t.Stats
		}
		spec.InputBytes += src.Bytes
		spec.InputRows += src.Rows
		for _, op := range st.ops {
			spec.MapFns = append(spec.MapFns, o.localFn(op, false))
			if pj, probe := o.probeOf(op); probe {
				// The rows a probe matches are read and run the other
				// side's chain; the join's output stands in for them.
				for _, oop := range pj.other.ops {
					spec.MapFns = append(spec.MapFns, o.localFn(oop, false))
				}
				matched := est.stats(op)
				spec.InputRows += matched.Rows
				spec.InputBytes += matched.Bytes
			}
		}
		if !mapOnly {
			out := est.stats(st.outNode)
			spec.ShuffleBytes += out.Bytes + 8*out.Rows // key overhead
			spec.ShuffleRows += out.Rows
		}
	}
	if !mapOnly {
		switch boundary.Kind {
		case plan.KindJoin:
			spec.MapFns = append(spec.MapFns, cost.LocalFn{Ops: []cost.OpType{cost.OpAttr}, Scalar: 1})
			spec.ReduceFns = append(spec.ReduceFns, cost.LocalFn{Ops: []cost.OpType{cost.OpGroup, cost.OpFilter}, Scalar: 1})
		case plan.KindGroupAgg:
			spec.ReduceFns = append(spec.ReduceFns, cost.LocalFn{Ops: []cost.OpType{cost.OpGroup}, Scalar: 1})
			if o.Params.SplitRows > 0 {
				// Combiners shrink the shuffle to at most one partial row
				// per (group, split).
				spec.CombineFns = append(spec.CombineFns, cost.LocalFn{Ops: []cost.OpType{cost.OpGroup}, Scalar: 1})
				spec.CombineRows = spec.ShuffleRows
				nSplits := (spec.InputRows + o.Params.SplitRows - 1) / o.Params.SplitRows
				if nSplits < 1 {
					nSplits = 1
				}
				combined := j.Est.Rows * nSplits
				if combined < spec.ShuffleRows {
					spec.ShuffleBytes = int64(float64(combined)*j.Est.AvgRowBytes()) + 8*combined
					spec.ShuffleRows = combined
				}
			}
		case plan.KindUDF:
			d, _ := o.Cat.UDFs.Get(boundary.UDFName)
			spec.MapFns = append(spec.MapFns, cost.LocalFn{Ops: d.MapOps, Scalar: d.EffectiveScalar()})
			spec.ReduceFns = append(spec.ReduceFns, cost.LocalFn{Ops: d.ReduceOps, Scalar: d.EffectiveScalar()})
		case plan.KindSort:
			// Single-reducer total sort: everything shuffles to one task.
			spec.ReduceFns = append(spec.ReduceFns, cost.LocalFn{Ops: []cost.OpType{cost.OpGroup}, Scalar: 1})
		}
	}
	if !mapOnly {
		if kc, parts := o.partitionMatch(j); kc > 0 {
			// Every shuffle record routes by a key prefix its input bucket
			// already determines, so the whole shuffle is node-local.
			j.PartKeyCols, j.PartParts = kc, parts
			spec.LocalShuffleBytes = spec.ShuffleBytes
		}
	}
	spec.OutputBytes = j.Est.Bytes
	j.EstSpec = spec
	return o.Params.JobCost(spec)
}

// OutputPart is the layout of the bytes a job node writes (reducers
// hash-bucket their output by its key): an opportunistic byproduct the
// catalog records, so plans scanning the view can skip the shuffle.
func (o *Optimizer) OutputPart(jn *JobNode) afk.Partitioning { return o.resolveParts(jn.Logical.Part) }

// resolveParts concretizes a plan-level layout: Parts == 0 on a partitioned
// node means "bucketed on these keys, count chosen by the writer", which the
// optimizer resolves to the configured bucket count (the one compiled jobs
// declare for their outputs).
func (o *Optimizer) resolveParts(p afk.Partitioning) afk.Partitioning {
	if len(p.Sigs) == 0 {
		return afk.Partitioning{}
	}
	if p.Parts > 0 {
		return p
	}
	if o.Params.DefaultPartitions <= 0 {
		return afk.Partitioning{}
	}
	return afk.Partitioning{Sigs: p.Sigs, Parts: o.Params.DefaultPartitions}
}

// partitionMatch decides whether one boundary job can take the partition-
// preserving execution path: every input stream's layout must prefix-match
// the job's ordered shuffle key — same leading key attributes (by signature,
// so the property survives renames and projections) and one common bucket
// count. It returns the number of leading encoded key columns that determine
// the bucket and that bucket count, or (0, 0) when the job must shuffle.
func (o *Optimizer) partitionMatch(j *JobNode) (int, int) {
	for _, st := range j.streams {
		if st.probes() > 0 {
			return 0, 0 // a probe emits where its split sits, in no bucket
		}
	}
	boundary := j.Logical
	switch boundary.Kind {
	case plan.KindGroupAgg:
		if len(boundary.Keys) == 0 || len(j.streams) != 1 {
			return 0, 0
		}
		in := j.streams[0].outNode
		keyIDs := make([]string, len(boundary.Keys))
		for i, k := range boundary.Keys {
			s := in.Ann.SigOf(k)
			if s == nil {
				return 0, 0
			}
			keyIDs[i] = s.ID()
		}
		return o.prefixHit(in.Part, keyIDs)
	case plan.KindJoin:
		// Co-partitioned join: both sides hashed on exactly their join
		// column with the same bucket count. The bucket function is a
		// universal hash of the encoded value, so equal join keys land in
		// the same bucket number on both relations.
		if len(j.streams) != 2 {
			return 0, 0
		}
		l, r := j.streams[0].outNode, j.streams[1].outNode
		lp, rp := o.resolveParts(l.Part), o.resolveParts(r.Part)
		if !lp.IsPartitioned() || !rp.IsPartitioned() || lp.Parts != rp.Parts {
			return 0, 0
		}
		ls, rs := l.Ann.SigOf(boundary.LCol), r.Ann.SigOf(boundary.RCol)
		if ls == nil || rs == nil {
			return 0, 0
		}
		if !lp.PrefixMatch([]string{ls.ID()}) || !rp.PrefixMatch([]string{rs.ID()}) {
			return 0, 0
		}
		return 1, lp.Parts
	case plan.KindUDF:
		// Aggregate UDFs qualify only with the default pre-map, where the
		// emitted shuffle key is exactly the key-arg columns in order; a
		// custom pre-map may derive keys we cannot identify by signature.
		d, ok := o.Cat.UDFs.Get(boundary.UDFName)
		if !ok || d.Kind != udf.KindAgg || d.PreMap != nil || len(d.KeyArgs) == 0 || len(j.streams) != 1 {
			return 0, 0
		}
		in := j.streams[0].outNode
		keyIDs := make([]string, len(d.KeyArgs))
		for i, ka := range d.KeyArgs {
			if ka < 0 || ka >= len(boundary.UDFArgs) {
				return 0, 0
			}
			s := in.Ann.SigOf(boundary.UDFArgs[ka])
			if s == nil {
				return 0, 0
			}
			keyIDs[i] = s.ID()
		}
		return o.prefixHit(in.Part, keyIDs)
	}
	return 0, 0
}

// prefixHit resolves a layout against ordered shuffle-key signature IDs.
func (o *Optimizer) prefixHit(p afk.Partitioning, keyIDs []string) (int, int) {
	rp := o.resolveParts(p)
	if !rp.IsPartitioned() || !rp.PrefixMatch(keyIDs) {
		return 0, 0
	}
	return len(rp.Sigs), rp.Parts
}

// localFn describes a pipeline operator for costing. trueScalar selects the
// engine-side (intrinsic) scalar instead of the calibrated one.
func (o *Optimizer) localFn(op *plan.Node, trueScalar bool) cost.LocalFn {
	switch op.Kind {
	case plan.KindProject:
		return cost.LocalFn{Ops: []cost.OpType{cost.OpAttr}, Scalar: 1}
	case plan.KindFilter:
		return cost.LocalFn{Ops: []cost.OpType{cost.OpFilter}, Scalar: 1}
	case plan.KindUDF:
		if d, ok := o.Cat.UDFs.Get(op.UDFName); ok {
			s := d.EffectiveScalar()
			if trueScalar {
				s = d.TrueScalar
			}
			return cost.LocalFn{Ops: d.MapOps, Scalar: s}
		}
	}
	return cost.LocalFn{Ops: []cost.OpType{cost.OpAttr}, Scalar: 1}
}

// ViewNameFor derives the deterministic materialization name of an
// annotation.
func ViewNameFor(ann afk.Annotation) string {
	h := fnv.New64a()
	h.Write([]byte(ann.Canon()))
	return fmt.Sprintf("v_%016x", h.Sum64())
}
