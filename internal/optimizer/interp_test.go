package optimizer

import (
	"fmt"
	"sync/atomic"

	"opportune/internal/data"
	"opportune/internal/mr"
	"opportune/internal/plan"
	"opportune/internal/udf"
	"opportune/internal/value"
)

// The row interpreter below is the reference implementation of a job's map
// side: the fused programs (fuse.go) are the only production path, and the
// fusion oracles run every compiled job against this interpreter instead
// (stripKernels installs it as the job's batch map function). It pushes one
// source row at a time through the stream's operator chain, stage by stage,
// and hands every surviving row to the same boundary emitter the fused
// kernel feeds.

// pipeline is a compiled map-side operator chain instantiated for one map
// task: it pushes one source row through the chain, which hands zero or more
// rows of the boundary-input schema to the sink the pipeline was bound to.
type pipeline func(r data.Row)

// pipelineFactory instantiates a pipeline for one map task. Column
// resolution and predicate compilation happen once at build time; per-task
// state (the exploding-UDF row tag, seeded from the TaskCtx so tags are
// unique yet schedule-independent, and each stage's scratch row) is created
// per instantiation. retain says the sink keeps the rows it is handed.
type pipelineFactory func(ctx mr.TaskCtx, sink func(data.Row), retain bool) pipeline

// stageFactory instantiates one operator for one map task, bound to the
// stage after it. A stage that builds rows (Project, UDF) builds them in one
// scratch row it owns and overwrites for the next: a row handed downstream
// is valid only for that call, so no tuple is materialized between
// operators.
type stageFactory func(ctx mr.TaskCtx, next func(data.Row)) func(data.Row)

// buildPipeline compiles a stream's operator chain against its source
// columns into a per-task factory; *k is the job's index of the next probe.
func (o *Optimizer) buildPipeline(st stream, k *int) (pipelineFactory, error) {
	cols := st.srcCols
	var stages []stageFactory
	builds := false // some stage builds rows; otherwise source rows pass through
	for _, op := range st.ops {
		sf, err := o.buildStage(op, cols, k)
		if err != nil {
			return nil, err
		}
		stages = append(stages, sf)
		builds = builds || op.Kind != plan.KindFilter
		cols = op.OutCols
	}
	return func(ctx mr.TaskCtx, sink func(data.Row), retain bool) pipeline {
		fn := sink
		if builds && retain {
			// The chain's output lives in a stage's scratch row. A sink that
			// keeps rows gets each survivor's one materialization instead,
			// cut from the task's slab after the last filter has run — so a
			// selective chain never pins the rows it dropped.
			var slab rowSlab
			fn = func(r data.Row) {
				out := slab.next(len(r))
				copy(out, r)
				sink(out)
			}
		}
		for i := len(stages) - 1; i >= 0; i-- {
			fn = stages[i](ctx, fn)
		}
		return fn
	}, nil
}

// buildStage compiles a single pipeline operator given its input columns.
func (o *Optimizer) buildStage(op *plan.Node, inCols []string, k *int) (stageFactory, error) {
	inSchema := data.NewSchema(inCols...)
	switch op.Kind {
	case plan.KindProject:
		idxs := make([]int, len(op.Cols))
		for i, c := range op.Cols {
			ix, ok := inSchema.Index(c)
			if !ok {
				return nil, fmt.Errorf("optimizer: project column %q missing at execution", c)
			}
			idxs[i] = ix
		}
		return func(_ mr.TaskCtx, next func(data.Row)) func(data.Row) {
			out := make(data.Row, len(idxs))
			return func(r data.Row) {
				for i, ix := range idxs {
					out[i] = r[ix]
				}
				next(out)
			}
		}, nil

	case plan.KindFilter:
		pred, err := o.Eval.Compile(op.Pred, inSchema)
		if err != nil {
			return nil, err
		}
		return func(_ mr.TaskCtx, next func(data.Row)) func(data.Row) {
			return func(r data.Row) {
				if pred(r) {
					next(r)
				}
			}
		}, nil

	case plan.KindUDF:
		d, ok := o.Cat.UDFs.Get(op.UDFName)
		if !ok || d.Kind != udf.KindMap {
			return nil, fmt.Errorf("optimizer: %q is not a map UDF", op.UDFName)
		}
		argIdx := make([]int, len(op.UDFArgs))
		for i, c := range op.UDFArgs {
			ix, ok := inSchema.Index(c)
			if !ok {
				return nil, fmt.Errorf("optimizer: UDF arg column %q missing at execution", c)
			}
			argIdx[i] = ix
		}
		params := op.UDFParams
		return func(ctx mr.TaskCtx, next func(data.Row)) func(data.Row) {
			// The exploded-row tag is the relation's record key: it only
			// needs to be unique and deterministic. Each task counts up
			// from its first input row's global ordinal shifted past any
			// plausible per-task emission count, so tags never collide
			// across tasks and never depend on scheduling.
			rowTag := ctx.GlobalRow << 20
			// args is the UDF's for the call only (the fused path's contract
			// too); what it returns is copied out before the next call.
			args := make([]value.V, len(argIdx))
			out := make(data.Row, 0, len(inCols)+len(d.OutNames)+1)
			return func(r data.Row) {
				for i, ix := range argIdx {
					args[i] = r[ix]
				}
				outs := d.Map(args, params)
				d.CheckMap(outs)
				for _, outVals := range outs {
					out = append(append(out[:0], r...), outVals...)
					if d.Explode {
						rowTag++
						out = append(out, value.NewInt(rowTag))
					}
					next(out)
				}
			}
		}, nil

	case plan.KindJoin:
		return o.probeStage(op, inCols, k)
	}
	return nil, fmt.Errorf("optimizer: operator %s cannot run map-side", op.Kind)
}

// probeStage compiles a probe join (probeOf) for one stream: each input row
// looks its join key up in the index of the other side's dataset — null
// keys never join — the other side's chain runs on the matched rows, and
// every survivor is emitted beside the input row in the shuffle join's
// output layout. It makes the lookups the fused kernel makes (fuseChain).
func (o *Optimizer) probeStage(op *plan.Node, inCols []string, k *int) (stageFactory, error) {
	pj, ok := o.probeOf(op)
	if !ok {
		return nil, fmt.Errorf("optimizer: join %s = %s is not a probe", op.LCol, op.RCol)
	}
	keyIx, ok := indexOf(inCols, pj.key)
	if !ok {
		return nil, fmt.Errorf("optimizer: join key %q missing from the probing stream", pj.key)
	}
	ix := *k
	*k++
	chain, err := o.buildPipeline(pj.other, k)
	if err != nil {
		return nil, err
	}
	nl := len(op.Inputs[0].OutCols)
	rKeep := keptRight(op.OutCols, nl, op.Inputs[1].OutCols)
	delta, width := pj.delta, len(op.OutCols)
	return func(ctx mr.TaskCtx, next func(data.Row)) func(data.Row) {
		probe := ctx.Probes[ix]
		var enc data.KeyEncoder
		out := make(data.Row, width)
		var in data.Row // the row being probed, valid for its call
		joined := chain(ctx, func(m data.Row) {
			l, r := in, m
			if delta == 1 {
				l, r = m, in
			}
			copy(out, l)
			for i, ix := range rKeep {
				out[nl+i] = r[ix]
			}
			next(out)
		}, false)
		return func(r data.Row) {
			if r[keyIx].IsNull() {
				return
			}
			in = r
			for _, pos := range probe.Lookup(enc.KeyOf(r[keyIx])) {
				joined(probe.Row(pos))
			}
		}
	}, nil
}

// interpretedMap compiles a job node's streams on the row interpreter into
// a batch map function that maps a split row by row into the boundary
// emitter bf. Instantiation is per task (column resolution already
// happened), which keeps stateful stages race-free under the engine's
// parallel map phase; the sinks are built once per task, not per row. Every
// split it maps is counted in splits.
func (o *Optimizer) interpretedMap(jn *JobNode, bf boundaryFactory, retain bool, splits *atomic.Int64) (func(mr.TaskCtx) mr.BatchMapFunc, error) {
	factories := make([]pipelineFactory, len(jn.streams))
	k := 0
	for i, st := range jn.streams {
		pf, err := o.buildPipeline(st, &k)
		if err != nil {
			return nil, err
		}
		factories[i] = pf
	}
	return func(ctx mr.TaskCtx) mr.BatchMapFunc {
		be := bf(ctx)
		var emit mr.Emit
		pipes := make([]pipeline, len(factories))
		for i, pf := range factories {
			pipes[i] = pf(ctx, func(row data.Row) { be(i, row, emit) }, retain)
		}
		return func(input int, rows []data.Row, e mr.Emit) mr.BatchReport {
			splits.Add(1)
			emit = e
			for _, r := range rows {
				pipes[input](r)
			}
			return mr.BatchReport{}
		}
	}, nil
}
