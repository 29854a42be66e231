// Incremental view maintenance over append-only ingest (ROADMAP item 2).
//
// AppendRows grows a base log and then, instead of dropping every dependent
// view, classifies each one via its A/F/K annotation and its captured
// producing plan:
//
//   - maintainable views are refreshed by running the view's own pipeline
//     over *only* the appended delta (a fresh delta job on the MR engine)
//     and merging the delta output into the stored relation — appended rows
//     for map-only views, a sorted key-merge of distributive aggregate
//     states (count/sum/min/max) for grouped views;
//   - everything else falls back to explicit invalidation, the pre-existing
//     behavior, now an explicitly-chosen fallback with a recorded reason.
//
// The merge paths are chosen so a maintained view is byte-identical to a
// full recompute over the grown base: map-only pipelines emit in scan
// order, and grouped jobs emit in global encoded-key order, which the
// two-pointer merge preserves. One caveat is inherent: float-valued SUMs
// can differ in final ULPs from a recompute because addition order differs;
// integer-valued aggregates (COUNT, MIN/MAX, sums of integers) are exact.
// Compensated (Kahan/Neumaier) summation in both the aggregate folds
// (aggPhys.foldSum) and the merge below keeps that drift to at most one
// rounding per append rather than one per input row — the fractional-SUM
// differential oracle asserts a tight ULP bound over a whole append chain.
package session

import (
	"fmt"

	"opportune/internal/afk"
	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/meta"
	"opportune/internal/mr"
	"opportune/internal/plan"
	"opportune/internal/storage"
	"opportune/internal/udf"
	"opportune/internal/value"
)

// AppendReport describes what one AppendRows did.
type AppendReport struct {
	Table string
	Rows  int

	Maintained  []string          // views refreshed incrementally
	Invalidated []string          // views dropped (with Reasons)
	Reasons     map[string]string // view -> why it was invalidated

	// MaintainSeconds is the simulated cost of maintenance: delta jobs plus
	// merge I/O. StatsSeconds covers re-estimating base-table statistics and
	// refreshed-view statistics (sampling jobs).
	MaintainSeconds float64
	StatsSeconds    float64
}

// AppendRows adds new records to a base log. Dependent views — attribute
// signatures in each view's annotation record provenance exactly — are
// incrementally maintained when their annotation and producing plan admit
// it, and invalidated otherwise. AppendRows serializes against RunBatch and
// against planning, but not against executing plans: a running plan keeps
// its pinned inputs readable (deletion defers) and is replanned afterwards
// if an input it had not pinned yet was invalidated.
func (s *Session) AppendRows(table string, rows []data.Row) (*AppendReport, error) {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	s.planMu.Lock()
	defer s.planMu.Unlock()

	info, ok := s.Cat.Table(table)
	if !ok || info.IsView {
		return nil, fmt.Errorf("session: %q is not a base table", table)
	}
	ds, ok := s.Store.Meta(table)
	if !ok {
		return nil, fmt.Errorf("session: %q not in store", table)
	}
	epoch := s.ingestEpoch.Add(1)
	s.Obs.Gauge("session_ingest_epoch").Set(float64(epoch))
	s.Obs.Counter("session_append_rows_total", "table", table).Add(int64(len(rows)))

	rep := &AppendReport{Table: table, Rows: len(rows), Reasons: make(map[string]string)}

	// Copy-on-write: concurrent Runs may be scanning the current relation,
	// so the stored rows are never mutated in place. The re-put installs
	// the grown copy and updates size/eviction bookkeeping.
	old := ds.Relation()
	rel := data.NewRelation(old.Schema())
	rel.Grow(old.Len() + len(rows))
	rel.AppendAll(old)
	for _, r := range rows {
		rel.Append(r)
	}
	// Re-Put deliberately resets the store's layout property (fresh bytes
	// make no promise), but an append preserves a hash layout: the bucket a
	// row belongs to is a function of its key values alone, so the grown
	// relation satisfies the same property the ingest path maintains.
	// Re-declare it on both store and catalog.
	baseSigs, baseParts := s.Store.Partitioning(table)
	s.Store.Put(table, storage.Base, rel)
	if baseParts > 0 {
		s.Store.SetPartitioning(table, baseSigs, baseParts)
	}
	s.Cat.RegisterBase(table, info.Cols, info.KeyCol,
		cost.Stats{Rows: int64(rel.Len()), Bytes: rel.EncodedSize()}, info.Distinct)
	if baseParts > 0 {
		s.Cat.SetPartitioning(table, afk.Partitioning{Sigs: baseSigs, Parts: baseParts})
	}
	// Re-estimate per-column distincts on the grown base: appends change
	// cardinalities, and stale counts misprice every downstream group-by.
	sec, err := s.Cat.CollectStats(s.Eng, table, s.statsSeed.Add(1))
	if err != nil {
		return nil, err
	}
	rep.StatsSeconds += sec

	// The delta relation, installed lazily as a temporary base table the
	// first time a view qualifies for maintenance. The fixed per-table name
	// keeps the signature/FD universe bounded across appends.
	deltaName := "~delta~" + table
	deltaInstalled := false
	installDelta := func() {
		delta := data.NewRelation(old.Schema())
		delta.Grow(len(rows))
		for _, r := range rows {
			delta.Append(r)
		}
		s.Store.Put(deltaName, storage.Base, delta)
		s.Cat.RegisterBase(deltaName, info.Cols, info.KeyCol,
			cost.Stats{Rows: int64(delta.Len()), Bytes: delta.EncodedSize()}, info.Distinct)
		deltaInstalled = true
	}

	for _, v := range s.Cat.Views() {
		if !annDependsOn(v.Ann, table) {
			continue
		}
		reason := ""
		var shape *viewShape
		var pl *plan.Node
		if verdict := afk.Maintainable(v.Ann, table); !verdict.OK {
			reason = verdict.Reason
		} else if pl = s.viewPlan(v.Name); pl == nil {
			reason = "no captured producing plan"
		} else {
			shape, reason = s.maintainShape(pl, table)
		}
		if reason == "" {
			if !deltaInstalled {
				installDelta()
			}
			msec, ssec, err := s.maintainView(v, pl, shape, deltaName)
			if err != nil {
				reason = fmt.Sprintf("maintenance failed: %v", err)
				s.Obs.Counter("session_maintenance_fallbacks_total", "table", table).Inc()
			} else {
				rep.Maintained = append(rep.Maintained, v.Name)
				rep.MaintainSeconds += msec
				rep.StatsSeconds += ssec
				s.Obs.Counter("session_views_maintained_total", "table", table).Inc()
				s.Obs.FloatCounter("session_maintenance_sim_seconds_total", "table", table).Add(msec)
				// The maintenance cost is the view's freshness lag: how long
				// (in simulated seconds) it stayed stale after the append.
				s.Obs.Histogram("session_view_freshness_lag_sim_seconds", nil).Observe(msec)
				continue
			}
		}
		s.Store.Delete(v.Name)
		s.Cat.DropView(v.Name)
		s.dropViewPlan(v.Name)
		rep.Invalidated = append(rep.Invalidated, v.Name)
		rep.Reasons[v.Name] = reason
		s.Obs.Counter("session_views_invalidated_total", "table", table).Inc()
	}
	if deltaInstalled {
		s.Store.Delete(deltaName)
		s.Cat.DropTable(deltaName)
	}
	return rep, nil
}

// viewShape is the plan-level maintainability classification: the producing
// pipeline is a chain of record-local operators over one scan of the
// appended table, optionally topped by a single distributive GroupAgg.
type viewShape struct {
	agg *plan.Node // the root GroupAgg; nil for a map-only chain
}

// maintainShape checks the plan-level half of the maintainability gate (the
// annotation-level half is afk.Maintainable): the structure must guarantee
// that the pipeline applied to the delta alone produces exactly the rows a
// recompute would add or fold in. Returns a non-empty reason on rejection.
func (s *Session) maintainShape(pl *plan.Node, table string) (*viewShape, string) {
	shape := &viewShape{}
	cur := pl
	if cur.Kind == plan.KindGroupAgg {
		if len(cur.Keys) == 0 {
			return nil, "global aggregate (no group keys)"
		}
		for _, a := range cur.Aggs {
			switch a.Func {
			case plan.AggCount, plan.AggSum, plan.AggMin, plan.AggMax:
			default:
				return nil, fmt.Sprintf("non-distributive aggregate %s", a.Func)
			}
		}
		shape.agg = cur
		cur = cur.Inputs[0]
	}
	for {
		switch cur.Kind {
		case plan.KindScan:
			if cur.Dataset != table {
				return nil, fmt.Sprintf("scans %q, not the appended table", cur.Dataset)
			}
			return shape, ""
		case plan.KindProject, plan.KindFilter:
			cur = cur.Inputs[0]
		case plan.KindUDF:
			d, ok := s.Cat.UDFs.Get(cur.UDFName)
			if !ok || d.Kind != udf.KindMap {
				return nil, fmt.Sprintf("aggregate UDF %s below the root", cur.UDFName)
			}
			if d.Explode {
				// Exploding UDFs tag emitted rows by task-global row number;
				// a delta run restarts the numbering and would not reproduce
				// a recompute's tags.
				return nil, fmt.Sprintf("exploding UDF %s", cur.UDFName)
			}
			cur = cur.Inputs[0]
		default:
			return nil, fmt.Sprintf("operator %s in pipeline", cur.Kind)
		}
	}
}

// maintainView refreshes one view from the appended delta: run the view's
// pipeline over the delta table, merge the delta output into the stored
// relation, refresh statistics. Returns (maintenance sim seconds, stats sim
// seconds). Any error leaves the view droppable — the caller falls back to
// invalidation, which is always safe.
func (s *Session) maintainView(v *meta.TableInfo, pl *plan.Node, shape *viewShape, deltaName string) (float64, float64, error) {
	// The delta plan is the producing plan with the base scan retargeted at
	// the delta table. Annotate recomputes every node annotation, so the
	// compiled job is an ordinary (delta-sized) instance of the pipeline.
	dp := pl.Clone()
	plan.Walk(dp, func(n *plan.Node) {
		if n.Kind == plan.KindScan && n.Dataset == v.Name {
			// Defensive: a captured plan never scans its own output.
			panic("session: view plan scans itself")
		}
		if n.Kind == plan.KindScan {
			n.Dataset = deltaName
		}
	})
	s.Opt.ClearEstimates()
	w, err := s.Opt.Compile(dp)
	if err != nil {
		return 0, 0, fmt.Errorf("delta compile: %w", err)
	}
	if len(w.Nodes) != 1 {
		return 0, 0, fmt.Errorf("delta plan compiled to %d jobs, want 1", len(w.Nodes))
	}
	tmpOut := "~maint~" + v.Name
	jobs, err := s.Opt.Executable(w, tmpOut)
	if err != nil {
		return 0, 0, fmt.Errorf("delta executable: %w", err)
	}

	pins := []string{v.Name, deltaName, tmpOut}
	s.Store.Pin(pins)
	var maintSeconds, statsSeconds float64
	runErr := func() error {
		_, agg, err := s.Eng.RunSequence(jobs)
		if err != nil {
			return fmt.Errorf("delta job: %w", err)
		}
		stored, err := s.Store.Read(v.Name)
		if err != nil {
			return err
		}
		deltaOut, err := s.Store.Read(tmpOut)
		if err != nil {
			return err
		}
		var merged *data.Relation
		if shape.agg == nil {
			merged, err = mr.MergeAppend(stored, deltaOut)
		} else {
			merged, err = mr.MergeByKey(stored, deltaOut, len(shape.agg.Keys),
				mergeAggRows(shape.agg.Aggs, len(shape.agg.Keys)))
		}
		if err != nil {
			return err
		}
		if _, err := s.Store.Refresh(v.Name, merged); err != nil {
			return err
		}
		spec := cost.MaintenanceSpec{
			ViewBytes:   stored.EncodedSize(),
			DeltaBytes:  deltaOut.EncodedSize(),
			MergedBytes: merged.EncodedSize(),
			MergedRows:  int64(merged.Len()),
		}
		maintSec := agg.SimSeconds + s.Eng.Params.MaintenanceCost(spec).Total()
		statsSec, err := s.Cat.CollectStats(s.Eng, v.Name, s.statsSeed.Add(1))
		if err != nil {
			return err
		}
		maintSeconds, statsSeconds = maintSec, statsSec
		return nil
	}
	err = runErr()
	s.Store.Unpin(pins)
	s.Store.Delete(tmpOut)
	if err != nil {
		return 0, 0, err
	}
	return maintSeconds, statsSeconds, nil
}

// mergeAggRows builds the per-group fold for MergeByKey from the view's
// aggregate specs: aggregate column i of the output sits at nKeys+i. The
// folds mirror aggPhys finalization exactly (COUNT emits Int, SUM emits
// Float, MIN/MAX emit the raw value and skip nulls), so a merged row is the
// row a recompute's reduce would finalize from the union of both groups'
// inputs.
func mergeAggRows(aggs []plan.AggSpec, nKeys int) func(old, delta data.Row) data.Row {
	return func(old, delta data.Row) data.Row {
		out := old.Clone()
		for i, a := range aggs {
			ix := nKeys + i
			switch a.Func {
			case plan.AggCount:
				out[ix] = value.NewInt(old[ix].Int() + delta[ix].Int())
			case plan.AggSum:
				// Compensated two-term add: the merged sum is the exactly
				// rounded value of old+delta, so each append contributes at
				// most one rounding to the chain's drift from full recompute
				// (the delta itself is Kahan-folded by aggPhys). The
				// fractional-SUM oracle bounds the residual drift in ULPs.
				var k value.Kahan
				k.Add(old[ix].Float())
				k.Add(delta[ix].Float())
				out[ix] = value.NewFloat(k.Value())
			case plan.AggMin, plan.AggMax:
				v := delta[ix]
				if v.IsNull() {
					continue
				}
				cur := out[ix]
				if cur.IsNull() ||
					(a.Func == plan.AggMin && value.Compare(v, cur) < 0) ||
					(a.Func == plan.AggMax && value.Compare(v, cur) > 0) {
					out[ix] = v
				}
			}
		}
		return out
	}
}

// annDependsOn reports whether any signature in the annotation derives
// (transitively) from the named dataset.
func annDependsOn(ann afk.Annotation, dataset string) bool {
	var depends func(s *afk.Sig) bool
	depends = func(s *afk.Sig) bool {
		if s.IsBase() {
			return s.Dataset == dataset
		}
		for _, in := range s.Inputs {
			if depends(in) {
				return true
			}
		}
		for _, k := range s.GroupBy {
			if depends(k) {
				return true
			}
		}
		return false
	}
	for _, at := range ann.Attrs() {
		if depends(at.Sig) {
			return true
		}
	}
	for _, k := range ann.K.Sigs() {
		if depends(k) {
			return true
		}
	}
	return false
}
