// Incremental view maintenance over append-only ingest (ROADMAP item 2).
//
// AppendRows grows a base log and then, instead of dropping every dependent
// view, classifies each one via its A/F/K annotation and its captured
// producing plan:
//
//   - maintainable views — plans linear in the appended table, joins with
//     other tables included — are refreshed by running the view's own plan
//     with *only* the appended delta in the table's place and merging the
//     sink into the stored relation — appended rows for map-only views, a
//     sorted key-merge of distributive aggregate states (afk.Rollups:
//     count/sum/min/max) for grouped views. The delta is marked as one
//     (meta.TableInfo.Delta), so the joins on its path probe an index of
//     their other side (DESIGN §5.15): an aggregate over a join is one job
//     over the delta's rows;
//   - everything else falls back to explicit invalidation, the pre-existing
//     behavior, now an explicitly-chosen fallback with a recorded reason.
//
// The merge paths are chosen so a maintained view is byte-identical to a
// full recompute over the grown base: map-only pipelines emit in scan
// order, and grouped jobs emit in global encoded-key order, which the
// two-pointer merge preserves. One caveat is inherent: float-valued SUMs
// can differ in final ULPs from a recompute because addition order differs
// (a probe feeds the group-agg in delta order × stored order, a shuffle join
// in key-group order); integer-valued aggregates (COUNT, MIN/MAX, sums of
// integers) are exact.
// Compensated summation in both the aggregate kernels (the Neumaier step,
// optimizer's aggAccs.addSum) and the merge (afk.Rollups) keeps that drift to
// within one rounding per append, not one per input row — the fractional-SUM
// differential oracle asserts a tight ULP bound over a whole append chain.
package session

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"opportune/internal/afk"
	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/meta"
	"opportune/internal/mr"
	"opportune/internal/obs"
	"opportune/internal/plan"
	"opportune/internal/storage"
	"opportune/internal/udf"
)

// AppendReport describes what one AppendRows did.
type AppendReport struct {
	Table string
	Rows  int

	Maintained  []string          // views refreshed incrementally
	Invalidated []string          // views dropped (with Reasons)
	Reasons     map[string]string // view -> why it was invalidated

	// MaintainSeconds is the simulated cost of maintenance: delta jobs, with
	// any index their probes built, plus merge I/O. StatsSeconds covers
	// re-estimating base-table and refreshed-view statistics (sampling jobs).
	MaintainSeconds float64
	StatsSeconds    float64
}

// AppendRows adds new records to a base log. Dependent views — by the
// lineage in each view's annotation, or by the scans of its plan — are
// incrementally maintained when their annotation and producing plan admit
// it, and invalidated otherwise. AppendRows holds planMu throughout, so it
// serializes against planning but not against executing plans: a running
// plan reads the versions it resolved at plan time, and once the append
// has begun the store refuses the plan's writes and the catalog its
// registrations.
// Only the views' delta jobs run one after another; the base table's
// statistics and each view's merge overlap them (DESIGN §5.9).
func (s *Session) AppendRows(table string, rows []data.Row) (*AppendReport, error) {
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
	if i := slices.IndexFunc(rows, func(r data.Row) bool { return len(r) != len(info.Cols) }); i >= 0 {
		return nil, fmt.Errorf("session: row %d has %d values, %q has %d columns", i, len(rows[i]), table, len(info.Cols))
	}
	epoch := s.Cat.BeginAppend()
	s.Obs.Gauge("session_ingest_epoch").Set(float64(epoch))
	s.Obs.Counter("session_append_rows_total", "table", table).Add(int64(len(rows)))
	sp := s.Obs.StartSpan(table, "append")
	defer sp.End()

	rep := &AppendReport{Table: table, Rows: len(rows), Reasons: make(map[string]string)}

	// Concurrent Runs may hold the current version: Extend leaves it as it
	// is, sharing its array instead of copying it. The re-put installs the
	// grown relation as a new version (with no indexes yet) and updates
	// size/eviction bookkeeping.
	old := ds.Relation()
	rel := old.Extend(rows)
	s.Store.Put(table, storage.Base, rel)
	// The schema did not change, so the entry keeps its annotation and
	// distinct counts, and its layout: the bucket a row belongs to is a
	// function of its key values alone, so the grown relation keeps the
	// layout the table was declared with.
	s.Cat.SetStats(table, cost.Stats{Rows: int64(rel.Len()), Bytes: rel.EncodedSize()})
	// Re-estimate per-column distincts on the grown base: appends change
	// cardinalities, and stale counts misprice every downstream group-by.
	// No delta plan reads them: its scans of the table read the delta.
	var bg sync.WaitGroup
	var baseSec float64
	var baseErr error
	seed, ssp := s.statsSeed.Add(1), sp.Child("stats")
	bg.Add(1)
	go func() {
		defer bg.Done()
		baseSec, baseErr = s.Cat.CollectStats(s.Eng, table, seed)
		ssp.AddSim(baseSec)
		ssp.End()
	}()

	// The delta relation, installed lazily as a temporary base table the
	// first time a view qualifies for maintenance, and marked as a delta so
	// the joins on its path probe the other side's index. The fixed
	// per-table name keeps the signature/FD universe bounded across appends.
	deltaName := "~delta~" + table
	deltaInstalled := false
	installDelta := func() {
		delta := data.NewRelation(old.Schema()).Extend(rows)
		s.Store.Put(deltaName, storage.Base, delta)
		s.Cat.RegisterBase(deltaName, info.Cols, info.KeyCol,
			cost.Stats{Rows: int64(delta.Len()), Bytes: delta.EncodedSize()}, info.Distinct)
		s.Cat.MarkDelta(deltaName)
		deltaInstalled = true
	}

	slots := make(chan struct{}, runtime.GOMAXPROCS(0)) // merges in flight
	var views []*viewMaint
	for _, v := range s.Cat.Views() {
		// The annotation's lineage misses a table that no surviving attribute,
		// key or predicate mentions (a global COUNT(*)); the plan still reads it.
		pl := v.Plan
		if !slices.Contains(v.Ann.Bases(), table) && (pl == nil || !s.reads(pl, table)) {
			continue
		}
		m := &viewMaint{v: v}
		views = append(views, m)
		if verdict := afk.Maintainable(v.Ann, table); !verdict.OK {
			m.reason = verdict.Reason
		} else if pl == nil {
			m.reason = "no captured producing plan"
		} else {
			m.shape, m.reason = s.maintainShape(pl, table)
		}
		if m.reason != "" {
			continue
		}
		if !deltaInstalled {
			installDelta()
		}
		if m.err = s.deltaJobs(m, pl, table, deltaName, sp); m.err != nil {
			continue
		}
		// The merge runs beside the next view's delta jobs; its seed is
		// drawn here, in view order.
		m.seed, m.span = s.statsSeed.Add(1), sp.Child("merge")
		bg.Add(1)
		slots <- struct{}{}
		go func() {
			defer bg.Done()
			m.err = s.mergeDelta(m)
			<-slots
		}()
		if s.Store.ViewCapacityBytes > 0 {
			// A refresh can evict, and eviction ranks views by the order
			// they were touched: touch them as one view at a time would.
			bg.Wait()
		}
	}
	bg.Wait()
	if deltaInstalled {
		s.Store.Delete(deltaName)
	}

	// Everything is reported in view order, so float sums add as they
	// would one view at a time.
	rep.StatsSeconds = baseSec
	for _, m := range views {
		name := m.v.Name
		if m.err != nil {
			m.reason = fmt.Sprintf("maintenance failed: %v", m.err)
			s.Obs.Counter("session_maintenance_fallbacks_total", "table", table).Inc()
		}
		if m.reason == "" {
			rep.Maintained = append(rep.Maintained, name)
			rep.MaintainSeconds += m.maintSec
			rep.StatsSeconds += m.statsSec
			s.Obs.Counter("session_views_maintained_total", "table", table).Inc()
			s.Obs.FloatCounter("session_maintenance_sim_seconds_total", "table", table).Add(m.maintSec)
			// The maintenance cost is the view's freshness lag: how long
			// (in simulated seconds) it stayed stale after the append.
			s.Obs.Histogram("session_view_freshness_lag_sim_seconds", nil).Observe(m.maintSec)
			continue
		}
		s.Store.Delete(name)
		rep.Invalidated = append(rep.Invalidated, name)
		rep.Reasons[name] = m.reason
		s.Obs.Counter("session_views_invalidated_total", "table", table).Inc()
	}
	s.prunePlans()
	sp.AddSim(rep.MaintainSeconds + rep.StatsSeconds)
	if baseErr != nil {
		return nil, baseErr
	}
	return rep, nil
}

// viewShape is the plan-level maintainability classification: how the
// delta plan's output merges into the stored view.
type viewShape struct {
	nKeys int          // leading group-key columns; 0 for a map-only chain
	folds []afk.Rollup // one per aggregate column, after the keys
}

// maintainShape checks the plan-level half of the maintainability gate (the
// annotation-level half is afk.Maintainable): the producing plan must be
// linear in the appended table T — one scan of T, and from it to the root
// only record-local operators and joins whose other input does not read T.
// Then (T ∪ Δ) ⋈ F = (T ⋈ F) ⊎ (Δ ⋈ F) on either join side, and the plan
// applied to Δ alone yields exactly the rows a recompute would append (a
// map-only chain) or fold into its groups (a keyed GroupAgg root of
// distributive aggregates, which is blind to the order a join emits in).
// Returns a non-empty reason on rejection.
func (s *Session) maintainShape(pl *plan.Node, table string) (viewShape, string) {
	var shape viewShape
	cur := pl
	if cur.Kind == plan.KindGroupAgg {
		if len(cur.Keys) == 0 {
			return shape, "global aggregate (no group keys)"
		}
		shape.nKeys = len(cur.Keys)
		for _, a := range cur.Aggs {
			fold := afk.Rollups["agg_"+string(a.Func)]
			if fold == nil {
				return shape, fmt.Sprintf("non-distributive aggregate %s", a.Func)
			}
			shape.folds = append(shape.folds, fold)
		}
		cur = cur.Inputs[0]
	}
	for {
		switch cur.Kind {
		case plan.KindScan:
			if cur.Dataset != table {
				return shape, fmt.Sprintf("scans %q, not the appended table", cur.Dataset)
			}
			return shape, ""
		case plan.KindProject, plan.KindFilter:
			cur = cur.Inputs[0]
		case plan.KindUDF:
			d, ok := s.Cat.UDFs.Get(cur.UDFName)
			if !ok || d.Kind != udf.KindMap {
				return shape, fmt.Sprintf("aggregate UDF %s below the root", cur.UDFName)
			}
			if d.Explode {
				// Exploding UDFs tag emitted rows by task-global row number;
				// a delta run restarts the numbering and would not reproduce
				// a recompute's tags.
				return shape, fmt.Sprintf("exploding UDF %s", cur.UDFName)
			}
			cur = cur.Inputs[0]
		case plan.KindJoin:
			if shape.nKeys == 0 {
				// The join output itself arrives in join-key order, which
				// appending Δ ⋈ F cannot reproduce; maintaining it by key-group
				// concatenation was measured and lost (DESIGN §5.9).
				return shape, "join at the root (no grouping above it)"
			}
			l, r := s.reads(cur.Inputs[0], table), s.reads(cur.Inputs[1], table)
			if l && r {
				return shape, "self-join on the appended table"
			}
			side := 0
			if r {
				side = 1
			}
			cur = cur.Inputs[side]
		default:
			return shape, fmt.Sprintf("operator %s in pipeline", cur.Kind)
		}
	}
}

// reads reports whether a subplan's output depends on the table: it scans
// the table, or a stored view derived from it.
func (s *Session) reads(n *plan.Node, table string) bool {
	found := false
	plan.Walk(n, func(n *plan.Node) {
		if n.Kind != plan.KindScan || found {
			return
		}
		info, ok := s.Cat.Table(n.Dataset)
		found = ok && slices.Contains(info.Ann.Bases(), table)
	})
	return found
}

// viewMaint is one dependent view's maintenance in an append: the reason
// it is invalidated, or its delta run — what it computed, what it cost —
// and the error that ended the run, if one did.
type viewMaint struct {
	v      *meta.TableInfo
	reason string
	shape  viewShape
	sink   *storage.Dataset // the delta run's output, outside the store
	seed   int64
	span   *obs.Span

	deltaSec, maintSec, statsSec float64
	err                          error
}

// deltaJobs runs a view's plan with its scan of the appended table
// retargeted at the delta — the jobs that compiles to, e.g. one group-agg
// job whose map side probes the joined table's index — through the
// session's unit executor. The run publishes nothing: its jobs' outputs
// are handles outside the store, read by the jobs after them and by the
// merge. Any error leaves the view droppable — the caller falls back to
// invalidation, which is always safe.
func (s *Session) deltaJobs(m *viewMaint, pl *plan.Node, table, deltaName string, sp *obs.Span) error {
	msp := sp.Child("maintain")
	defer msp.End()
	// Annotate recomputes every node annotation, so the compiled jobs are
	// ordinary (delta-sized) instances of the plan's.
	dp := pl.Clone()
	plan.Walk(dp, func(n *plan.Node) {
		if n.Kind == plan.KindScan && n.Dataset == table {
			n.Dataset = deltaName
		}
	})
	s.Opt.ClearEstimates()
	w, err := s.Opt.Compile(dp)
	if err != nil {
		return fmt.Errorf("delta compile: %w", err)
	}
	jobs, err := s.Opt.Executable(w, "~maint~"+m.v.Name)
	if err != nil {
		return fmt.Errorf("delta executable: %w", err)
	}
	for _, j := range jobs {
		j.Admit = func() bool { return false }
	}
	in, _ := s.resolve(dp) // a missing input leaves its job unbound: an error
	x, err := s.execute([]plannedQuery{{w: w, jobs: jobs, in: in}}, false)
	if err != nil {
		return fmt.Errorf("delta job: %w", err)
	}
	m.sink = x.consumers[len(x.consumers)-1].out
	m.deltaSec, _ = x.attributed(0)
	msp.AddSim(m.deltaSec)
	return nil
}

// mergeDelta merges a view's delta sink into the stored relation and
// samples its statistics under the seed drawn for it. It runs beside the
// next view's delta jobs: neither reads what the other writes.
func (s *Session) mergeDelta(m *viewMaint) error {
	defer m.span.End()
	stored, err := s.Store.Read(m.v.Name)
	if err != nil {
		return err
	}
	deltaOut, err := s.Store.ReadDataset(m.sink)
	if err != nil {
		return err
	}
	var merged *data.Relation
	if m.shape.nKeys == 0 {
		merged, err = mr.MergeAppend(stored, deltaOut)
	} else {
		merged, err = mr.MergeByKey(stored, deltaOut, m.shape.nKeys, m.shape.mergeRows)
	}
	if err != nil {
		return err
	}
	if _, err := s.Store.Refresh(m.v.Name, merged); err != nil {
		return err
	}
	spec := cost.MaintenanceSpec{
		ViewBytes:   stored.EncodedSize(),
		DeltaBytes:  deltaOut.EncodedSize(),
		MergedBytes: merged.EncodedSize(),
		MergedRows:  int64(merged.Len()),
	}
	mergeSec := s.Eng.Params.MaintenanceCost(spec).Total()
	m.maintSec = m.deltaSec + mergeSec
	m.statsSec, err = s.Cat.CollectStats(s.Eng, m.v.Name, m.seed)
	m.span.AddSim(mergeSec + m.statsSec)
	return err
}

// mergeRows is the per-group fold MergeByKey applies: aggregate column i of
// the output sits at nKeys+i and folds by its afk.Rollups entry, which
// mirrors optimizer's aggAccs.finalRow exactly (COUNT emits Int, SUM emits
// Float, MIN/MAX emit the raw value and skip nulls), so a merged row is the
// row a recompute's reduce would finalize from the union of both groups' inputs.
func (sh viewShape) mergeRows(old, delta data.Row) data.Row {
	out := old.Clone()
	for i, fold := range sh.folds {
		ix := sh.nKeys + i
		out[ix] = fold(old[ix], delta[ix])
	}
	return out
}
