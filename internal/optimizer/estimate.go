// Package optimizer turns annotated logical plans into the job DAG W the
// rewriter searches over: it cuts plans into MR jobs at shuffle boundaries,
// attaches the two per-node annotations of §2.1 — the logical (A,F,K)
// expression and the estimated execution cost — and compiles jobs into
// executable form for the engine.
package optimizer

import (
	"opportune/internal/cost"
	"opportune/internal/expr"
	"opportune/internal/meta"
	"opportune/internal/obs"
	"opportune/internal/plan"
	"opportune/internal/udf"
)

// Default selectivity heuristics. Accuracy matters little — the cost model
// only guides plan ranking (§4.2) — but they are shared by original and
// rewritten plans, so comparisons are apples-to-apples.
const (
	selEq     = 0.10
	selNe     = 0.90
	selRange  = 0.33
	selOpaque = 0.25
	// groupRatio is the fallback group-count ratio when no distinct hint is
	// available.
	groupRatio = 0.10
	// explodeFactor is the assumed fan-out of exploding map UDFs.
	explodeFactor = 3.0
	// keyWidth/valWidth are assumed encoded widths of key and derived
	// attribute values.
	keyWidth = 13.0
	valWidth = 16.0
)

// estimator computes cardinality estimates per logical node, memoized by
// node pointer.
type estimator struct {
	cat    *meta.Catalog
	memo   map[*plan.Node]cost.Stats
	dmemo  map[*plan.Node]map[string]int64 // per-node per-column distinct estimates
	annEst map[string]cost.Stats           // cross-plan estimates by annotation (owned by the Optimizer)
	obs    *obs.Registry
}

func newEstimator(cat *meta.Catalog, annEst map[string]cost.Stats) *estimator {
	if annEst == nil {
		annEst = make(map[string]cost.Stats)
	}
	return &estimator{
		cat:    cat,
		memo:   make(map[*plan.Node]cost.Stats),
		dmemo:  make(map[*plan.Node]map[string]int64),
		annEst: annEst,
	}
}

// stats estimates the output cardinality of a node. A node semantically
// identical to a materialized view uses the view's measured statistics, so
// the estimate depends on the logical output, not on the plan producing it
// — the consistency property BFREWRITE's termination condition assumes.
func (e *estimator) stats(n *plan.Node) cost.Stats {
	if s, ok := e.memo[n]; ok {
		return s
	}
	canon := ""
	if n.Kind != plan.KindScan {
		canon = n.AnnCanon()
		if t, ok := e.cat.ByAnnotation(canon); ok && t.Stats.Rows > 0 {
			e.obs.Counter("optimizer_estimate_cache_hits_total", "src", "catalog").Inc()
			e.memo[n] = t.Stats
			return t.Stats
		}
		if s, ok := e.annEst[canon]; ok {
			e.obs.Counter("optimizer_estimate_cache_hits_total", "src", "query").Inc()
			e.memo[n] = s
			return s
		}
		e.obs.Counter("optimizer_estimate_cache_misses_total").Inc()
	}
	var s cost.Stats
	switch n.Kind {
	case plan.KindScan:
		if t, ok := e.cat.Table(n.Dataset); ok {
			s = t.Stats
		}
	case plan.KindProject:
		in := e.stats(n.Inputs[0])
		frac := float64(len(n.Cols)+1) / float64(len(n.Inputs[0].OutCols)+1)
		s = cost.Stats{Rows: in.Rows, Bytes: int64(float64(in.Bytes) * frac)}
	case plan.KindFilter:
		s = e.stats(n.Inputs[0]).Scale(predSel(n.Pred))
	case plan.KindJoin:
		l, r := e.stats(n.Inputs[0]), e.stats(n.Inputs[1])
		d := max(e.distinct(n.Inputs[0], n.LCol), e.distinct(n.Inputs[1], n.RCol))
		if d < 1 {
			d = 1
		}
		rows := l.Rows * r.Rows / d
		if rows < 1 && l.Rows > 0 && r.Rows > 0 {
			rows = 1
		}
		s = cost.Stats{Rows: rows, Bytes: int64(float64(rows) * (l.AvgRowBytes() + r.AvgRowBytes()))}
	case plan.KindGroupAgg:
		in := e.stats(n.Inputs[0])
		rows := e.groupCount(n.Inputs[0], n.Keys, in.Rows)
		width := keyWidth*float64(len(n.Keys)) + valWidth*float64(len(n.Aggs)) + 4
		s = cost.Stats{Rows: rows, Bytes: int64(float64(rows) * width)}
	case plan.KindSort:
		in := e.stats(n.Inputs[0])
		s = in
		if n.Limit >= 0 && n.Limit < in.Rows {
			s = cost.Stats{Rows: n.Limit, Bytes: int64(float64(n.Limit) * in.AvgRowBytes())}
		}
	case plan.KindUDF:
		in := e.stats(n.Inputs[0])
		d, ok := e.cat.UDFs.Get(n.UDFName)
		if !ok {
			s = in
			break
		}
		if d.Kind == udf.KindMap {
			rows := float64(in.Rows)
			if d.Explode {
				rows *= explodeFactor
			}
			if d.Filters {
				rows *= selOpaque
			}
			width := in.AvgRowBytes() + valWidth*float64(len(d.OutNames))
			s = cost.Stats{Rows: int64(rows), Bytes: int64(rows * width)}
		} else {
			var keyCols []string
			if !d.DerivedKeys {
				for _, ka := range d.KeyArgs {
					keyCols = append(keyCols, n.UDFArgs[ka])
				}
			}
			rows := e.groupCount(n.Inputs[0], keyCols, in.Rows)
			width := keyWidth*float64(len(d.KeyNames)) + valWidth*float64(len(d.OutNames)) + 4
			s = cost.Stats{Rows: rows, Bytes: int64(float64(rows) * width)}
		}
	}
	e.memo[n] = s
	if canon != "" {
		e.annEst[canon] = s
	}
	return s
}

// groupCount estimates the number of groups keyed by the given columns.
func (e *estimator) groupCount(in *plan.Node, keys []string, rows int64) int64 {
	if len(keys) == 0 {
		if rows > 0 {
			return 1 // global aggregate
		}
		return 0
	}
	g := int64(1)
	for _, k := range keys {
		d := e.distinct(in, k)
		if d <= 0 {
			d = int64(float64(rows) * groupRatio)
			if d < 1 {
				d = 1
			}
		}
		if g > rows/max(d, 1) {
			g = rows // cap early to avoid overflow
		} else {
			g *= d
		}
	}
	if g > rows {
		g = rows
	}
	if g < 1 && rows > 0 {
		g = 1
	}
	return g
}

// distinct estimates the distinct count of a column at a node: table hints
// at scans, propagated (capped by row estimates) through other operators,
// defaulting to groupRatio of the rows for derived columns.
func (e *estimator) distinct(n *plan.Node, col string) int64 {
	if m, ok := e.dmemo[n]; ok {
		if d, ok := m[col]; ok {
			return d
		}
	}
	var d int64
	switch n.Kind {
	case plan.KindScan:
		if t, ok := e.cat.Table(n.Dataset); ok {
			d = t.DistinctOf(col)
		}
	case plan.KindProject, plan.KindFilter, plan.KindUDF, plan.KindSort:
		if len(n.Inputs) > 0 && n.Inputs[0].Ann.SigOf(col) != nil {
			d = e.distinct(n.Inputs[0], col)
		}
	case plan.KindJoin:
		if n.Inputs[0].Ann.SigOf(col) != nil {
			d = e.distinct(n.Inputs[0], col)
		} else if n.Inputs[1].Ann.SigOf(col) != nil {
			d = e.distinct(n.Inputs[1], col)
		}
	case plan.KindGroupAgg:
		for _, k := range n.Keys {
			if k == col {
				d = e.distinct(n.Inputs[0], col)
			}
		}
	}
	rows := e.stats(n).Rows
	if d <= 0 {
		d = int64(float64(rows) * groupRatio)
	}
	if d > rows {
		d = rows
	}
	if d < 1 && rows > 0 {
		d = 1
	}
	if e.dmemo[n] == nil {
		e.dmemo[n] = make(map[string]int64)
	}
	e.dmemo[n][col] = d
	return d
}

// predSel is the selectivity heuristic for one predicate.
func predSel(p expr.Pred) float64 {
	switch p.Kind {
	case expr.KindCmp:
		switch p.Op {
		case expr.Eq:
			return selEq
		case expr.Ne:
			return selNe
		default:
			return selRange
		}
	case expr.KindOpaque:
		return selOpaque
	default:
		return selRange
	}
}
