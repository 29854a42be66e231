package optimizer

import (
	"opportune/internal/plan"
	"opportune/internal/udf"
)

// probeJoin is a join on an appended delta's path compiled as a map-side
// probe stage instead of a shuffle boundary (DESIGN §5.15): each delta row
// looks its key up in a hash index of the stored dataset under the other
// side, whose record-local chain runs on the matched rows only. Only
// maintenance registers deltas (meta.TableInfo.Delta), so queries never
// probe.
type probeJoin struct {
	delta int    // the input on the delta's path
	key   string // its join column
	other stream // the indexed side: a record-local chain over a stored dataset
	col   string // the stored column the index is built on
}

// probeOf reports whether a join compiles as a probe stage: one input is on
// a delta's path, and the other is a chain of Project / Filter /
// non-exploding map UDF over a stored dataset whose join key is a stored
// column of it — renamed or not, matched by signature. A join or aggregate
// under the other side, or a key a UDF computes, keeps the shuffle join.
func (o *Optimizer) probeOf(n *plan.Node) (probeJoin, bool) {
	if n.Kind != plan.KindJoin {
		return probeJoin{}, false
	}
	for delta := range 2 {
		if !o.onDeltaPath(n.Inputs[delta]) {
			continue
		}
		other, key, probing := n.Inputs[1-delta], n.RCol, n.LCol
		if delta == 1 {
			key, probing = n.LCol, n.RCol
		}
		st, ok := o.localChain(other)
		if !ok {
			return probeJoin{}, false
		}
		scan := other
		for scan.Kind != plan.KindScan {
			scan = scan.Inputs[0]
		}
		keyID := other.Ann.MustSig(key).ID()
		for _, c := range scan.OutCols {
			if sig := scan.Ann.SigOf(c); sig != nil && sig.ID() == keyID {
				return probeJoin{delta: delta, key: probing, other: st, col: c}, true
			}
		}
		return probeJoin{}, false
	}
	return probeJoin{}, false
}

// onDeltaPath reports whether a subplan streams a delta's rows: a scan of a
// delta under record-local operators and probe joins.
func (o *Optimizer) onDeltaPath(n *plan.Node) bool {
	for {
		switch n.Kind {
		case plan.KindScan:
			t, ok := o.Cat.Table(n.Dataset)
			return ok && t.Delta
		case plan.KindProject, plan.KindFilter:
		case plan.KindUDF:
			if o.isBoundary(n) {
				return false
			}
		case plan.KindJoin:
			pj, ok := o.probeOf(n)
			if !ok {
				return false
			}
			n = n.Inputs[pj.delta]
			continue
		default:
			return false
		}
		n = n.Inputs[0]
	}
}

// localChain collects a record-local chain over a stored dataset that is not
// a delta into a stream, or reports that n is not one.
func (o *Optimizer) localChain(n *plan.Node) (stream, bool) {
	var ops []*plan.Node
	for cur := n; ; cur = cur.Inputs[0] {
		switch cur.Kind {
		case plan.KindScan:
			if t, ok := o.Cat.Table(cur.Dataset); !ok || t.Delta {
				return stream{}, false
			}
			rev(ops)
			return stream{srcDataset: cur.Dataset, ops: ops, srcCols: cur.OutCols, outNode: n}, true
		case plan.KindProject, plan.KindFilter:
		case plan.KindUDF:
			if d, ok := o.Cat.UDFs.Get(cur.UDFName); !ok || d.Kind != udf.KindMap || d.Explode {
				return stream{}, false
			}
		default:
			return stream{}, false
		}
		ops = append(ops, cur)
	}
}

// probes is the number of probe stages a stream runs.
func (st stream) probes() int {
	n := 0
	for _, op := range st.ops {
		if op.Kind == plan.KindJoin {
			n++
		}
	}
	return n
}
