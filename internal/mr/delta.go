package mr

import (
	"bytes"
	"fmt"

	"opportune/internal/data"
)

// This file provides the merge primitives for incremental view maintenance:
// folding the output of a delta job (the view's pipeline run over only the
// appended base rows) into the stored view. Both entry points return a new
// relation — the stored rows readers see are never mutated, since
// concurrently running plans may hold a reference to them via Store.Read.

// MergeAppend merges a map-only view delta: appended base rows can only
// append output rows, in scan order, so the refreshed view is the stored
// rows followed by the delta rows — exactly what a full recompute over the
// grown base produces. It extends the stored relation (data.Relation.Extend)
// rather than copying it.
func MergeAppend(stored, delta *data.Relation) (*data.Relation, error) {
	if !stored.Schema().Equal(delta.Schema()) {
		return nil, fmt.Errorf("mr: merge-append schema mismatch: %v vs %v",
			stored.Schema(), delta.Schema())
	}
	return stored.Extend(delta.Rows()), nil
}

// MergeByKey merges a grouped view delta. Both inputs must share a schema
// whose first nKeys columns are the grouping keys, with rows sorted by the
// encoded key (the order every reduce emits — see mergeRuns). Rows with
// matching keys are folded by merge(old, delta); unmatched rows pass
// through. The output preserves global key order, which is byte-identical
// to the row order a full recompute would emit. Only the rows merge builds
// are measured: the output's size is the two inputs' carried sizes, minus
// each folded pair, plus what the pair folded into.
func MergeByKey(stored, delta *data.Relation, nKeys int, merge func(old, delta data.Row) data.Row) (*data.Relation, error) {
	if !stored.Schema().Equal(delta.Schema()) {
		return nil, fmt.Errorf("mr: merge-by-key schema mismatch: %v vs %v",
			stored.Schema(), delta.Schema())
	}
	if nKeys <= 0 || nKeys > stored.Schema().Len() {
		return nil, fmt.Errorf("mr: merge-by-key nKeys %d out of range for %v",
			nKeys, stored.Schema())
	}
	rows := make([]data.Row, 0, stored.Len()+delta.Len())
	size := stored.EncodedSize() + delta.EncodedSize()
	// Keys are compared as encoded bytes in two reused buffers: no string
	// per stored row.
	key := func(buf []byte, rel *data.Relation, i int) []byte {
		buf = buf[:0]
		if i < rel.Len() {
			for _, v := range rel.Row(i)[:nKeys] {
				buf = v.AppendKey(buf)
			}
		}
		return buf
	}
	na, nb := stored.Len(), delta.Len()
	i, j := 0, 0
	ka, kb := key(nil, stored, 0), key(nil, delta, 0)
	for i < na && j < nb {
		switch c := bytes.Compare(ka, kb); {
		case c < 0:
			rows = append(rows, stored.Row(i))
			i++
			ka = key(ka, stored, i)
		case c > 0:
			rows = append(rows, delta.Row(j))
			j++
			kb = key(kb, delta, j)
		default:
			m := merge(stored.Row(i), delta.Row(j))
			size += int64(m.EncodedSize() - stored.Row(i).EncodedSize() - delta.Row(j).EncodedSize())
			rows = append(rows, m)
			i, j = i+1, j+1
			ka, kb = key(ka, stored, i), key(kb, delta, j)
		}
	}
	rows = append(rows, stored.Rows()[i:]...)
	rows = append(rows, delta.Rows()[j:]...)
	out := data.NewRelation(stored.Schema())
	out.AppendSized(rows, size)
	return out, nil
}
