package session

import (
	"slices"
	"sort"
	"testing"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/plan"
	"opportune/internal/storage"
)

// sortedRows is a relation's rows in a canonical order, so two runs can be
// compared as multisets with data.RowsEqual.
func sortedRows(rel *data.Relation) []data.Row {
	idx := make([]int, rel.Schema().Len())
	for i := range idx {
		idx[i] = i
	}
	rows := slices.Clone(rel.Rows())
	sort.SliceStable(rows, func(a, b int) bool { return data.Key(rows[a], idx) < data.Key(rows[b], idx) })
	return rows
}

// checkProbeVsShuffle is the probe oracle. It runs the delta plan of the
// view plan pl for the append a on s twice — compiled as AppendRows
// compiles it, and with the delta's mark cleared, so every join shuffles —
// and requires the same rows from both as multisets: for the plan, and,
// under a grouped root, for what the root groups. s keeps its contents,
// apart from the indexes the probes built. Returns the number of probe
// stages the marked compile had.
func checkProbeVsShuffle(t *testing.T, s *Session, pl *plan.Node, a ivmAppend) int {
	t.Helper()
	info, ok := s.Cat.Table(a.table)
	if !ok {
		t.Fatalf("no table %s", a.table)
	}
	deltaName, sink := "~delta~"+a.table, "~probe~out"
	delta := data.NewRelation(data.NewSchema(info.Cols...)).Extend(a.rows)
	s.Store.Put(deltaName, storage.Base, delta)
	defer s.Store.Delete(deltaName)
	roots := []*plan.Node{pl}
	if pl.Kind == plan.KindGroupAgg && pl.Inputs[0].Kind != plan.KindScan {
		roots = append(roots, pl.Inputs[0])
	}
	probes := 0
	for _, root := range roots {
		var outs [2][]data.Row
		for i, marked := range []bool{true, false} {
			// Registering the name afresh is what clears the mark.
			s.Cat.RegisterBase(deltaName, info.Cols, info.KeyCol,
				cost.Stats{Rows: int64(delta.Len()), Bytes: delta.EncodedSize()}, info.Distinct)
			if marked {
				s.Cat.MarkDelta(deltaName)
			}
			dp := root.Clone()
			plan.Walk(dp, func(n *plan.Node) {
				if n.Kind == plan.KindScan && n.Dataset == a.table {
					n.Dataset = deltaName
				}
			})
			s.Opt.ClearEstimates()
			w, err := s.Opt.Compile(dp)
			if err != nil {
				t.Fatalf("delta plan does not compile: %v\n%v", err, dp)
			}
			jobs, err := s.Opt.Executable(w, sink)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range jobs {
				if !marked && len(j.Probes) > 0 {
					t.Fatalf("%s probes %v over an unmarked delta", j.Name, j.Probes)
				}
				if marked && root == pl {
					probes += len(j.Probes)
				}
			}
			in, missing := s.resolve(dp)
			if missing != "" {
				t.Fatalf("delta plan input %s not stored", missing)
			}
			if _, err := s.execute([]plannedQuery{{w: w, jobs: jobs, in: in}}, false); err != nil {
				t.Fatalf("delta plan (marked %v): %v", marked, err)
			}
			out, err := s.Store.Read(sink)
			if err != nil {
				t.Fatal(err)
			}
			outs[i] = sortedRows(out)
			for _, jn := range w.Nodes {
				if name := w.StoredName(jn, sink); !isListed(s, name) {
					s.Store.Delete(name)
				}
			}
		}
		if !data.RowsEqual(outs[0], outs[1]) {
			t.Errorf("append to %s: probe and shuffle disagree on\n%v\nprobe   %v\nshuffle %v", a.table, root, outs[0], outs[1])
		}
	}
	return probes
}

func isListed(s *Session, name string) bool {
	_, ok := s.Cat.Table(name)
	return ok
}

// probeOracle runs checkProbeVsShuffle over a join family's appends, each
// on the base the earlier appends grew, and requires every one of them to
// probe.
func probeOracle(t *testing.T, workers, reduceTasks int, fam ivmFamily) {
	s := joinDemo(t, 120)
	s.Eng.Workers = workers
	s.Eng.Params.ReduceTasks = reduceTasks
	for _, a := range fam.appends {
		for _, q := range fam.queries {
			if checkProbeVsShuffle(t, s, q.Plan, a) == 0 {
				t.Errorf("append to %s: the delta plan of %s does not probe", a.table, q.ResultName)
			}
		}
		if _, err := s.AppendRows(a.table, a.rows); err != nil {
			t.Fatal(err)
		}
	}
}
