package session

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"opportune/internal/data"
	"opportune/internal/expr"
	"opportune/internal/fault"
	"opportune/internal/meta"
	"opportune/internal/obs"
	"opportune/internal/plan"
	"opportune/internal/storage"
	"opportune/internal/value"
)

// pipelineQueries are three maintainable views of logs, in catalog order:
// a map-only filter, a group-agg over a join whose delta plan probes the
// users index, and a plain group-agg. Their names sort before the
// intermediate views the runs retain.
func pipelineQueries() []BatchQuery {
	count := plan.AggSpec{Func: plan.AggCount, As: "n"}
	return []BatchQuery{
		{Plan: plan.Filter(plan.Scan("logs"), expr.NewCmp("user", expr.Gt, value.NewInt(1))),
			ResultName: "a_map", Mode: ModeOriginal},
		{Plan: plan.GroupAgg(logsUsers(), []string{"tier"}, count,
			plan.AggSpec{Func: plan.AggSum, Col: "bonus", As: "b"}),
			ResultName: "b_join", Mode: ModeOriginal},
		{Plan: plan.GroupAgg(plan.Scan("logs"), []string{"user"}, count,
			plan.AggSpec{Func: plan.AggMax, Col: "id", As: "hi"}),
			ResultName: "c_agg", Mode: ModeOriginal},
	}
}

func pipelineSession(t *testing.T, workers int) *Session {
	t.Helper()
	s := joinDemo(t, 90)
	s.Eng.Workers = workers
	for _, q := range pipelineQueries() {
		if _, err := s.Run(q.Plan, q.ResultName, q.Mode); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestPipelinedMaintenanceFailureIndependence: a view's merge runs beside
// the next view's delta jobs, yet a failure still costs only the view it
// hits. A read fault on one view's delta sink fails that view's merge; the
// first view's delta job dying leaves the two after it to be maintained.
// After every case no temporary, pin or stale index survives, and every
// answer equals a recompute over the grown base.
func TestPipelinedMaintenanceFailureIndependence(t *testing.T) {
	dead := fault.Fault{Job: "job0-filter", Phase: fault.PhaseMap, Task: 0, Kind: fault.KindPanic, FailAttempts: 99}
	cases := []struct {
		name   string
		faults []fault.Fault
		failed string // the one view maintenance fails for, "" for none
	}{
		{"success", nil, ""},
		{"first view's delta job dies", []fault.Fault{dead}, "a_map"},
		{"join view's sink unreadable", []fault.Fault{{Kind: fault.KindReadError, Dataset: "~maint~b_join", FailReads: 1}}, "b_join"},
		{"last view's sink unreadable", []fault.Fault{{Kind: fault.KindReadError, Dataset: "~maint~c_agg", FailReads: 1}}, "c_agg"},
		{"first view's stored relation unreadable", []fault.Fault{{Kind: fault.KindReadError, Dataset: "a_map", FailReads: 1}}, "a_map"},
	}
	batch := ivmBatch(700, 15)
	ref := joinDemo(t, 90)
	if _, err := ref.AppendRows("logs", batch); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]*data.Relation)
	for _, q := range pipelineQueries() {
		if _, err := ref.Run(q.Plan, q.ResultName, ModeOriginal); err != nil {
			t.Fatal(err)
		}
		rel, err := ref.Store.Read(q.ResultName)
		if err != nil {
			t.Fatal(err)
		}
		want[q.ResultName] = rel
	}
	for _, workers := range []int{1, 4} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("W%d/%s", workers, c.name), func(t *testing.T) {
				s := pipelineSession(t, workers)
				s.InjectFaults(fault.NewInjector(&fault.Plan{Faults: c.faults}))
				rep, err := s.AppendRows("logs", batch)
				s.InjectFaults(nil)
				if err != nil {
					t.Fatal(err)
				}
				checkStoreInvariant(t, s)
				for _, q := range pipelineQueries() {
					name := q.ResultName
					if name == c.failed {
						if !strings.HasPrefix(rep.Reasons[name], "maintenance failed: ") || slices.Contains(rep.Maintained, name) {
							t.Errorf("%s: maintained %v, reasons %v; want its maintenance failed", name, rep.Maintained, rep.Reasons)
						}
						if _, listed := s.Cat.Table(name); listed {
							t.Errorf("%s is still in the catalog after its maintenance failed", name)
						}
					} else if !slices.Contains(rep.Maintained, name) {
						t.Errorf("%s not maintained beside a failure of %q: reasons %v", name, c.failed, rep.Reasons)
					}
				}
				for _, q := range pipelineQueries() {
					m, err := s.Run(q.Plan, q.ResultName, ModeBFR)
					if err != nil {
						t.Fatal(err)
					}
					got, err := s.Store.Read(m.ResultName)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want[q.ResultName]) {
						t.Errorf("%s after the append differs from a recompute\n got %v\nwant %v",
							q.ResultName, got.Rows(), want[q.ResultName].Rows())
					}
				}
				checkStoreInvariant(t, s)
			})
		}
	}
}

// TestAppendSpanTree pins the span an append records: one "append" root
// named for the table, whose children are the base table's "stats", then,
// per view maintenance is tried for, in view order, "maintain" (the delta
// jobs) and — when those succeed — "merge" (merge, refresh and sample).
// Simulated seconds add up to the report's.
func TestAppendSpanTree(t *testing.T) {
	s := pipelineSession(t, 2)
	reg := obs.NewRegistry()
	s.Instrument(reg)
	dead := fault.Fault{Job: "job0-filter", Phase: fault.PhaseMap, Task: 0, Kind: fault.KindPanic, FailAttempts: 99}
	s.InjectFaults(fault.NewInjector(&fault.Plan{Faults: []fault.Fault{dead}}))
	rep, err := s.AppendRows("logs", ivmBatch(700, 15))
	s.InjectFaults(nil)
	if err != nil {
		t.Fatal(err)
	}
	var root *obs.SpanExport
	for _, sp := range reg.Spans() {
		if sp.Phase == "append" {
			if root != nil {
				t.Fatal("more than one append span")
			}
			root = &sp
		}
	}
	if root == nil || root.Job != "logs" {
		t.Fatalf("no append span for logs: %+v", root)
	}
	var phases []string
	var sum float64
	for _, c := range root.Children {
		phases = append(phases, c.Phase)
		sum += c.SimSeconds
	}
	// a_map's delta job dies: no merge. b_join and c_agg are maintained.
	want := []string{"stats", "maintain", "maintain", "merge", "maintain", "merge"}
	if !slices.Equal(phases, want) {
		t.Errorf("append children %v, want %v", phases, want)
	}
	if len(rep.Maintained) != 2 || root.Children[0].SimSeconds <= 0 {
		t.Fatalf("maintained %v, stats span %+v", rep.Maintained, root.Children[0])
	}
	total := rep.MaintainSeconds + rep.StatsSeconds
	if root.SimSeconds != total || sum < total*(1-1e-12) || sum > total*(1+1e-12) {
		t.Errorf("append span sim %g, children %g, report %g", root.SimSeconds, sum, total)
	}
}

// TestAppendRejectsWrongWidth: a row whose width is not the table's is an
// error before anything moves — epoch, published catalog entries, stored
// bytes and views stay as they were — and the next append and query are
// right.
func TestAppendRejectsWrongWidth(t *testing.T) {
	s := pipelineSession(t, 2)
	type state struct {
		epoch    int64
		tables   []*meta.TableInfo
		bytes    int64
		views    []string
		contents []uint64
	}
	snap := func() state {
		st := state{epoch: s.Cat.Epoch()}
		for _, kind := range []storage.Kind{storage.Base, storage.View} {
			for _, name := range s.Store.List(kind) {
				info, _ := s.Cat.Table(name)
				st.tables = append(st.tables, info)
				ds, _ := s.Store.Meta(name)
				st.bytes += ds.SizeBytes
				st.contents = append(st.contents, ds.Relation().Fingerprint())
			}
		}
		for _, v := range s.Cat.Views() {
			st.views = append(st.views, v.Name)
		}
		return st
	}
	before := snap()
	for _, bad := range []data.Row{
		{value.NewInt(1), value.NewInt(2)},
		{value.NewInt(1), value.NewInt(2), value.NewStr("wine"), value.NewInt(4)},
	} {
		rows := append(ivmBatch(700, 5), bad)
		if rep, err := s.AppendRows("logs", rows); err == nil {
			t.Fatalf("a %d-value row appended to a 3-column table: %+v", len(bad), rep)
		}
		after := snap()
		if after.epoch != before.epoch || !slices.Equal(after.tables, before.tables) || after.bytes != before.bytes ||
			!slices.Equal(after.views, before.views) || !slices.Equal(after.contents, before.contents) {
			t.Errorf("a rejected append moved state:\nbefore %+v\nafter  %+v", before, after)
		}
	}
	batch := ivmBatch(700, 15)
	if _, err := s.AppendRows("logs", batch); err != nil {
		t.Fatal(err)
	}
	ref := joinDemo(t, 90)
	if _, err := ref.AppendRows("logs", batch); err != nil {
		t.Fatal(err)
	}
	for _, q := range pipelineQueries() {
		m, err := s.Run(q.Plan, q.ResultName, ModeBFR)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Run(q.Plan, q.ResultName, ModeOriginal); err != nil {
			t.Fatal(err)
		}
		got, _ := s.Store.Read(m.ResultName)
		want, _ := ref.Store.Read(q.ResultName)
		if !got.Equal(want) {
			t.Errorf("%s after a rejected append differs from a recompute", q.ResultName)
		}
	}
	checkStoreInvariant(t, s)
}
