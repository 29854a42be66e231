package session

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/expr"
	"opportune/internal/fault"
	"opportune/internal/obs"
	"opportune/internal/plan"
	"opportune/internal/storage"
	"opportune/internal/value"
)

// ivmQueries is the view family the maintenance oracle exercises: a
// distributive aggregate over a UDF column (merge-by-key, SUM), a
// multi-aggregate over base columns (COUNT/MIN/MAX), and a map-only
// filtered scan (merge-append).
func ivmQueries() []BatchQuery {
	pAgg := plan.GroupAgg(
		plan.Apply(plan.Scan("logs"), "W", []string{"text"}),
		[]string{"user"}, plan.AggSpec{Func: plan.AggSum, Col: "w", As: "s"})
	pCnt := plan.GroupAgg(plan.Scan("logs"), []string{"user"},
		plan.AggSpec{Func: plan.AggCount, As: "n"},
		plan.AggSpec{Func: plan.AggMin, Col: "id", As: "lo"},
		plan.AggSpec{Func: plan.AggMax, Col: "id", As: "hi"})
	pFlt := plan.Filter(plan.Scan("logs"), expr.NewCmp("user", expr.Gt, value.NewInt(1)))
	return []BatchQuery{
		{Plan: pAgg, ResultName: "va", Mode: ModeOriginal},
		{Plan: pCnt, ResultName: "vc", Mode: ModeOriginal},
		{Plan: pFlt, ResultName: "vf", Mode: ModeOriginal},
	}
}

func ivmBatch(base, n int) []data.Row {
	texts := []string{"wine wine", "coffee", "wine", "tea time"}
	rows := make([]data.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = data.Row{
			value.NewInt(int64(base + i)),
			value.NewInt(int64((base + i) % 9)), // mixes existing and new users
			value.NewStr(texts[(base+i)%len(texts)]),
		}
	}
	return rows
}

// auditStoredSizes walks every stored dataset value by value and checks the
// size the relation carries (appended, merged and refreshed relations
// included) and the size the store accounts for both equal the walk.
func auditStoredSizes(t *testing.T, st *storage.Store) {
	t.Helper()
	for _, kind := range []storage.Kind{storage.Base, storage.View} {
		for _, name := range st.List(kind) {
			ds, _ := st.Meta(name)
			var walk int64
			for _, r := range ds.Relation().Rows() {
				walk += int64(r.EncodedSize())
			}
			if got := ds.Relation().EncodedSize(); got != walk || ds.SizeBytes != walk {
				t.Errorf("%s: relation carries %d B, store accounts %d B, a walk says %d B", name, got, ds.SizeBytes, walk)
			}
		}
	}
}

// ivmAppend is one AppendRows call of an oracle scenario.
type ivmAppend struct {
	table string
	rows  []data.Row
}

// ivmFamily is one oracle scenario: the views one session pair builds and
// the appends pushed through them. Each join view is a family of its own,
// so the cheaper-than-recompute check speaks for that view alone.
type ivmFamily struct {
	name    string
	queries []BatchQuery
	appends []ivmAppend
}

func ivmFamilies() []ivmFamily {
	logs := []ivmAppend{{"logs", ivmBatch(1000, 37)}, {"logs", ivmBatch(2000, 23)}}
	fams := []ivmFamily{{"single", ivmQueries(), logs}}
	// The join views also take the delta on the join's other table: users
	// sits on the right of three of the joins and on the left of one.
	both := append(logs, ivmAppend{"users", ivmUsers(12, 5)})
	// The renamed-key view takes null keys and keys the other table lacks on
	// both sides, and a logs append after users grew: its probe must read a
	// users index rebuilt over the grown table.
	odd := []ivmAppend{
		{"logs", append(ivmBatch(1000, 37),
			data.Row{value.NewInt(3000), value.NullV, value.NewStr("wine")},
			data.Row{value.NewInt(3001), value.NewInt(50), value.NewStr("tea")})},
		{"users", append(ivmUsers(12, 5),
			data.Row{value.NullV, value.NewStr("tin"), value.NewInt(2)},
			data.Row{value.NewInt(40), value.NewStr("tin"), value.NewInt(3)})},
		{"logs", ivmBatch(2000, 23)},
	}
	for _, q := range ivmJoinQueries() {
		apps := both
		if q.ResultName == "jn" {
			apps = odd
		}
		fams = append(fams, ivmFamily{"join_" + q.ResultName, []BatchQuery{q}, apps})
	}
	return fams
}

// TestMaintenanceDifferentialOracleGrid checks the maintenance oracle:
// across the Workers × ReduceTasks grid, fault-free and under chaos, every
// incrementally maintained view must be byte-identical — rows, carried
// size and annotation — to a full recompute over the grown base, and
// (fault-free) maintaining the views through the last append must cost
// strictly fewer simulated seconds than recomputing them after it. Each
// join family's probe arm checks its delta plans, which probe, against the
// shuffle join (checkProbeVsShuffle).
func TestMaintenanceDifferentialOracleGrid(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		for _, reduceTasks := range []int{1, 3} {
			t.Run(fmt.Sprintf("W%d_R%d", workers, reduceTasks), func(t *testing.T) {
				for _, fam := range ivmFamilies() {
					t.Run(fam.name, func(t *testing.T) {
						maintainVsRecompute(t, workers, reduceTasks, fam, false)
					})
					t.Run(fam.name+"_chaos", func(t *testing.T) {
						maintainVsRecompute(t, workers, reduceTasks, fam, true)
					})
					if fam.name != "single" {
						t.Run(fam.name+"_probe", func(t *testing.T) {
							probeOracle(t, workers, reduceTasks, fam)
						})
					}
				}
			})
		}
	}
}

// maintainVsRecompute runs one oracle cell: an incremental arm that builds
// the views and then appends, against a reference arm that appends first
// and computes the views over the fully grown bases.
func maintainVsRecompute(t *testing.T, workers, reduceTasks int, fam ivmFamily, chaos bool) {
	qs, appends := fam.queries, fam.appends
	arm := func() (*Session, *fault.Injector) {
		s := joinDemo(t, 120)
		s.Eng.Workers = workers
		s.Eng.Params.ReduceTasks = reduceTasks
		var inj *fault.Injector
		if chaos {
			// A seeded plan of task faults (panics, corrupted map outputs,
			// stragglers) addressed by wildcard job name, so it hits view
			// builds, delta jobs and sampling jobs alike; every fault is
			// inside the task retry budget.
			inj = fault.NewInjector(fault.Generate(7, 12, nil))
			s.InjectFaults(inj)
		}
		return s, inj
	}
	s, inj := arm()
	for _, q := range qs {
		if _, err := s.Run(q.Plan, q.ResultName, q.Mode); err != nil {
			t.Fatal(err)
		}
	}
	var incSim float64 // what the last append cost, base re-stat included
	for _, a := range appends {
		rep, err := s.AppendRows(a.table, a.rows)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			if !slices.Contains(rep.Maintained, q.ResultName) {
				t.Fatalf("append to %s: %s not maintained (maintained %v, reasons %v)",
					a.table, q.ResultName, rep.Maintained, rep.Reasons)
			}
		}
		incSim = rep.MaintainSeconds + rep.StatsSeconds
		checkStoreInvariant(t, s)
	}
	ref, _ := arm()
	var refSim float64 // the same append with no views, then recomputing them
	for _, a := range appends {
		rep, err := ref.AppendRows(a.table, a.rows)
		if err != nil {
			t.Fatal(err)
		}
		refSim = rep.StatsSeconds
	}
	for _, q := range qs {
		m, err := ref.Run(q.Plan, q.ResultName, q.Mode)
		if err != nil {
			t.Fatal(err)
		}
		refSim += m.ExecSeconds + m.StatsSeconds + m.RewriteSeconds
	}
	if chaos {
		var fired int64
		for _, n := range inj.FiredCounts() {
			fired += n
		}
		if fired == 0 {
			t.Error("the chaos plan never fired; the arm is vacuous")
		}
	} else if incSim >= refSim {
		t.Errorf("maintaining through an append cost %.4f sim-s, recomputing %.4f: maintenance must be strictly cheaper", incSim, refSim)
	}
	auditStoredSizes(t, s.Store)
	auditStoredSizes(t, ref.Store)
	for _, q := range qs {
		got, err := s.Store.Read(q.ResultName)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Store.Read(q.ResultName)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) || got.EncodedSize() != want.EncodedSize() {
			t.Errorf("%s: maintained contents differ from recompute\n got %v\nwant %v", q.ResultName, got.Rows(), want.Rows())
		}
		gi, ok1 := s.Cat.Table(q.ResultName)
		wi, ok2 := ref.Cat.Table(q.ResultName)
		if !ok1 || !ok2 {
			t.Fatalf("%s missing from a catalog", q.ResultName)
		}
		if gi.Ann.Canon() != wi.Ann.Canon() {
			t.Errorf("%s: maintained annotation differs from recompute", q.ResultName)
		}
	}
}

// TestConcurrentAppendsWithRunsStress interleaves AppendRows with
// concurrent Run and RunBatch calls under -race; nothing serializes batches
// against appends beyond the planning lock. Plans executing against a base
// that grows mid-flight must finish on the versions they resolved at plan
// time, and afterwards the catalog and the view-bytes gauge must reconcile
// with the store. Every goroutine also
// repeats statements under one result name, so plan-cache hits interleave
// with appends and with other queries' retention. Three standing views are
// maintained by every append, so their merges run beside the next view's
// delta jobs and beside the concurrent runs' retention.
func TestConcurrentAppendsWithRunsStress(t *testing.T) {
	s := demo(t, 300)
	s.Eng.Workers = 2
	reg := obs.NewRegistry()
	s.Instrument(reg)
	for _, q := range ivmQueries() {
		if _, err := s.Run(q.Plan, q.ResultName, q.Mode); err != nil {
			t.Fatal(err)
		}
	}

	const runners = 6
	const batchers = 2
	const perG = 3
	const appendBatches = 10
	var wg sync.WaitGroup
	errs := make(chan error, (runners+batchers)*perG+1)

	for g := 0; g < runners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				mode := ModeOriginal
				if (g+i)%2 == 1 {
					mode = ModeBFR
				}
				name := fmt.Sprintf("run-g%d-i%d", g, i)
				if _, err := s.Run(qThresh(float64((g+i)%3)), name, mode); err != nil {
					errs <- fmt.Errorf("run g%d i%d: %w", g, i, err)
					return
				}
				for range 2 {
					if _, err := s.Run(qThresh(float64(g%3)), fmt.Sprintf("rep-g%d", g), ModeBFR); err != nil {
						errs <- fmt.Errorf("repeat g%d i%d: %w", g, i, err)
						return
					}
				}
			}
		}(g)
	}
	for g := 0; g < batchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				var qs []BatchQuery
				for j := 0; j < 4; j++ {
					// The ModeBFR half repeats its result names every round.
					name := fmt.Sprintf("batch-g%d-i%d-%d", g, i, j)
					if j%2 == 1 {
						name = fmt.Sprintf("batch-g%d-rep%d", g, j)
					}
					qs = append(qs, BatchQuery{Plan: qThresh(float64(j % 3)), ResultName: name, Mode: Mode(j % 2)})
				}
				if _, err := s.RunBatch(qs); err != nil {
					errs <- fmt.Errorf("batch g%d i%d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < appendBatches; b++ {
			rep, err := s.AppendRows("logs", ivmBatch(10000+b*100, 11))
			if err != nil {
				errs <- fmt.Errorf("append %d: %w", b, err)
				return
			}
			for _, q := range ivmQueries() {
				if !slices.Contains(rep.Maintained, q.ResultName) {
					errs <- fmt.Errorf("append %d: %s not maintained: %v", b, q.ResultName, rep.Reasons)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiesced invariants: catalog views all present in the store, and the
	// view-bytes gauge agrees with the store's accounting.
	for _, v := range s.Cat.Views() {
		if !s.Store.Has(v.Name) {
			t.Errorf("catalog lists view %s missing from store", v.Name)
		}
	}
	if got, want := reg.Gauge("storage_view_bytes").Value(), float64(s.Store.ViewBytes()); got != want {
		t.Errorf("view-bytes gauge %g disagrees with store %g", got, want)
	}
	if _, ok := s.Cat.Table("~delta~logs"); ok || s.Store.Has("~delta~logs") {
		t.Error("temporary delta table leaked")
	}
	hits := func() int64 { return reg.Counter("session_plan_cache_hits_total", "mode", "bfr").Value() }
	t.Logf("%d plan-cache hits under concurrency", hits())

	// The final state must answer queries identically to a clean system
	// holding the same grown base.
	final, err := s.Store.Read("logs")
	if err != nil {
		t.Fatal(err)
	}
	ref := demo(t, 300)
	var extra []data.Row
	for _, r := range final.Rows()[300:] {
		extra = append(extra, r)
	}
	if _, err := ref.AppendRows("logs", extra); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(qThresh(0), "final", ModeOriginal); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(qThresh(0), "final", ModeOriginal); err != nil {
		t.Fatal(err)
	}
	a, err := multisetFP(s, "final")
	if err != nil {
		t.Fatal(err)
	}
	b, err := multisetFP(ref, "final")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("post-stress query result diverged from clean recompute")
	}
	// The standing views, maintained through every append, hold what a
	// recompute over the grown base holds.
	for _, q := range ivmQueries() {
		if _, err := ref.Run(q.Plan, q.ResultName, q.Mode); err != nil {
			t.Fatal(err)
		}
		got, err := s.Store.Read(q.ResultName)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := ref.Store.Read(q.ResultName); !got.Equal(want) {
			t.Errorf("%s: maintained contents differ from recompute", q.ResultName)
		}
	}
	// Quiesced, a statement repeated three times is served from the plan
	// cache the third time, and answers what a clean system answers.
	before := hits()
	for range 3 {
		m, err := s.Run(qThresh(0), "final-rep", ModeBFR)
		if err != nil {
			t.Fatal(err)
		}
		if a, err = multisetFP(s, m.ResultName); err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Error("repeated query result diverged from clean recompute")
		}
	}
	if hits() == before {
		t.Error("a statement repeated on a quiet catalog was never served from the plan cache")
	}
}

// fracRow builds one "ticks" row whose amt column is adversarial for naive
// float summation: each group's scan-order sequence interleaves ±1e16
// pairs with fractional values no float represents exactly, so a naive
// left fold swings through magnitudes where the fractions fall below the
// ULP and are destroyed, while the true sum (the huge terms cancel exactly
// within every aligned block of 12 rows) stays small enough that the loss
// is visible. Seed and append sizes must be multiples of 12 to keep the
// per-group, per-batch cancellation exact.
func fracRow(i int) data.Row {
	var amt float64
	switch (i / 3) % 4 {
	case 0:
		amt = 1e16
	case 2:
		amt = -1e16
	case 1:
		amt = 0.1 + float64(i%97)*0.3
	default:
		amt = -0.7 - float64(i%89)*1.9
	}
	return data.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 3)), value.NewFloat(amt)}
}

// fracSession builds a session over a fractional-valued "ticks" base and a
// small "owners" table to join it with.
func fracSession(t *testing.T, rows int) *Session {
	t.Helper()
	s := New(cost.DefaultParams())
	rel := data.NewRelation(data.NewSchema("id", "user", "amt"))
	for i := 0; i < rows; i++ {
		rel.Append(fracRow(i))
	}
	s.Store.Put("ticks", storage.Base, rel)
	s.Cat.RegisterBase("ticks", []string{"id", "user", "amt"}, "id",
		cost.Stats{Rows: int64(rows), Bytes: rel.EncodedSize()}, map[string]int64{"user": 3})
	// owners folds the three users into two desks (user 0 sits on both).
	owners := data.NewRelation(data.NewSchema("owner", "desk"))
	for _, r := range [][2]int64{{0, 0}, {0, 1}, {1, 0}, {2, 1}} {
		owners.Append(data.Row{value.NewInt(r[0]), value.NewInt(r[1])})
	}
	s.Store.Put("owners", storage.Base, owners)
	s.Cat.RegisterBase("owners", []string{"owner", "desk"}, "",
		cost.Stats{Rows: int64(owners.Len()), Bytes: owners.EncodedSize()}, nil)
	return s
}

// ordKey maps a float64 onto a monotonically ordered integer line where
// adjacent representable floats are 1 apart (the -0.0 and +0.0 keys
// coincide), so key distance counts ULP steps.
func ordKey(f float64) int64 {
	b := int64(math.Float64bits(f))
	if b < 0 {
		b = math.MinInt64 - b
	}
	return b
}

func ulpDist(a, b float64) int64 {
	d := ordKey(a) - ordKey(b)
	if d < 0 {
		d = -d
	}
	return d
}

// TestMaintenanceFractionalSumULP extends the differential oracle to
// fractional SUMs. Byte-identity cannot hold across an append chain — the
// incremental path rounds once per merge — but with compensated (Kahan)
// summation in both the aggregate folds and MergeByKey the maintained
// value must stay within a few ULPs of a full recompute even on
// mixed-magnitude, cancelling inputs. The naive left fold this replaces
// drifts by orders of magnitude more on this data.
func TestMaintenanceFractionalSumULP(t *testing.T) {
	aggs := []plan.AggSpec{{Func: plan.AggSum, Col: "amt", As: "s"}, {Func: plan.AggCount, As: "n"}}
	t.Run("scan", func(t *testing.T) {
		fractionalSumULP(t, plan.GroupAgg(plan.Scan("ticks"), []string{"user"}, aggs...))
	})
	// Over a join the reduce sees each group's terms in join-key order, not
	// scan order, and the delta's terms in another order again: the bound
	// must not depend on either.
	t.Run("join", func(t *testing.T) {
		fractionalSumULP(t, plan.GroupAgg(
			plan.JoinNodes(plan.Scan("ticks"), plan.Scan("owners"), "user", "owner"),
			[]string{"desk"}, aggs...))
	})
}

func fractionalSumULP(t *testing.T, q *plan.Node) {
	const seedRows, batchRows, batches, ulpBound = 60, 36, 6, 4

	inc := fracSession(t, seedRows)
	if _, err := inc.Run(q, "vsum", ModeOriginal); err != nil {
		t.Fatal(err)
	}
	ref := fracSession(t, seedRows)
	next := seedRows
	for b := 0; b < batches; b++ {
		rows := make([]data.Row, batchRows)
		for i := range rows {
			rows[i] = fracRow(next + i)
		}
		next += batchRows
		rep, err := inc.AppendRows("ticks", rows)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Maintained) != 1 {
			t.Fatalf("batch %d: maintained %v (reasons %v), want vsum maintained", b, rep.Maintained, rep.Reasons)
		}
		if _, err := ref.AppendRows("ticks", rows); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ref.Run(q, "vsum", ModeOriginal); err != nil {
		t.Fatal(err)
	}

	got, err := inc.Store.Read("vsum")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Store.Read("vsum")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("maintained view has %d groups, recompute %d", got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		g, w := got.Row(i), want.Row(i)
		if value.Compare(g[0], w[0]) != 0 || value.Compare(g[2], w[2]) != 0 {
			t.Fatalf("row %d: key/count mismatch: got %v want %v", i, g, w)
		}
		if d := ulpDist(g[1].Float(), w[1].Float()); d > ulpBound {
			t.Errorf("group %v: maintained SUM %v vs recompute %v drifted %d ULPs (bound %d)",
				g[0], g[1].Float(), w[1].Float(), d, ulpBound)
		}
	}
}
