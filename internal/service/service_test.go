package service

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"opportune/internal/data"
	"opportune/internal/hiveql"
	"opportune/internal/obs"
	"opportune/internal/session"
	"opportune/internal/storage"
	"opportune/internal/udf"
	"opportune/internal/value"
	"opportune/internal/workload"
)

// newTestSession builds a small-scale session with the full workload
// installed, instrumented with a fresh registry.
func newTestSession(t *testing.T, workers, reduceTasks int) (*session.Session, *obs.Registry) {
	t.Helper()
	s, err := workload.NewSession(workload.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if workers > 0 {
		s.Eng.Workers = workers
	}
	if reduceTasks > 0 {
		s.Eng.Params.ReduceTasks = reduceTasks
	}
	reg := obs.NewRegistry()
	s.Instrument(reg)
	return s, reg
}

func parityQueries() []workload.Query {
	var qs []workload.Query
	for a := 1; a <= 2; a++ {
		for v := 1; v <= 4; v++ {
			qs = append(qs, workload.QueryFor(a, v))
		}
	}
	return qs
}

func fingerprint(t *testing.T, s *session.Session, name string) uint64 {
	t.Helper()
	ds, ok := s.Store.Meta(name)
	if !ok {
		t.Fatalf("result %q not in store", name)
	}
	return ds.Relation().Fingerprint()
}

// sessionCounters is the session_* slice of a snapshot: the per-query
// attributed totals, which sharing must not move.
func sessionCounters(snap obs.Snapshot) (map[string]int64, map[string]float64) {
	ints, floats := make(map[string]int64), make(map[string]float64)
	for k, v := range snap.Counters {
		if strings.HasPrefix(k, "session_") {
			ints[k] = v
		}
	}
	for k, v := range snap.FloatCounters {
		if strings.HasPrefix(k, "session_") {
			floats[k] = v
		}
	}
	return ints, floats
}

// TestServiceParityWithSequentialRun is the service's end-to-end oracle:
// a single tenant submitting queries in order through the full
// intake→planner→executor pipeline (ModeOriginal) must yield per-query
// Metrics, result relations and session_* counters identical to calling
// Session.Run in a loop, and engine counters that fall short of the loop's
// by exactly the savings the micro-batches published — across
// Workers ∈ {1,4} × ReduceTasks ∈ {1,3}. Single-tenant FIFO intake plus an
// in-order executor composes to sequential execution whatever the cut into
// micro-batches; only the amount shared depends on it.
func TestServiceParityWithSequentialRun(t *testing.T) {
	queries := parityQueries()

	// Sequential reference. Deterministic metrics and counters are
	// invariant across the W×R grid (wall-clock parallelism only), so one
	// reference arm suffices.
	ref, refReg := newTestSession(t, 0, 0)
	var refMs []*session.Metrics
	refFPs := make(map[string]uint64)
	for _, q := range queries {
		m, err := workload.Exec(ref, q, session.ModeOriginal)
		if err != nil {
			t.Fatal(err)
		}
		refMs = append(refMs, m)
		refFPs[q.Name] = fingerprint(t, ref, m.ResultName)
	}
	refSnap := refReg.Snapshot()
	refInts, refFloats := sessionCounters(refSnap)

	grid := []struct{ w, r int }{{1, 1}, {1, 3}, {4, 1}, {4, 3}}
	for _, g := range grid {
		t.Run(fmt.Sprintf("W%dR%d", g.w, g.r), func(t *testing.T) {
			sess, sessReg := newTestSession(t, g.w, g.r)
			svc := New(sess, Config{
				BatchSize: 3, // uneven cuts: 3+3+2 across 8 queries
				MaxWait:   10 * time.Second,
				Obs:       obs.NewRegistry(), // service metrics stay off the session registry
			})
			tickets := make([]*Ticket, len(queries))
			for i, q := range queries {
				tk, err := svc.Submit("analyst", q.SQL)
				if err != nil {
					t.Fatal(err)
				}
				tickets[i] = tk
			}
			svc.Close()
			for i, tk := range tickets {
				resp := tk.Wait()
				if resp.Err != nil {
					t.Fatalf("%s: %v", queries[i].Name, resp.Err)
				}
				// ModeOriginal: Rewrite is nil on both. Each session holds its
				// own result relation: compare their contents.
				got, want := *resp.Metrics, *refMs[i]
				want.Result = nil
				if got != want || resp.Result.Fingerprint() != refMs[i].Result.Fingerprint() {
					t.Errorf("%s metrics differ:\n service %+v\n seq     %+v",
						queries[i].Name, resp.Metrics, refMs[i])
				}
				if got := fingerprint(t, sess, resp.ResultName); got != refFPs[queries[i].Name] {
					t.Errorf("%s: service result differs from sequential", queries[i].Name)
				}
			}
			snap := sessReg.Snapshot()
			ints, floats := sessionCounters(snap)
			if !reflect.DeepEqual(ints, refInts) || !reflect.DeepEqual(floats, refFloats) {
				t.Errorf("session counters differ:\n service %v %v\n seq     %v %v", ints, floats, refInts, refFloats)
			}
			for _, id := range []struct{ total, saved string }{
				{"mr_jobs_total", "batch_jobs_deduped_total"},
				{"mr_input_bytes_total", "batch_scan_bytes_saved_total"},
			} {
				seq, got, saved := refSnap.Counters[id.total], snap.Counters[id.total], snap.Counters[id.saved]
				if seq-got != saved {
					t.Errorf("%s sequential %d - service %d = %d, but %s = %d",
						id.total, seq, got, seq-got, id.saved, saved)
				}
			}
			// The contract held while the micro-batches actually shared work,
			// and sharing paid: the batches' physical simulated seconds sit at
			// least 1.5x below what batch-size-1 (the loop) spent executing.
			bt := svc.BatchTotals()
			if bt.JobsDeduped == 0 || bt.SharedScans == 0 {
				t.Errorf("micro-batches deduped %d jobs and shared %d scans", bt.JobsDeduped, bt.SharedScans)
			}
			var seqExec float64
			for _, m := range refMs {
				seqExec += m.ExecSeconds
			}
			if seqExec < 1.5*bt.SimSeconds {
				t.Errorf("sequential execution %.3f sim-s is only %.2fx the micro-batches' %.3f, want >= 1.5x",
					seqExec, seqExec/bt.SimSeconds, bt.SimSeconds)
			}
		})
	}
}

// TestServiceSizeTrigger: with a far-off timer, 4 submits at BatchSize=2
// cut exactly two "size" batches and nothing else; the batch-size
// histogram records exactly those two samples (no zero-size samples from
// idle ticks, no drain batch after the queue empties).
func TestServiceSizeTrigger(t *testing.T) {
	sess, _ := newTestSession(t, 0, 0)
	svcReg := obs.NewRegistry()
	svc := New(sess, Config{BatchSize: 2, MaxWait: 10 * time.Second, Obs: svcReg})
	q := workload.IngestQueries()[1] // map-only filter, cheap
	var tickets []*Ticket
	for i := 0; i < 4; i++ {
		tk, err := svc.Submit("t1", q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		if resp := tk.Wait(); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	svc.Close()
	snap := svcReg.Snapshot()
	if got := snap.Counters[`service_batches_total{trigger=size}`]; got != 2 {
		t.Errorf("size batches = %d, want 2", got)
	}
	if got := snap.Counters[`service_batches_total{trigger=timer}`]; got != 0 {
		t.Errorf("timer batches = %d, want 0", got)
	}
	if got := snap.Counters[`service_batches_total{trigger=drain}`]; got != 0 {
		t.Errorf("drain batches = %d, want 0", got)
	}
	h := snap.Histograms["service_batch_size"]
	if h.Count != 2 || h.Sum != 4 {
		t.Errorf("batch-size histogram count=%d sum=%g, want 2 samples summing to 4", h.Count, h.Sum)
	}
	if snap.Histograms["service_admission_wait_seconds"].Count != 4 {
		t.Errorf("admission-wait samples = %d, want 4", snap.Histograms["service_admission_wait_seconds"].Count)
	}
}

// TestServiceTenantSimSecondsDeterministic: service_tenant_sim_seconds_total
// counts simulated seconds only — each query's ExecSeconds + StatsSeconds,
// never the wall-clock rewrite search — so two identical runs publish the
// same value bit for bit, plan-cache hits included.
func TestServiceTenantSimSecondsDeterministic(t *testing.T) {
	runOnce := func() (float64, float64) {
		sess, _ := newTestSession(t, 0, 0)
		reg := obs.NewRegistry()
		svc := New(sess, Config{BatchSize: 4, MaxWait: 10 * time.Second, Mode: session.ModeBFR, Obs: reg})
		qs := parityQueries()
		var tickets []*Ticket
		for range 3 { // the replays plan bare scans of the first pass's results
			for _, q := range qs {
				tk, err := svc.Submit("t1", q.SQL)
				if err != nil {
					t.Fatal(err)
				}
				tickets = append(tickets, tk)
			}
		}
		var sum, search float64
		for _, tk := range tickets {
			resp := tk.Wait()
			if resp.Err != nil {
				t.Fatal(resp.Err)
			}
			sum += resp.Metrics.ExecSeconds + resp.Metrics.StatsSeconds
			search += resp.Metrics.RewriteSeconds
		}
		svc.Close()
		if search == 0 {
			t.Error("no query spent wall-clock in the rewrite search: the check is vacuous")
		}
		got := reg.Snapshot().FloatCounters["service_tenant_sim_seconds_total{tenant=t1}"]
		if got != sum {
			t.Errorf("service_tenant_sim_seconds_total = %v, the queries' simulated seconds sum to %v", got, sum)
		}
		hits := sess.Obs.Snapshot().Counters["session_plan_cache_hits_total{mode=bfr}"]
		return got, float64(hits)
	}
	a, hitsA := runOnce()
	b, hitsB := runOnce()
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Errorf("service_tenant_sim_seconds_total differs across identical runs: %v vs %v", a, b)
	}
	if hitsA == 0 || hitsA != hitsB {
		t.Errorf("plan-cache hits %v and %v: want equal and nonzero", hitsA, hitsB)
	}
}

// TestServiceTimerTrigger: a single query below BatchSize must still
// execute once MaxWait elapses — and only then.
func TestServiceTimerTrigger(t *testing.T) {
	sess, _ := newTestSession(t, 0, 0)
	svcReg := obs.NewRegistry()
	svc := New(sess, Config{BatchSize: 100, MaxWait: 20 * time.Millisecond, Obs: svcReg})
	tk, err := svc.Submit("t1", workload.IngestQueries()[1].SQL)
	if err != nil {
		t.Fatal(err)
	}
	resp := tk.Wait()
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if resp.AdmitWait < 20*time.Millisecond {
		t.Errorf("admitted after %v, before the %v latency trigger", resp.AdmitWait, 20*time.Millisecond)
	}
	svc.Close()
	snap := svcReg.Snapshot()
	if got := snap.Counters[`service_batches_total{trigger=timer}`]; got != 1 {
		t.Errorf("timer batches = %d, want 1", got)
	}
	if h := snap.Histograms["service_batch_size"]; h.Count != 1 || h.Sum != 1 {
		t.Errorf("batch-size histogram count=%d sum=%g, want one size-1 sample", h.Count, h.Sum)
	}
}

// TestServiceDrainTrigger: Close with pending work below both triggers
// still executes everything, labeled "drain".
func TestServiceDrainTrigger(t *testing.T) {
	sess, _ := newTestSession(t, 0, 0)
	svcReg := obs.NewRegistry()
	svc := New(sess, Config{BatchSize: 100, MaxWait: 10 * time.Second, Obs: svcReg})
	tk1, err := svc.Submit("t1", workload.IngestQueries()[1].SQL)
	if err != nil {
		t.Fatal(err)
	}
	tk2, err := svc.Submit("t2", workload.IngestQueries()[0].SQL)
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if resp := tk1.Wait(); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if resp := tk2.Wait(); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	snap := svcReg.Snapshot()
	if got := snap.Counters[`service_batches_total{trigger=drain}`]; got != 1 {
		t.Errorf("drain batches = %d, want 1", got)
	}
	if _, err := svc.Submit("t1", "CREATE TABLE x AS SELECT tweet_id FROM twtr"); err != ErrClosed {
		t.Errorf("submit after close: err = %v, want ErrClosed", err)
	}
	if _, err := svc.Append("twtr", nil); err != ErrClosed {
		t.Errorf("append after close: err = %v, want ErrClosed", err)
	}
}

// TestServiceIdleCloseObservesNothing: an idle service whose timer could
// have ticked many times must publish no batch counters and no histogram
// samples — an empty flush tick is not a batch.
func TestServiceIdleCloseObservesNothing(t *testing.T) {
	sess, _ := newTestSession(t, 0, 0)
	svcReg := obs.NewRegistry()
	svc := New(sess, Config{BatchSize: 4, MaxWait: 5 * time.Millisecond, Obs: svcReg})
	time.Sleep(40 * time.Millisecond)
	svc.Close()
	snap := svcReg.Snapshot()
	for name, v := range snap.Counters {
		if v != 0 {
			t.Errorf("idle service published counter %s=%d", name, v)
		}
	}
	if h := snap.Histograms["service_batch_size"]; h.Count != 0 {
		t.Errorf("idle service published %d batch-size samples", h.Count)
	}
}

// TestServiceParseErrorResolvesImmediately: a malformed query resolves
// its own ticket with an error at the planning stage without sinking the
// micro-batch it was cut with.
func TestServiceParseErrorResolvesImmediately(t *testing.T) {
	sess, _ := newTestSession(t, 0, 0)
	svcReg := obs.NewRegistry()
	svc := New(sess, Config{BatchSize: 2, MaxWait: 10 * time.Second, Obs: svcReg})
	bad, err := svc.Submit("t1", "CREATE GIBBERISH")
	if err != nil {
		t.Fatal(err)
	}
	good, err := svc.Submit("t1", workload.IngestQueries()[1].SQL)
	if err != nil {
		t.Fatal(err)
	}
	if resp := bad.Wait(); resp.Err == nil {
		t.Error("malformed query resolved without error")
	}
	if resp := good.Wait(); resp.Err != nil {
		t.Errorf("well-formed batchmate failed: %v", resp.Err)
	}
	svc.Close()
	if got := svcReg.Snapshot().Counters["service_parse_errors_total"]; got != 1 {
		t.Errorf("parse errors = %d, want 1", got)
	}
}

// TestServiceFairCut exercises the weighted round-robin cut directly: a
// flooding tenant must not fill the batch before a trickling tenant's
// lone request rides along, and per-pass shares follow the weights.
func TestServiceFairCut(t *testing.T) {
	mk := func(batchSize int, weights map[string]int) *Service {
		s := &Service{
			cfg:     Config{BatchSize: batchSize, Weights: weights}.withDefaults(),
			tenants: make(map[string]*tenantQ),
		}
		return s
	}
	load := func(s *Service, tenant string, n int) {
		w := s.cfg.Weights[tenant]
		if w <= 0 {
			w = 1
		}
		tq := &tenantQ{weight: w}
		for i := 0; i < n; i++ {
			tq.reqs = append(tq.reqs, &request{tenant: tenant})
		}
		s.tenants[tenant] = tq
		s.order = append(s.order, tenant)
		s.pending += n
	}
	count := func(reqs []*request) map[string]int {
		out := map[string]int{}
		for _, r := range reqs {
			out[r.tenant]++
		}
		return out
	}

	// Hot tenant floods; cold tenant's single query still makes the cut.
	s := mk(4, nil)
	load(s, "cold", 1)
	load(s, "hot", 100)
	cut, trigger := s.cutLocked()
	if trigger != "size" {
		t.Errorf("trigger = %q, want size", trigger)
	}
	got := count(cut)
	if got["cold"] != 1 || got["hot"] != 3 {
		t.Errorf("cut = %v, want cold:1 hot:3", got)
	}

	// Weights shift the per-pass share 2:1.
	s = mk(6, map[string]int{"a": 2, "b": 1})
	load(s, "a", 100)
	load(s, "b", 100)
	cut, _ = s.cutLocked()
	got = count(cut)
	if got["a"] != 4 || got["b"] != 2 {
		t.Errorf("weighted cut = %v, want a:4 b:2", got)
	}

	// Rotation: the tenant that led this cut doesn't lead the next one.
	s = mk(2, nil)
	load(s, "a", 10)
	load(s, "b", 10)
	first, _ := s.cutLocked()
	second, _ := s.cutLocked()
	if first[0].tenant == second[0].tenant {
		t.Errorf("consecutive cuts both led by %q — rotation not advancing", first[0].tenant)
	}
}

// TestServiceStress interleaves concurrent multi-tenant submission
// (including malformed queries) with ingest appends under -race: every
// ticket gets exactly one response, accounting balances, appends
// maintain views, and Close leaves no dangling pins.
func TestServiceStress(t *testing.T) {
	sess, _ := newTestSession(t, 2, 0)
	// Standing views so appends have something to maintain.
	for _, q := range workload.IngestQueries() {
		if _, err := workload.Exec(sess, q, session.ModeOriginal); err != nil {
			t.Fatal(err)
		}
	}
	svcReg := obs.NewRegistry()
	svc := New(sess, Config{BatchSize: 4, MaxWait: 2 * time.Millisecond, QueueCap: 8, Obs: svcReg})

	const tenants, perTenant = 4, 8
	sqls := []string{
		workload.IngestQueries()[1].SQL,
		workload.IngestQueries()[0].SQL,
		"CREATE TABLE stress_geo AS SELECT tweet_id, lat, lon FROM twtr WHERE lat > 37.5",
		"CREATE NONSENSE", // parse error: must resolve, not wedge the pipeline
	}
	var wg sync.WaitGroup
	responses := make(chan Response, tenants*perTenant)
	for g := 0; g < tenants; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			tenant := fmt.Sprintf("tenant%d", g)
			for i := 0; i < perTenant; i++ {
				tk, err := svc.Submit(tenant, sqls[rng.Intn(len(sqls))])
				if err != nil {
					t.Errorf("%s submit %d: %v", tenant, i, err)
					return
				}
				responses <- tk.Wait()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		sc := workload.SmallScale()
		for e := 0; e < 4; e++ {
			rep, err := svc.Append("twtr", workload.AppendBatch(sc, e, 25))
			if err != nil {
				t.Errorf("append %d: %v", e, err)
				return
			}
			if len(rep.Maintained) == 0 {
				t.Errorf("append %d maintained nothing", e)
			}
		}
	}()
	wg.Wait()
	svc.Close()
	close(responses)

	var ok, failed int
	for resp := range responses {
		if resp.Err != nil {
			failed++
		} else {
			ok++
		}
	}
	if ok+failed != tenants*perTenant {
		t.Fatalf("got %d responses for %d tickets", ok+failed, tenants*perTenant)
	}
	st := svc.Stats()
	if st.Submitted != tenants*perTenant {
		t.Errorf("Submitted = %d, want %d", st.Submitted, tenants*perTenant)
	}
	if st.Completed+st.ParseErrors != st.Submitted {
		t.Errorf("Completed %d + ParseErrors %d != Submitted %d", st.Completed, st.ParseErrors, st.Submitted)
	}
	if int64(failed) != st.ParseErrors {
		t.Errorf("%d error responses vs %d parse errors", failed, st.ParseErrors)
	}
}

// TestServiceHotPinning: with a view budget set, the executor keeps the
// hottest views protected from eviction between batches, and Close leaves
// none protected.
func TestServiceHotPinning(t *testing.T) {
	sess, _ := newTestSession(t, 0, 0)
	sess.Store.ViewCapacityBytes = 1 << 30
	svcReg := obs.NewRegistry()
	svc := New(sess, Config{
		BatchSize: 2, MaxWait: 10 * time.Second,
		HotPinFraction: 0.5, HotPinTop: 4, Obs: svcReg,
	})
	var tickets []*Ticket
	for _, q := range parityQueries()[:4] {
		tk, err := svc.Submit("t1", q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		if resp := tk.Wait(); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	snap := svcReg.Snapshot()
	if snap.Gauges["service_hot_pinned_bytes"] <= 0 {
		t.Error("no bytes hot-pinned despite view budget")
	}
	if snap.Counters["service_hot_pin_changes_total"] == 0 {
		t.Error("hot-pin set never changed")
	}
	svc.Close()
	if svcReg.Snapshot().Gauges["service_hot_pinned_bytes"] != 0 {
		t.Error("hot-pinned-bytes gauge not zeroed on Close")
	}
	sess.Store.ViewCapacityBytes = 1
	sess.Store.EnforceBudget()
	if left := sess.Store.List(storage.View); len(left) != 0 {
		t.Errorf("views %v still protected from eviction after Close", left)
	}
}

// TestServicePartitionStress races the partitioning metadata lifecycle:
// partition-matched views (hash-clustered logs, shuffle-free group-bys and
// a co-partitioned join) are hot-pinned by the service while tenants
// resubmit their defining queries, a direct caller drives Run and RunBatch
// on the same session, and an ingest goroutine bumps the epoch with
// appends that maintain some views and invalidate others. Run under -race.
// Afterwards the layout metadata must be consistent everywhere: store and
// catalog agree on every dataset's declared layout, no dropped view left a
// claim behind, and the base logs still carry the clustering the appends
// re-declared.
func TestServicePartitionStress(t *testing.T) {
	sess, sessReg := newTestSession(t, 2, 0)
	sess.Store.ViewCapacityBytes = 1 << 30 // roomy: the hot set, not eviction, is under test
	parts := sess.Opt.Params.DefaultPartitions
	workload.PartitionBases(sess, parts)
	// Materialize the partition-matched views so the service has something
	// to hot-pin from the first batch on.
	for _, q := range workload.PartitionQueries() {
		if _, err := workload.Exec(sess, q, session.ModeOriginal); err != nil {
			t.Fatal(err)
		}
	}
	svcReg := obs.NewRegistry()
	svc := New(sess, Config{
		BatchSize: 3, MaxWait: 2 * time.Millisecond, QueueCap: 8,
		HotPinFraction: 0.5, HotPinTop: 4, Obs: svcReg,
	})

	const tenants, perTenant = 3, 6
	var wg sync.WaitGroup
	for g := 0; g < tenants; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 77))
			tenant := fmt.Sprintf("tenant%d", g)
			qs := workload.PartitionQueries()
			for i := 0; i < perTenant; i++ {
				tk, err := svc.Submit(tenant, qs[rng.Intn(len(qs))].SQL)
				if err != nil {
					t.Errorf("%s submit %d: %v", tenant, i, err)
					return
				}
				if resp := tk.Wait(); resp.Err != nil {
					t.Errorf("%s query %d: %v", tenant, i, resp.Err)
				}
			}
		}(g)
	}
	// Direct Run caller sharing the session with the service. Each
	// iteration parses afresh: annotation mutates the plan tree in place,
	// so goroutines must not share plan nodes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			st, err := hiveql.ParseOne(workload.PartitionQueries()[0].SQL)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := sess.Run(st.Plan, "direct_run", session.ModeOriginal); err != nil {
				t.Errorf("direct run %d: %v", i, err)
				return
			}
		}
	}()
	// Direct RunBatch caller: a shared-scan pair of layout hit + miss.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			var batch []session.BatchQuery
			for j, name := range []string{"batch_hit", "batch_miss"} {
				st, err := hiveql.ParseOne(workload.PartitionQueries()[j*3].SQL)
				if err != nil {
					t.Error(err)
					return
				}
				batch = append(batch, session.BatchQuery{
					Plan: st.Plan, ResultName: name, Mode: session.ModeOriginal,
				})
			}
			if _, err := sess.RunBatch(batch); err != nil {
				t.Errorf("direct batch %d: %v", i, err)
				return
			}
		}
	}()
	// Ingest: every append bumps the epoch, maintains the twtr group-by
	// views in place (layout preserved through Refresh) and invalidates the
	// join views (layout must vanish with them).
	wg.Add(1)
	go func() {
		defer wg.Done()
		sc := workload.SmallScale()
		for e := 0; e < 3; e++ {
			if _, err := svc.Append("twtr", workload.AppendBatch(sc, e, 20)); err != nil {
				t.Errorf("append %d: %v", e, err)
				return
			}
		}
	}()
	wg.Wait()
	svc.Close()

	if got := sessReg.Snapshot().Gauges["session_ingest_epoch"]; got < 3 {
		t.Errorf("ingest epoch %v after 3 appends, want >= 3", got)
	}
	if svcReg.Snapshot().Counters["service_hot_pin_changes_total"] == 0 {
		t.Error("hot-pin set never changed while partition views were hot")
	}

	// Quiescent, the catalog lists only what the store holds: whatever
	// interleaving happened, no entry — layout and all — outlived its bytes.
	for _, v := range sess.Cat.Views() {
		if !sess.Store.Has(v.Name) {
			t.Errorf("catalog view %s (layout %v) is listed but its bytes are gone", v.Name, v.Part.Sigs)
		}
	}
	// The appends re-declared the base clustering on every epoch.
	for _, b := range []string{"twtr", "fsq", "land"} {
		if info, ok := sess.Cat.Table(b); !ok || info.Part.Parts != parts {
			t.Errorf("%s lost its clustering after appends (%+v, want %d parts)", b, info, parts)
		}
	}
}

// TestServiceUDFContract: a query whose UDF breaks its declared single-
// output contract fails its own ticket with udf.ErrContract, under
// ModeOriginal and ModeBFR at Workers 1 and 4, while its batchmate still
// answers — through the per-query fallback the failed batch takes.
func TestServiceUDFContract(t *testing.T) {
	for _, mode := range []session.Mode{session.ModeOriginal, session.ModeBFR} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/W%d", mode, workers), func(t *testing.T) {
				sess, _ := newTestSession(t, workers, 0)
				if err := sess.Cat.UDFs.Register(&udf.Descriptor{
					Name: "UDF_BAD", NArgs: 1, Kind: udf.KindMap, OutNames: []string{"bad"},
					Map: func(args, _ []value.V) [][]value.V {
						if strings.Contains(args[0].Str(), "wine") {
							return [][]value.V{{value.NewInt(1)}, {value.NewInt(2)}}
						}
						return [][]value.V{{value.NewInt(0)}}
					},
					TrueScalar: 2,
				}); err != nil {
					t.Fatal(err)
				}
				svcReg := obs.NewRegistry()
				svc := New(sess, Config{BatchSize: 2, MaxWait: 10 * time.Second, Mode: mode, Obs: svcReg})
				bad, err := svc.Submit("t1", "CREATE TABLE bad_svc AS SELECT tweet_id, bad FROM twtr APPLY UDF_BAD(text)")
				if err != nil {
					t.Fatal(err)
				}
				good, err := svc.Submit("t2", workload.IngestQueries()[1].SQL)
				if err != nil {
					t.Fatal(err)
				}
				if resp := bad.Wait(); !errors.Is(resp.Err, udf.ErrContract) {
					t.Errorf("violating query: error %v, want udf.ErrContract", resp.Err)
				}
				if resp := good.Wait(); resp.Err != nil {
					t.Errorf("batchmate failed: %v", resp.Err)
				}
				svc.Close()
				if got := svcReg.Snapshot().Counters["service_exec_fallbacks_total"]; got != 1 {
					t.Errorf("exec fallbacks = %d, want 1", got)
				}
			})
		}
	}
}

// rowStrings is rel's rows rendered and sorted: its row multiset.
func rowStrings(rel *data.Relation) []string {
	out := make([]string, 0, rel.Len())
	for _, r := range rel.Rows() {
		out = append(out, fmt.Sprint(r))
	}
	sort.Strings(out)
	return out
}

// TestServiceBareSelect: a bare SELECT (no CREATE TABLE) submitted through
// the service is answered, with the rows the query gives without
// rewriting, though a named query before it left views a rewrite can
// answer from. A result the query computed is stored under a name of its
// own, one per request even for the same text in one batch; one a stored
// view answers as it stands (a bare scan) is named by that view. Either
// way the Response names the dataset that holds its Result.
func TestServiceBareSelect(t *testing.T) {
	named := workload.IngestQueries()[0].SQL
	computed := "SELECT user_id, COUNT(*) AS n, MAX(ts) AS last_ts FROM twtr GROUP BY user_id"
	scanned := named[strings.Index(named, "SELECT"):] // the named query's own SELECT
	ref, _ := newTestSession(t, 0, 0)
	want := map[string][]string{}
	for _, q := range []string{computed, scanned} {
		st, err := hiveql.ParseOne(q)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ref.Run(st.Plan, fmt.Sprintf("ref%d", len(want)), session.ModeOriginal)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = rowStrings(m.Result)
	}

	sess, _ := newTestSession(t, 0, 0)
	st, err := hiveql.ParseOne(named)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(st.Plan, st.Table, session.ModeBFR); err != nil {
		t.Fatal(err)
	}
	// One batch: the size trigger fires on the third request.
	cases := []struct{ q, name string }{{computed, ""}, {computed, ""}, {scanned, "ing_activity"}}
	svc := New(sess, Config{BatchSize: len(cases), MaxWait: 10 * time.Second, Mode: session.ModeBFR})
	defer svc.Close()
	var tickets []*Ticket
	for _, tc := range cases {
		tk, err := svc.Submit("t1", tc.q)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	names := map[string]bool{}
	for i, tc := range cases {
		resp := tickets[i].Wait()
		if resp.Err != nil {
			t.Fatalf("%q: %v", tc.q, resp.Err)
		}
		if resp.Result == nil {
			t.Fatalf("%q: no result, no error", tc.q)
		}
		if tc.name == "" && (!strings.HasPrefix(resp.ResultName, "_svc") || names[resp.ResultName]) {
			t.Errorf("%q: result name %q, want a fresh one", tc.q, resp.ResultName)
		}
		if tc.name != "" && resp.ResultName != tc.name {
			t.Errorf("%q: result name %q, want %q", tc.q, resp.ResultName, tc.name)
		}
		names[resp.ResultName] = true
		if rel, err := sess.Store.Read(resp.ResultName); err != nil || rel != resp.Result {
			t.Errorf("%q: %q does not hold the result (%v)", tc.q, resp.ResultName, err)
		}
		if got := rowStrings(resp.Result); !slices.Equal(got, want[tc.q]) {
			t.Errorf("%q: %d rows differ from the unrewritten %d", tc.q, len(got), len(want[tc.q]))
		}
	}
}
