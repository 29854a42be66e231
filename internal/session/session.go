// Package session coordinates the full system of Fig 1: queries are
// compiled by the optimizer, optionally rewritten against the opportunistic
// views, executed on the MR engine, and every job's output is retained as a
// new opportunistic view with statistics collected by a sampling job.
package session

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/expr"
	"opportune/internal/fault"
	"opportune/internal/meta"
	"opportune/internal/mr"
	"opportune/internal/obs"
	"opportune/internal/optimizer"
	"opportune/internal/plan"
	"opportune/internal/rewrite"
	"opportune/internal/storage"
)

// Mode selects how a query is optimized.
type Mode uint8

const (
	// ModeOriginal executes the query as written (ORIG).
	ModeOriginal Mode = iota
	// ModeBFR rewrites with BFREWRITE (REWR).
	ModeBFR
	// ModeDP rewrites with the exhaustive DP baseline.
	ModeDP
	// ModeSyntactic rewrites with BFR-SYNTACTIC (caching-style reuse).
	ModeSyntactic
)

var modeNames = [...]string{ModeOriginal: "orig", ModeBFR: "bfr", ModeDP: "dp", ModeSyntactic: "syntactic"}

// String names the mode.
func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return "unknown"
}

// Session is one system instance. Run, RunBatch and AppendRows may be
// called from concurrent goroutines: planning (optimizer + rewriter, whose
// estimate caches are shared mutable state) and appends are serialized
// under planMu, while execution — the expensive phase — proceeds
// concurrently against the lock-protected store and catalog.
type Session struct {
	Store *storage.Store
	Cat   *meta.Catalog
	Eng   *mr.Engine
	Opt   *optimizer.Optimizer
	Rew   *rewrite.Rewriter
	Eval  *expr.Evaluator

	// planMu serializes compile/rewrite/executable-build; the optimizer's
	// per-query estimate cache and the rewriter's counters are not
	// thread-safe, and queries must be estimated one at a time anyway so
	// each sees a consistent statistics snapshot. It also guards plans.
	planMu sync.Mutex

	// plans holds the plans of queries that execute nothing: bare scans,
	// each valid while its dataset stands (DESIGN §5.16).
	plans map[planKey]plannedQuery

	// CheckPlanHit, when set, is called under planMu on every plan-cache
	// hit with the Metrics the hit serves and those of planning the query
	// afresh (nil, with the error, when that fails); tests compare them.
	CheckPlanHit func(served, fresh *Metrics, err error)

	statsSeed atomic.Int64

	// beforeRegister, when set, is called just before retention registers
	// each materialization as a view; tests run an append there.
	beforeRegister func(name string)

	// Obs receives session-level metrics and per-query spans when set via
	// Instrument; nil costs one pointer check per query.
	Obs *obs.Registry
}

// Instrument attaches a metrics registry to the session and to every layer
// under it (store, engine, optimizer). Pass nil to detach.
func (s *Session) Instrument(reg *obs.Registry) {
	s.Obs = reg
	s.Store.SetObs(reg)
	s.Eng.Obs = reg
	s.Opt.Obs = reg
}

// InjectFaults attaches a fault injector to every layer that can fail (the
// engine's task scheduler and the store's reads). Pass nil to detach —
// detaching clears the store hook entirely rather than leaving a typed-nil
// injector behind the interface.
func (s *Session) InjectFaults(inj *fault.Injector) {
	s.Eng.Faults = inj
	if inj == nil {
		s.Store.SetFaults(nil)
		return
	}
	s.Store.SetFaults(inj)
}

// New builds a system instance with the given cost parameters.
func New(params cost.Params) *Session {
	st := storage.NewStore()
	cat := meta.NewCatalog()
	eval := expr.NewEvaluator()
	opt := optimizer.New(cat, params, eval)
	st.OnRemove = cat.Forget
	return &Session{
		Store: st,
		Cat:   cat,
		Eng:   mr.New(st, params),
		Opt:   opt,
		Rew:   rewrite.NewRewriter(cat, opt),
		Eval:  eval,
		plans: make(map[planKey]plannedQuery),
	}
}

// Metrics reports one query execution. Seconds are the deterministic
// simulated execution seconds; RewriteSeconds is the (real) runtime of the
// rewrite algorithm, which the paper's REWR timings include (§8.2).
type Metrics struct {
	Mode           Mode
	ExecSeconds    float64
	StatsSeconds   float64 // sampling jobs for new views (charged to REWR and ORIG alike)
	RewriteSeconds float64
	Jobs           int
	DataMovedBytes int64
	ResultName     string
	// Result is the relation under ResultName the query read or wrote,
	// from its handle: a budget may evict it right after. No read counted.
	Result *data.Relation

	Rewrite *rewrite.Result // nil for ModeOriginal
}

// Run compiles, (optionally) rewrites, and executes a query plan,
// materializing the result under resultName and retaining all job outputs
// as opportunistic views. Run is safe for concurrent use; see Session.
//
// Planning takes a handle on each of the chosen plan's inputs before it
// releases planMu, and the run reads those versions whatever a concurrent
// AppendRows, delete or eviction does to the names. Once an append has
// begun since the run was planned, the store refuses its writes and the
// catalog its registrations (DESIGN §5.9).
func (s *Session) Run(q *plan.Node, resultName string, mode Mode) (*Metrics, error) {
	out, err := s.run([]BatchQuery{{Plan: q, ResultName: resultName, Mode: mode}}, false)
	if err != nil {
		return nil, err
	}
	return out.PerQuery[0], nil
}

// run is the one executor entry behind Run and RunBatch, the paper's Fig 1
// loop for N queries: plan them under one planMu hold, run their jobs as
// one unit DAG (execute), then finalize each query in input order — its
// job records, retention and statistics, spans and metrics — and enforce
// the view budget, on success and on failure alike. share applies
// RunBatch's cross-query transform (dedupe and shared scans); Run shares
// nothing.
func (s *Session) run(queries []BatchQuery, share bool) (*BatchResult, error) {
	start := time.Now()
	spans := make([]*obs.Span, len(queries))
	esps := make([]*obs.Span, len(queries)) // execute children, queries with jobs only
	for qi, q := range queries {
		spans[qi] = s.Obs.StartSpan(q.ResultName, "query")
	}
	plans, err := s.plan(queries, spans)
	var x *execution
	if err == nil {
		for qi, p := range plans {
			if p.jobs != nil {
				esps[qi] = spans[qi].Child("execute")
			}
		}
		if x, err = s.execute(plans, share); err == nil {
			err = s.retain(queries, plans, x, spans, esps)
		}
		// On failure too: a write always admits its view, so an output
		// that alone exceeds the budget is evicted here.
		s.Store.EnforceBudget()
	}
	if err != nil {
		for qi, q := range queries {
			s.Obs.Counter("session_query_failures_total", "mode", q.Mode.String()).Inc()
			esps[qi].End()
			spans[qi].End()
		}
		return nil, err
	}
	out := &BatchResult{PerQuery: make([]*Metrics, len(queries))}
	for qi, p := range plans {
		// Credit the views a successful rewrite read with the cost it saved —
		// the signal the cost-benefit reclamation policy ranks on (§10).
		m := p.m
		s.creditRewrite(m, p.in)
		spans[qi].AddSim(m.ExecSeconds + m.StatsSeconds)
		spans[qi].End()
		s.record(m, p.hits)
		out.PerQuery[qi] = m
	}
	if share {
		s.batchStats(&out.Stats, len(queries), x)
		out.Stats.WallSeconds = time.Since(start).Seconds()
	}
	return out, nil
}

// retain finalizes each query in input order: it fills the query's
// Metrics from its attributed job results and its answer's handle, retains
// its job outputs as views with sampled statistics (§2.1), and closes its
// execute span.
func (s *Session) retain(queries []BatchQuery, plans []plannedQuery, x *execution, spans, esps []*obs.Span) error {
	for qi, p := range plans {
		m := p.m
		if p.jobs == nil {
			m.Result = p.in[0].Relation() // a bare scan: the answer is its input
			continue
		}
		cs := x.perQuery[qi]
		m.Result = cs[len(cs)-1].out.Relation()
		m.ExecSeconds, m.DataMovedBytes = x.attributed(qi)
		m.Jobs = len(p.jobs)
		sec, err := s.retainViews(p.w, queries[qi].ResultName, p.epoch, cs)
		if err != nil {
			return err
		}
		m.StatsSeconds = sec
		esps[qi].AddSim(m.ExecSeconds)
		esps[qi].End()
		// Statistics collection runs inside the execute span; its wall share
		// is not isolated, so the stats span is sim-only.
		if sec > 0 {
			ssp := spans[qi].Child("stats")
			ssp.AddSim(sec)
			ssp.End()
		}
	}
	return nil
}

// record publishes per-query metrics. Counter values are deterministic
// (simulated seconds, search counters, query counts); the rewrite search's
// real runtime goes into a histogram only.
func (s *Session) record(m *Metrics, hits int64) {
	reg := s.Obs
	if reg == nil {
		return
	}
	mode := m.Mode.String()
	reg.Counter("session_queries_total", "mode", mode).Inc()
	reg.Counter("session_plan_cache_hits_total", "mode", mode).Add(hits)
	reg.FloatCounter("session_exec_sim_seconds_total", "mode", mode).Add(m.ExecSeconds)
	reg.FloatCounter("session_stats_sim_seconds_total", "mode", mode).Add(m.StatsSeconds)
	if m.Rewrite != nil {
		c := m.Rewrite.Counters
		reg.Counter("rewrite_candidates_considered_total", "mode", mode).Add(int64(c.CandidatesConsidered))
		reg.Counter("rewrite_attempts_total", "mode", mode).Add(int64(c.RewriteAttempts))
		reg.Counter("rewrites_found_total", "mode", mode).Add(int64(c.RewritesFound))
		if m.Rewrite.Improved {
			reg.Counter("rewrites_improved_total", "mode", mode).Inc()
		}
		reg.Histogram("session_rewrite_wall_seconds", nil, "mode", mode).Observe(m.RewriteSeconds)
	}
}

// plannedQuery carries one query's compilation: the chosen plan, its job
// DAG and executable jobs (nil when the chosen plan is a bare scan of an
// existing materialization and nothing needs to execute), the handles of
// the datasets it scans, the ingest epoch the plan was derived under, and
// whether it came from the plan cache (1) or not (0).
type plannedQuery struct {
	m      *Metrics
	chosen *plan.Node
	w      *optimizer.Work
	jobs   []*mr.Job
	in     []*storage.Dataset // in scan order (resolve)
	epoch  int64
	hits   int64
	canon  string // a plan-cache entry's: its scanned dataset's Canon()
}

// planKey identifies a query's plan: the statement, its result name and
// mode, and every planner setting the search reads.
type planKey struct {
	fp, result          string
	mode                Mode
	params              cost.Params
	maxViews, maxRepeat int
	noOptCost, noGuess  bool
}

// plan compiles the queries in input order under one planMu hold and
// takes a handle on every dataset each chosen plan scans (resolve) before
// it releases planMu: execution reads those versions, whatever happens to
// the names meanwhile. A scanned dataset can be missing because it was
// removed after planning read the catalog, or because retention
// registered a view whose bytes a delete had just removed (DESIGN §5.9):
// such a view is dropped and the query replanned in place. Only a missing
// base table is an error.
func (s *Session) plan(queries []BatchQuery, spans []*obs.Span) ([]plannedQuery, error) {
	s.planMu.Lock()
	defer s.planMu.Unlock()
	plans := make([]plannedQuery, len(queries))
	for qi, q := range queries {
		psp := spans[qi].Child("plan")
		p, err := s.planCached(q)
		for ; err == nil; p, err = s.planCached(q) {
			var missing string
			if p.in, missing = s.resolve(p.chosen); missing == "" {
				break
			}
			if t, listed := s.Cat.Table(missing); listed && !t.IsView {
				err = fmt.Errorf("session: planned input %q: %w", missing, storage.ErrNotFound)
				break
			}
			s.Cat.DropView(missing)
		}
		psp.End()
		if err != nil {
			if len(queries) > 1 {
				err = fmt.Errorf("session: batch query %d (%s): %w", qi, q.ResultName, err)
			}
			return nil, err
		}
		plans[qi] = p
	}
	return plans, nil
}

// resolve takes the handle of every dataset a plan scans, in scan order;
// missing names the first one the store does not hold.
func (s *Session) resolve(chosen *plan.Node) (in []*storage.Dataset, missing string) {
	plan.Walk(chosen, func(n *plan.Node) {
		if n.Kind == plan.KindScan && missing == "" {
			if d, ok := s.Store.Meta(n.Dataset); ok {
				in = append(in, d)
			} else {
				missing = n.Dataset
			}
		}
	})
	return in, missing
}

// planCached is one planning pass through the plan cache; the caller holds
// planMu. A query that executes nothing is a bare scan at cost 0, which no
// catalog change can beat: its plan is stored and served while it stands.
// A hit serves a copy of its Metrics with RewriteSeconds 0, as no search
// ran.
func (s *Session) planCached(q BatchQuery) (plannedQuery, error) {
	r := s.Rew
	k := planKey{q.Plan.Fingerprint(), q.ResultName, q.Mode, s.Opt.Params,
		r.MaxViews, r.MaxOpRepeat, r.DisableOptCost, r.DisableGuessComplete}
	if p, ok := s.plans[k]; ok && s.stands(p) {
		m := *p.m
		m.RewriteSeconds = 0
		p.m, p.hits = &m, 1
		if s.CheckPlanHit != nil {
			fresh, err := s.planLocked(q)
			s.CheckPlanHit(p.m, fresh.m, err)
		}
		return p, nil
	}
	delete(s.plans, k)
	p, err := s.planLocked(q)
	if t, listed := s.Cat.Table(p.chosen.Dataset); err == nil && p.jobs == nil && listed {
		m := *p.m
		s.plans[k] = plannedQuery{m: &m, chosen: p.chosen, canon: t.Canon()}
	}
	return p, err
}

// stands reports whether a cached plan's scanned dataset is still listed
// under the annotation it had when the plan was stored.
func (s *Session) stands(p plannedQuery) bool {
	t, listed := s.Cat.Table(p.chosen.Dataset)
	return listed && t.Canon() == p.canon
}

// prunePlans deletes the plan-cache entries that no longer stand; the
// caller holds planMu.
func (s *Session) prunePlans() {
	maps.DeleteFunc(s.plans, func(_ planKey, p plannedQuery) bool { return !s.stands(p) })
}

// planLocked is one planning pass; the caller holds planMu. Its jobs
// publish their outputs only while no append has begun (mr.Job.Admit).
func (s *Session) planLocked(q BatchQuery) (plannedQuery, error) {
	p := plannedQuery{chosen: q.Plan, epoch: s.Cat.Epoch()}
	// Estimates are cached per query so every plan for the same logical
	// output costs identically; statistics change between queries.
	s.Opt.ClearEstimates()
	var err error
	if p.w, err = s.Opt.Compile(q.Plan); err != nil {
		return p, err
	}
	p.m = &Metrics{Mode: q.Mode, ResultName: q.ResultName}

	switch q.Mode {
	case ModeOriginal:
	case ModeBFR, ModeDP, ModeSyntactic:
		views := s.Cat.Views()
		var res *rewrite.Result
		switch q.Mode {
		case ModeBFR:
			res = s.Rew.BFRewrite(p.w, views)
		case ModeDP:
			res = s.Rew.DPRewrite(p.w, views)
		default:
			res = s.Rew.SyntacticRewrite(p.w, views)
		}
		p.m.Rewrite = res
		p.m.RewriteSeconds = res.Runtime.Seconds()
		if res.Improved {
			p.chosen = res.Plan
		}
	}

	if p.chosen.Kind == plan.KindScan {
		p.m.ResultName = p.chosen.Dataset
		return p, nil
	}
	if p.chosen != q.Plan {
		if p.w, err = s.Opt.Compile(p.chosen); err != nil {
			return p, fmt.Errorf("session: rewritten plan failed to compile: %w", err)
		}
	}
	p.jobs, err = s.Opt.Executable(p.w, q.ResultName)
	for _, j := range p.jobs {
		j.Admit = func() bool { return s.Cat.Epoch() == p.epoch }
	}
	return p, err
}

// retainViews registers every new materialization of an executed plan as an
// opportunistic view and samples its statistics, in node order; cs are the
// plan's jobs as they ran, parallel to w.Nodes. Returns the simulated
// seconds the sampling jobs cost.
//
// epoch is the ingest epoch the plan was derived under. The catalog
// refuses a registration once an append has begun since: the
// materialization may describe pre-append base contents, and registering
// it would resurrect exactly the staleness the append cleans up. A refused
// intermediate is discarded, if the store still holds the version this run
// wrote; the caller's result stays readable but unregistered.
func (s *Session) retainViews(w *optimizer.Work, resultName string, epoch int64, cs []*batchConsumer) (float64, error) {
	var total float64
	stale := false
	for i, jn := range w.Nodes {
		// The sink was materialized under the caller's result name; that is
		// the dataset future queries can reuse.
		name := w.StoredName(jn, resultName)
		if !s.Store.Has(name) {
			continue // evicted by the reclamation policy
		}
		if s.beforeRegister != nil {
			s.beforeRegister(name)
		}
		info, added := s.Cat.RegisterView(meta.TableInfo{
			Name: name, Cols: jn.OutCols, Ann: jn.Ann, PlanFP: jn.PlanFP,
			Part: s.Opt.OutputPart(jn), Plan: jn.Logical.Clone(),
		}, epoch)
		if info == nil {
			stale = true
			if jn != w.Sink() {
				s.Store.Discard(cs[i].out)
			}
			continue
		}
		if !added {
			continue // stats already collected for this materialization
		}
		sec, err := s.Cat.CollectStats(s.Eng, name, s.statsSeed.Add(1)+int64(i))
		if errors.Is(err, storage.ErrNotFound) {
			// Removed after the check above (a concurrent delete or
			// eviction), before or after the registration: the query
			// succeeded, the view is just not retained.
			s.Cat.DropView(name)
			continue
		}
		if err != nil {
			return total, err
		}
		total += sec
	}
	if stale {
		s.Obs.Counter("session_stale_retention_discarded_total").Inc()
	}
	return total, nil
}

// DropViews clears all opportunistic views from store and catalog
// (experiments do this between phases).
func (s *Session) DropViews() {
	s.Store.DropViews()
	s.planMu.Lock()
	clear(s.plans)
	s.planMu.Unlock()
}
