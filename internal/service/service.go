// Package service runs a session as an always-on multi-tenant query
// service (the deployment the paper assumes: an analytics cluster where
// many analysts' queries arrive continuously and the opportunistic view
// catalog is a shared resource).
//
// The service is a three-stage pipeline with bounded queues between
// stages:
//
//	intake  — Submit appends to a per-tenant FIFO; a full tenant queue
//	          blocks the submitter (backpressure, not load shedding).
//	planner — a single goroutine cuts micro-batches from the intake
//	          queues when either trigger fires: BatchSize pending
//	          ("size") or the oldest request aging past MaxWait
//	          ("timer"). The cut is weighted-fair across tenants so a
//	          flooding tenant cannot starve a trickling one. SQL parses
//	          here; parse errors resolve the ticket immediately and
//	          never reach the executor.
//	executor— a single goroutine turns each micro-batch into one
//	          Session.RunBatch call (shared scans + cross-query dedup),
//	          delivers per-query responses, and refreshes the hot set
//	          of views protected from eviction between batches.
//
// Ingest (Append) runs beside in-flight micro-batches under the session's
// own protocol: the append holds the planning lock, a batch holds the
// versions of its inputs it resolved when it planned, and the store and
// catalog refuse what a batch planned before an append writes.
//
// Service-layer metrics go to Config.Obs, which may be a different
// registry than the session's: the differential tests reconcile the
// session registry against sequential execution counter by counter.
package service

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"opportune/internal/data"
	"opportune/internal/hiveql"
	"opportune/internal/obs"
	"opportune/internal/plan"
	"opportune/internal/session"
)

// ErrClosed is returned by Submit and Append after Close.
var ErrClosed = errors.New("service: closed")

// Config tunes the service. Zero values select the documented defaults.
type Config struct {
	// BatchSize is the size trigger: a micro-batch is cut as soon as this
	// many requests are pending. Default 8.
	BatchSize int
	// MaxWait is the latency trigger: a micro-batch is cut when the oldest
	// pending request has waited this long, full or not. Default 25ms.
	MaxWait time.Duration
	// QueueCap bounds each tenant's intake queue; Submit blocks when the
	// tenant's queue is full. Default 64.
	QueueCap int
	// ExecQueue bounds the planner→executor channel. Default 2.
	ExecQueue int

	// Mode is applied to every query of every batch.
	Mode session.Mode

	// Weights gives per-tenant shares for the fair cut; absent tenants
	// weigh 1. A tenant with weight w contributes up to w requests per
	// round-robin pass over the tenants.
	Weights map[string]int

	// HotPinFraction of the store's view capacity is kept protected from
	// eviction for the hottest views between batches (0 disables; so does a
	// store without a view budget, where nothing is evicted). HotPinTop
	// caps the protected set's size (default 8).
	HotPinFraction float64
	HotPinTop      int

	// Obs receives service-layer metrics (queue depths, admission waits,
	// batch sizes, per-tenant counters). May be nil, and may deliberately
	// differ from the session's registry.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 8
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 25 * time.Millisecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.ExecQueue <= 0 {
		c.ExecQueue = 2
	}
	if c.HotPinTop <= 0 {
		c.HotPinTop = 8
	}
	return c
}

// Response is the outcome of one submitted query.
type Response struct {
	Tenant string
	// ResultName is the dataset that holds Result: the CREATE TABLE name,
	// _svcN for a bare SELECT, or the stored view a bare scan answered from.
	ResultName string
	// Result is the answer, the relation stored under ResultName when the
	// query finished (taken from session.Metrics.Result). It is kept apart
	// from Metrics, whose Result is nil, so a caller that keeps Metrics for
	// their numbers does not keep every answer alive.
	Result  *data.Relation
	Metrics *session.Metrics
	Err     error
	// AdmitWait is intake-to-execution latency; Wall is intake-to-response.
	AdmitWait time.Duration
	Wall      time.Duration
}

// Ticket is the caller's handle on an in-flight request. Exactly one
// Response is delivered per ticket.
type Ticket struct{ ch chan Response }

// Wait blocks until the request resolves.
func (t *Ticket) Wait() Response { return <-t.ch }

// request is one queued query.
type request struct {
	tenant     string
	sql        string
	plan       *plan.Node
	resultName string
	submitted  time.Time
	ticket     *Ticket
}

func (r *request) resolve(resp Response) {
	resp.Tenant = r.tenant
	if resp.ResultName == "" {
		resp.ResultName = r.resultName
	}
	resp.Wall = time.Since(r.submitted)
	r.ticket.ch <- resp
}

// tenantQ is one tenant's FIFO intake queue.
type tenantQ struct {
	reqs   []*request
	weight int
}

// microBatch is the planner→executor unit.
type microBatch struct {
	reqs    []*request
	trigger string // "size", "timer", or "drain"
}

// Stats is a point-in-time summary of service activity.
type Stats struct {
	Submitted   int64
	Completed   int64
	Batches     int64
	ParseErrors int64
	Fallbacks   int64
}

// Service is the always-on multi-tenant front end over one Session.
type Service struct {
	cfg  Config
	sess *session.Session

	mu      sync.Mutex
	cond    *sync.Cond // signals intake-queue space to blocked Submits
	tenants map[string]*tenantQ
	order   []string // sorted tenant names, rebuilt on new tenants
	pending int
	rr      int // rotation index: which tenant the next cut starts at
	closed  bool

	kick   chan struct{} // nudges the planner out of its idle wait
	execCh chan microBatch
	done   chan struct{} // closed when the executor drains

	// hot is the protected set the executor last gave the store, sorted
	// (executor-only, never concurrent).
	hot []string

	// nBare counts the bare SELECTs parsed so far, whose results are
	// stored as _svcN (planner-only).
	nBare int

	// btMu guards btotals, the running sum of every batch's BatchStats.
	btMu    sync.Mutex
	btotals session.BatchStats

	submitted, completed, batches, parseErrs, fallbacks atomic.Int64
}

// New starts the service over an existing session. The session must not
// be driven directly (Run/RunBatch) while the service owns it; Append and
// read-only inspection are fine.
func New(sess *session.Session, cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:     cfg,
		sess:    sess,
		tenants: make(map[string]*tenantQ),
		kick:    make(chan struct{}, 1),
		execCh:  make(chan microBatch, cfg.ExecQueue),
		done:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.plannerLoop()
	go s.executorLoop()
	return s
}

// Submit queues one SQL query for the tenant: CREATE TABLE ... AS SELECT
// ..., or a bare SELECT, whose result is stored as _svcN. It blocks while
// the tenant's intake queue is full and fails only after Close.
func (s *Service) Submit(tenant, sql string) (*Ticket, error) {
	req := &request{tenant: tenant, sql: sql, ticket: &Ticket{ch: make(chan Response, 1)}}
	s.mu.Lock()
	tq := s.tenants[req.tenant]
	if tq == nil {
		w := s.cfg.Weights[req.tenant]
		if w <= 0 {
			w = 1
		}
		tq = &tenantQ{weight: w}
		s.tenants[req.tenant] = tq
		s.order = append(s.order, req.tenant)
		sort.Strings(s.order)
	}
	for !s.closed && len(tq.reqs) >= s.cfg.QueueCap {
		s.cond.Wait()
	}
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	req.submitted = time.Now()
	tq.reqs = append(tq.reqs, req)
	s.pending++
	depth := len(tq.reqs)
	s.mu.Unlock()

	s.submitted.Add(1)
	s.cfg.Obs.Counter("service_queries_total", "tenant", req.tenant).Inc()
	s.cfg.Obs.Gauge("service_queue_depth", "tenant", req.tenant).Set(float64(depth))
	select {
	case s.kick <- struct{}{}:
	default:
	}
	return req.ticket, nil
}

// Append ingests rows into a base table (Session.AppendRows), concurrently
// with in-flight micro-batches.
func (s *Service) Append(table string, rows []data.Row) (*session.AppendReport, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	return s.sess.AppendRows(table, rows)
}

// Close drains: pending requests still execute, then the pipeline shuts
// down. Submits blocked on backpressure fail with ErrClosed.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	select {
	case s.kick <- struct{}{}:
	default:
	}
	<-s.done
}

// Stats reports cumulative service activity.
func (s *Service) Stats() Stats {
	return Stats{
		Submitted:   s.submitted.Load(),
		Completed:   s.completed.Load(),
		Batches:     s.batches.Load(),
		ParseErrors: s.parseErrs.Load(),
		Fallbacks:   s.fallbacks.Load(),
	}
}

// plannerLoop cuts micro-batches. Single goroutine; owns the triggers.
func (s *Service) plannerLoop() {
	for {
		s.mu.Lock()
		for {
			if s.pending >= s.cfg.BatchSize {
				break
			}
			if s.closed {
				break // drain (or exit when pending==0)
			}
			if s.pending > 0 {
				oldest := s.oldestLocked()
				wait := s.cfg.MaxWait - time.Since(oldest)
				if wait <= 0 {
					break
				}
				s.mu.Unlock()
				timer := time.NewTimer(wait)
				select {
				case <-s.kick:
					timer.Stop()
				case <-timer.C:
				}
				s.mu.Lock()
				continue
			}
			// Idle: wait for a submit or Close. A stale timer wake with
			// nothing pending lands here and cuts nothing — no empty
			// batch, no zero-size histogram sample.
			s.mu.Unlock()
			<-s.kick
			s.mu.Lock()
		}
		if s.closed && s.pending == 0 {
			s.mu.Unlock()
			close(s.execCh)
			return
		}
		batch, trigger := s.cutLocked()
		s.cond.Broadcast() // queue space freed
		s.mu.Unlock()
		if len(batch) == 0 {
			continue
		}
		ready := s.parse(batch)
		if len(ready) == 0 {
			continue
		}
		s.execCh <- microBatch{reqs: ready, trigger: trigger}
	}
}

func (s *Service) oldestLocked() time.Time {
	var oldest time.Time
	for _, name := range s.order {
		tq := s.tenants[name]
		if len(tq.reqs) == 0 {
			continue
		}
		if t := tq.reqs[0].submitted; oldest.IsZero() || t.Before(oldest) {
			oldest = t
		}
	}
	return oldest
}

// cutLocked removes up to BatchSize requests using weighted round-robin
// over the tenants: repeated passes starting at the rotation index, each
// tenant yielding up to its weight per pass. The rotation index advances
// one tenant per cut so no tenant permanently goes first.
func (s *Service) cutLocked() ([]*request, string) {
	trigger := "timer"
	if s.pending >= s.cfg.BatchSize {
		trigger = "size"
	} else if s.closed {
		trigger = "drain"
	}
	var out []*request
	n := len(s.order)
	if n == 0 {
		return nil, trigger
	}
	for len(out) < s.cfg.BatchSize && s.pending > 0 {
		took := 0
		for i := 0; i < n && len(out) < s.cfg.BatchSize; i++ {
			name := s.order[(s.rr+i)%n]
			tq := s.tenants[name]
			take := tq.weight
			for take > 0 && len(tq.reqs) > 0 && len(out) < s.cfg.BatchSize {
				out = append(out, tq.reqs[0])
				tq.reqs = tq.reqs[1:]
				s.pending--
				take--
				took++
			}
			s.cfg.Obs.Gauge("service_queue_depth", "tenant", name).Set(float64(len(tq.reqs)))
		}
		if took == 0 {
			break
		}
	}
	s.rr = (s.rr + 1) % n
	return out, trigger
}

// parse resolves SQL for cut requests; parse failures resolve their
// tickets here and never reach the executor.
func (s *Service) parse(reqs []*request) []*request {
	out := reqs[:0]
	for _, req := range reqs {
		st, err := hiveql.ParseOne(req.sql)
		if err != nil {
			s.parseErrs.Add(1)
			s.cfg.Obs.Counter("service_parse_errors_total").Inc()
			req.resolve(Response{Err: fmt.Errorf("service: parse: %w", err)})
			continue
		}
		req.plan = st.Plan
		req.resultName = st.Table
		if req.resultName == "" { // a bare SELECT: store its answer under a name of its own
			s.nBare++
			req.resultName = fmt.Sprintf("_svc%d", s.nBare)
		}
		out = append(out, req)
	}
	return out
}

// executorLoop turns micro-batches into RunBatch calls and delivers
// responses. Single goroutine; owns the hot set.
func (s *Service) executorLoop() {
	for mb := range s.execCh {
		s.runBatch(mb)
		s.refreshHotPins()
	}
	// Drained: nothing stays protected.
	s.sess.Store.Protect(nil)
	s.cfg.Obs.Gauge("service_hot_pinned_bytes").Set(0)
	close(s.done)
}

func (s *Service) runBatch(mb microBatch) {
	start := time.Now()
	waitHist := s.cfg.Obs.Histogram("service_admission_wait_seconds", obs.DefSecondsBuckets)
	queries := make([]session.BatchQuery, len(mb.reqs))
	for i, req := range mb.reqs {
		queries[i] = session.BatchQuery{Plan: req.plan, ResultName: req.resultName, Mode: s.cfg.Mode}
		waitHist.Observe(start.Sub(req.submitted).Seconds())
	}
	s.cfg.Obs.Histogram("service_batch_size", obs.DefFaninBuckets).Observe(float64(len(mb.reqs)))
	s.cfg.Obs.Counter("service_batches_total", "trigger", mb.trigger).Inc()
	s.batches.Add(1)

	res, err := s.sess.RunBatch(queries)
	if err != nil {
		// A batch-level failure (e.g. one query's plan) must not sink its
		// batchmates: fall back to sequential execution per query.
		s.fallbacks.Add(1)
		s.cfg.Obs.Counter("service_exec_fallbacks_total").Inc()
		for i, req := range mb.reqs {
			m, rerr := s.sess.Run(queries[i].Plan, queries[i].ResultName, queries[i].Mode)
			s.deliver(req, m, rerr, start)
		}
		return
	}
	s.btMu.Lock()
	addBatchStats(&s.btotals, res.Stats)
	s.btMu.Unlock()
	for i, req := range mb.reqs {
		s.deliver(req, res.PerQuery[i], nil, start)
	}
}

// BatchTotals sums BatchStats over every executed micro-batch so far.
func (s *Service) BatchTotals() session.BatchStats {
	s.btMu.Lock()
	defer s.btMu.Unlock()
	return s.btotals
}

func addBatchStats(dst *session.BatchStats, src session.BatchStats) {
	dst.Queries += src.Queries
	dst.JobsSubmitted += src.JobsSubmitted
	dst.JobsExecuted += src.JobsExecuted
	dst.JobsDeduped += src.JobsDeduped
	dst.SharedScans += src.SharedScans
	dst.SharedScanConsumers += src.SharedScanConsumers
	dst.ScanBytesSaved += src.ScanBytesSaved
	dst.SimSeconds += src.SimSeconds
	dst.AttributedSimSeconds += src.AttributedSimSeconds
	dst.SavedSimSeconds += src.SavedSimSeconds
	dst.WallSeconds += src.WallSeconds
}

func (s *Service) deliver(req *request, m *session.Metrics, err error, admitted time.Time) {
	s.completed.Add(1)
	s.cfg.Obs.Counter("service_queries_completed_total", "tenant", req.tenant).Inc()
	if m != nil {
		// Simulated seconds only: RewriteSeconds is wall-clock.
		s.cfg.Obs.FloatCounter("service_tenant_sim_seconds_total", "tenant", req.tenant).Add(m.ExecSeconds + m.StatsSeconds)
	}
	resp := Response{Metrics: m, Err: err, AdmitWait: admitted.Sub(req.submitted)}
	if m != nil { // a query answered by a bare scan names the dataset it read
		resp.Result, resp.ResultName, m.Result = m.Result, m.ResultName, nil
	}
	req.resolve(resp)
}

// refreshHotPins re-ranks stored views by retention score (benefit plus
// use count) and protects the top set within HotPinFraction of the view
// budget, capped at HotPinTop, from eviction. One Store.Protect replaces
// the whole set, so a view staying hot is never momentarily evictable.
// Disabled when the store has no view budget.
func (s *Service) refreshHotPins() {
	capacity := s.sess.Store.ViewCapacityBytes
	if capacity <= 0 || s.cfg.HotPinFraction <= 0 {
		return
	}
	budget := int64(s.cfg.HotPinFraction * float64(capacity))
	infos := s.sess.Store.ViewRetention()
	sort.SliceStable(infos, func(i, j int) bool {
		si := infos[i].Benefit + float64(infos[i].UseCount)
		sj := infos[j].Benefit + float64(infos[j].UseCount)
		if si != sj {
			return si > sj
		}
		return infos[i].Name < infos[j].Name
	})
	var hot []string
	var used int64
	for _, info := range infos {
		if len(hot) >= s.cfg.HotPinTop {
			break
		}
		if used+info.SizeBytes > budget {
			continue
		}
		hot = append(hot, info.Name)
		used += info.SizeBytes
	}
	s.sess.Store.Protect(hot)
	slices.Sort(hot)
	if !slices.Equal(hot, s.hot) {
		s.cfg.Obs.Counter("service_hot_pin_changes_total").Inc()
	}
	s.hot = hot
	s.cfg.Obs.Gauge("service_hot_pinned_bytes").Set(float64(used))
}
