package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"opportune"
	"opportune/internal/data"
	"opportune/internal/hiveql"
	"opportune/internal/service"
	"opportune/internal/session"
	"opportune/internal/storage"
	"opportune/internal/workload"
)

// The four workloads. Every one is a closed loop: an analyst waits for a
// result before revising a query. See README.md for why each was chosen.
var workloadNames = []string{"evolve", "scan", "tenants", "ingest"}

const (
	tenantCount   = 8  // tenants, and the service's batch size
	wavesPerPass  = 24 // tenants: waves of tenantCount queries per pass
	wavesInFlight = 2
	zipfS         = 1.3
	ingestEpochs  = 10
	appendRows    = 200
	setupBuilds   = 9
	minSamples    = 10 * minTail // behind every p90
	minTracedPass = 2
)

// knownWrong are the workload queries that return a wrong result at the
// commit that defined this benchmark once views accumulate across analysts:
// a COUNT(*) re-aggregated over a finer-grouped view counts groups, not
// rows. The timed scripts leave them out (no operation of a benchmark
// workload may fail); `-audit` runs all 32 and lists what mismatches.
var knownWrong = map[string]bool{
	"a2v1": true, "a2v2": true, "a2v3": true, "a2v4": true, "a7v1": true,
}

// scaleOf sizes a workload's data. The query workloads run at 2x the
// repository's default scale, ingest at the default; -quick and the tests
// use the unit-test scale.
func scaleOf(name string, seed int64, quick bool) workload.Scale {
	sc := workload.DefaultScale()
	if quick {
		sc = workload.SmallScale()
	} else if name != "ingest" {
		sc.Tweets *= 2
		sc.Checkins *= 2
		sc.Landmarks *= 2
		sc.Users *= 2
	}
	sc.Seed = seed
	return sc
}

// script is the analyst-major query list the query workloads replay.
func script(all bool) []workload.Query {
	var out []workload.Query
	for _, q := range workload.AllQueries() {
		if all || !knownWrong[q.Name] {
			out = append(out, q)
		}
	}
	return out
}

// env is one ready system.
type env struct {
	sys  *opportune.System
	sess *session.Session
	ds   *workload.Datasets
	svc  *service.Service // tenants only
}

// buildEnv is what setup_s times: generate the logs, load them, register
// and calibrate the UDF library and, for tenants, start the service.
func buildEnv(sc workload.Scale, withService bool) (*env, error) {
	sys := opportune.New()
	sess := sys.Session()
	sess.Eng.Workers = runtime.NumCPU()
	ds, err := workload.Install(sess, sc)
	if err != nil {
		return nil, fmt.Errorf("install workload: %w", err)
	}
	e := &env{sys: sys, sess: sess, ds: ds}
	if withService {
		// MaxWait is far above any wave's submit time, so the timer never
		// splits a wave and batch composition repeats exactly.
		e.svc = service.New(sess, service.Config{
			BatchSize: tenantCount, MaxWait: 10 * time.Second, Mode: session.ModeBFR,
		})
	}
	return e, nil
}

func (e *env) close() {
	if e.svc != nil {
		e.svc.Close()
	}
}

// bytesRatio is bytes of retained views over bytes of base logs.
func (e *env) bytesRatio() float64 {
	var base int64
	for _, name := range e.sess.Store.List(storage.Base) {
		if d, ok := e.sess.Store.Meta(name); ok {
			base += d.SizeBytes
		}
	}
	return ratio(float64(e.sess.Store.ViewBytes()), float64(base))
}

// op is one operation of a pass, kept until the pass clock stops: results
// are fingerprinted afterwards so verification never sits on the timed path
// (stored relations are immutable; a later write installs a new one).
type op struct {
	key   string // expected-fingerprint key
	rel   *data.Relation
	err   error
	latMS float64

	simS float64 // simulated cluster seconds charged: exec + stats

	// Layer attribution: what the traced run and the service report.
	parseUS, readUS float64
	m               *session.Metrics
	admitMS         float64
}

// pass is what one pass over a workload's script produced.
type pass struct {
	wall     time.Duration
	ops      []op
	appendMS []float64
	simS     float64 // simulated cluster seconds charged: exec + stats (+ maintenance)

	viewBytesRatio float64
	catalogViews   int

	// ingest
	maintained, invalidated int
	maintainSimS            float64

	svc serviceCounts // tenants
}

// serviceCounts are the service's and its batch executor's running totals;
// a pass keeps the difference across itself.
type serviceCounts struct {
	Batches, Completed, Fallbacks                                int64
	JobsSubmitted, JobsDeduped, SharedScans, SharedScanConsumers int
	ScanBytesSaved                                               int64
	SimSeconds, WallSeconds                                      float64
}

func readServiceCounts(svc *service.Service) serviceCounts {
	st, bt := svc.Stats(), svc.BatchTotals()
	return serviceCounts{
		Batches: st.Batches, Completed: st.Completed, Fallbacks: st.Fallbacks,
		JobsSubmitted: bt.JobsSubmitted, JobsDeduped: bt.JobsDeduped,
		SharedScans: bt.SharedScans, SharedScanConsumers: bt.SharedScanConsumers,
		ScanBytesSaved: bt.ScanBytesSaved, SimSeconds: bt.SimSeconds, WallSeconds: bt.WallSeconds,
	}
}

// plus returns a + sign*b, field by field.
func (a serviceCounts) plus(b serviceCounts, sign int) serviceCounts {
	a.Batches += int64(sign) * b.Batches
	a.Completed += int64(sign) * b.Completed
	a.Fallbacks += int64(sign) * b.Fallbacks
	a.JobsSubmitted += sign * b.JobsSubmitted
	a.JobsDeduped += sign * b.JobsDeduped
	a.SharedScans += sign * b.SharedScans
	a.SharedScanConsumers += sign * b.SharedScanConsumers
	a.ScanBytesSaved += int64(sign) * b.ScanBytesSaved
	a.SimSeconds += float64(sign) * b.SimSeconds
	a.WallSeconds += float64(sign) * b.WallSeconds
	return a
}

// runner replays one workload.
type runner interface {
	// reference runs the script with rewriting off on a fresh system and
	// returns the fingerprint every timed answer must match.
	reference() (map[string]uint64, error)
	// pass runs the script once. An operation that fails is recorded in its
	// op; an error return means the harness itself could not go on.
	pass(tr *tracer) (*pass, error)
	// opsPerPass is how many latency samples one pass yields.
	opsPerPass() int
	// queries are the distinct query texts the script draws from.
	queries() []workload.Query
	session() *session.Session
	close()
}

// newRunner builds the named workload's runner on a ready system. all
// (the -audit run) keeps the known-wrong queries in the script.
func newRunner(name string, sc workload.Scale, e *env, all bool) (runner, error) {
	switch name {
	case "evolve":
		return &seqRunner{env: e, sc: sc, mode: opportune.RewriteBFR, qs: script(all)}, nil
	case "scan":
		return &seqRunner{env: e, sc: sc, mode: opportune.RewriteOff, qs: script(all)}, nil
	case "tenants":
		return &tenantsRunner{env: e, sc: sc, qs: script(all)}, nil
	case "ingest":
		return &ingestRunner{env: e, sc: sc}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// referenceQueries answers every query as written on a fresh system.
func referenceQueries(sc workload.Scale, queries []workload.Query) (map[string]uint64, error) {
	e, err := buildEnv(sc, false)
	if err != nil {
		return nil, err
	}
	e.sys.SetRewriteMode(opportune.RewriteOff)
	want := make(map[string]uint64, len(queries))
	for _, q := range queries {
		fp, err := execFingerprint(e, q.SQL)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.Name, err)
		}
		want[q.Name] = fp
	}
	return want, nil
}

func execFingerprint(e *env, sql string) (uint64, error) {
	res, err := e.sys.ExecOne(sql)
	if err != nil {
		return 0, err
	}
	rel, err := e.sess.Store.Read(res.Table)
	if err != nil {
		return 0, err
	}
	return rel.Fingerprint(), nil
}

// seqRunner is one console replaying the script through System.Exec on a
// catalog that accumulates across analysts: evolve with BFREWRITE on, scan
// with rewriting off.
type seqRunner struct {
	*env
	sc   workload.Scale
	mode opportune.RewriteMode
	qs   []workload.Query
}

func (r *seqRunner) opsPerPass() int           { return len(r.qs) }
func (r *seqRunner) queries() []workload.Query { return r.qs }
func (r *seqRunner) session() *session.Session { return r.sess }

func (r *seqRunner) reference() (map[string]uint64, error) {
	return referenceQueries(r.sc, r.qs)
}

func (r *seqRunner) pass(tr *tracer) (*pass, error) {
	r.sys.DropViews()
	r.sys.SetRewriteMode(r.mode)
	p := &pass{ops: make([]op, 0, len(r.qs))}
	root := tr.start("pass", -1, "")
	start := time.Now()
	for _, q := range r.qs {
		o := seqQuery(r.env, tr, root, q.Name, q.SQL, r.mode)
		p.simS += o.simS
		p.ops = append(p.ops, o)
	}
	p.wall = time.Since(start)
	tr.end(root)
	p.viewBytesRatio = r.bytesRatio()
	p.catalogViews = len(r.sess.Cat.Views())
	return p, nil
}

// seqQuery answers one query text. Untraced it is exactly the user's call,
// System.Exec. Traced it is the same three steps Exec takes — parse, run,
// fetch the result — made from here so that each gets a span.
func seqQuery(e *env, tr *tracer, parent int, key, sql string, mode opportune.RewriteMode) op {
	o := op{key: key}
	if tr == nil {
		t0 := time.Now()
		res, err := e.sys.ExecOne(sql)
		o.latMS = ms(time.Since(t0))
		if err != nil {
			o.err = err
			return o
		}
		o.simS = res.ExecSeconds
		o.rel, o.err = e.sess.Store.Read(res.Table)
		return o
	}

	smode := session.ModeBFR
	if mode == opportune.RewriteOff {
		smode = session.ModeOriginal
	}
	qs := tr.start("query", parent, key)
	t0 := time.Now()
	ps := tr.start("hiveql.parse", qs, key)
	st, err := hiveql.ParseOne(sql)
	o.parseUS = tr.end(ps) * 1e3
	if err == nil {
		rs := tr.start("session.run", qs, key)
		o.m, err = e.sess.Run(st.Plan, st.Table, smode)
		tr.end(rs)
	}
	if err == nil {
		o.simS = o.m.ExecSeconds + o.m.StatsSeconds
		tr.search(key, o.m.RewriteSeconds)
		ds := tr.start("storage.read", qs, key)
		o.rel, err = e.sess.Store.Read(o.m.ResultName)
		o.readUS = tr.end(ds) * 1e3
	}
	o.latMS = ms(time.Since(t0))
	tr.end(qs)
	tr.mark(key)
	o.err = err
	return o
}

// tenantsRunner drives the always-on service with rewriting on: one
// generator keeps two waves of one query per tenant in flight, so every
// micro-batch is exactly one wave and batch composition repeats exactly.
type tenantsRunner struct {
	*env
	sc workload.Scale
	qs []workload.Query
}

func (r *tenantsRunner) opsPerPass() int           { return wavesPerPass * tenantCount }
func (r *tenantsRunner) session() *session.Session { return r.sess }
func (r *tenantsRunner) queries() []workload.Query { return r.qs }

func (r *tenantsRunner) reference() (map[string]uint64, error) {
	return referenceQueries(r.sc, r.qs)
}

// draw is the pass's query sequence. How often each query appears is fixed:
// Zipf shares (s = zipfS) over the script in analyst-major rank order, every
// query at least once. Where it appears is fixed too: a query asked c times
// recurs at even intervals through the pass (stride scheduling), so new
// queries keep arriving among repeats and the catalog warms along the whole
// pass. Every seed therefore asks for the same work in the same waves, and
// timings compare across seeds; the seed decides which tenant sends which
// query of a wave (and generates the logs). Every pass replays the same draw.
func (r *tenantsRunner) draw() []int {
	n, slots := len(r.qs), r.opsPerPass()
	weights := make([]float64, n)
	var sum float64
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -zipfS)
		sum += weights[k]
	}
	// One slot each, the rest by largest remainder.
	counts := make([]int, n)
	rem := make([]float64, n)
	spare := slots - n
	for k, w := range weights {
		share := w / sum * float64(slots-n)
		counts[k] = 1 + int(share)
		rem[k] = share - math.Floor(share)
		spare -= int(share)
	}
	byRem := make([]int, n)
	for k := range byRem {
		byRem[k] = k
	}
	sort.SliceStable(byRem, func(a, b int) bool { return rem[byRem[a]] > rem[byRem[b]] })
	for _, k := range byRem[:spare] {
		counts[k]++
	}
	type slot struct {
		at float64
		q  int
	}
	seq := make([]slot, 0, slots)
	for k, c := range counts {
		for i := 0; i < c; i++ {
			seq = append(seq, slot{at: (float64(i) + 0.5) / float64(c), q: k})
		}
	}
	sort.SliceStable(seq, func(a, b int) bool { return seq[a].at < seq[b].at })
	out := make([]int, slots)
	for i, sl := range seq {
		out[i] = sl.q
	}
	rng := rand.New(rand.NewSource(r.sc.Seed))
	for w := 0; w < wavesPerPass; w++ {
		wave := out[w*tenantCount : (w+1)*tenantCount]
		rng.Shuffle(len(wave), func(i, j int) { wave[i], wave[j] = wave[j], wave[i] })
	}
	return out
}

type pending struct {
	q      workload.Query
	ticket *service.Ticket
	span   int
}

func (r *tenantsRunner) pass(tr *tracer) (*pass, error) {
	r.sess.DropViews() // the service is quiescent between passes
	draw := r.draw()
	p := &pass{ops: make([]op, 0, len(draw))}
	waves := make([][]pending, wavesPerPass)
	root := tr.start("pass", -1, "")
	submit := func(w int) error {
		for t := 0; t < tenantCount; t++ {
			q := r.qs[draw[w*tenantCount+t]]
			id := fmt.Sprintf("w%d/t%d/%s", w, t, q.Name)
			sp := tr.start("service.query", root, id)
			ticket, err := r.svc.Submit(fmt.Sprintf("tenant%d", t), q.SQL)
			if err != nil {
				return fmt.Errorf("submit %s: %w", id, err)
			}
			waves[w] = append(waves[w], pending{q: q, ticket: ticket, span: sp})
		}
		return nil
	}
	before := readServiceCounts(r.svc)
	start := time.Now()
	for w := 0; w < wavesInFlight && w < wavesPerPass; w++ {
		if err := submit(w); err != nil {
			return nil, err
		}
	}
	for w := 0; w < wavesPerPass; w++ {
		for _, pd := range waves[w] {
			resp := pd.ticket.Wait()
			tr.end(pd.span)
			o := op{key: pd.q.Name, err: resp.Err, latMS: ms(resp.Wall), admitMS: ms(resp.AdmitWait), m: resp.Metrics}
			if o.err == nil {
				t0 := time.Now()
				o.rel, o.err = r.sess.Store.Read(resp.Metrics.ResultName)
				o.readUS = ms(time.Since(t0)) * 1e3
				p.simS += resp.Metrics.StatsSeconds
			}
			p.ops = append(p.ops, o)
		}
		if w+wavesInFlight < wavesPerPass {
			if err := submit(w + wavesInFlight); err != nil {
				return nil, err
			}
		}
	}
	p.wall = time.Since(start)
	tr.end(root)
	// The executor charges a batch its physical simulated seconds (shared
	// scans once, deduped jobs free); statistics sampling is per query.
	p.svc = readServiceCounts(r.svc).plus(before, -1)
	p.simS += p.svc.SimSeconds
	p.viewBytesRatio = r.bytesRatio()
	p.catalogViews = len(r.sess.Cat.Views())
	return p, nil
}

// ingestRunner writes beside reads: a fresh system per pass holds the four
// standing views, then each epoch appends a batch of tweets and asks the
// four queries again under BFREWRITE.
type ingestRunner struct {
	*env // the most recent pass's system
	sc   workload.Scale
}

func (r *ingestRunner) opsPerPass() int           { return ingestEpochs * len(workload.IngestQueries()) }
func (r *ingestRunner) session() *session.Session { return r.sess }
func (r *ingestRunner) queries() []workload.Query { return workload.IngestQueries() }

func ingestKey(epoch int, name string) string { return fmt.Sprintf("e%d/%s", epoch, name) }

// appendBatch is epoch's rows in the shape System.AppendRows takes.
func appendBatch(sc workload.Scale, epoch int) [][]any {
	rows := workload.AppendBatch(sc, epoch, appendRows)
	out := make([][]any, len(rows))
	for i, r := range rows {
		out[i] = make([]any, len(r))
		for j, v := range r {
			out[i][j] = v
		}
	}
	return out
}

func (r *ingestRunner) reference() (map[string]uint64, error) {
	e, err := buildEnv(r.sc, false)
	if err != nil {
		return nil, err
	}
	e.sys.SetRewriteMode(opportune.RewriteOff)
	want := make(map[string]uint64)
	for epoch := -1; epoch < ingestEpochs; epoch++ {
		if epoch >= 0 {
			if _, err := e.sys.AppendRows("twtr", appendBatch(r.sc, epoch)); err != nil {
				return nil, fmt.Errorf("reference append %d: %w", epoch, err)
			}
		}
		for _, q := range workload.IngestQueries() {
			fp, err := execFingerprint(e, q.SQL)
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", ingestKey(epoch, q.Name), err)
			}
			if epoch >= 0 {
				want[ingestKey(epoch, q.Name)] = fp
			}
		}
	}
	return want, nil
}

func (r *ingestRunner) pass(tr *tracer) (*pass, error) {
	e, err := buildEnv(r.sc, false)
	if err != nil {
		return nil, err
	}
	r.env = e
	e.sys.SetRewriteMode(opportune.RewriteBFR)
	queries := workload.IngestQueries()
	for _, q := range queries {
		if _, err := e.sys.ExecOne(q.SQL); err != nil {
			return nil, fmt.Errorf("install standing view %s: %w", q.Name, err)
		}
	}
	batches := make([][][]any, ingestEpochs)
	for epoch := range batches {
		batches[epoch] = appendBatch(r.sc, epoch)
	}
	if tr != nil {
		e.sess.Instrument(tr.reg) // after the install: its jobs are not the pass's
	}
	runtime.GC()

	p := &pass{ops: make([]op, 0, r.opsPerPass())}
	root := tr.start("pass", -1, "")
	start := time.Now()
	for epoch := 0; epoch < ingestEpochs; epoch++ {
		id := fmt.Sprintf("e%d/append", epoch)
		as := tr.start("session.append", root, id)
		t0 := time.Now()
		rep, err := e.sys.AppendRows("twtr", batches[epoch])
		p.appendMS = append(p.appendMS, ms(time.Since(t0)))
		tr.end(as)
		tr.mark(id)
		if err != nil {
			return nil, fmt.Errorf("append epoch %d: %w", epoch, err)
		}
		p.simS += rep.SimSeconds
		p.maintainSimS += rep.SimSeconds
		p.maintained += len(rep.Maintained)
		p.invalidated += len(rep.Invalidated)
		for _, q := range queries {
			key := ingestKey(epoch, q.Name)
			o := seqQuery(e, tr, root, key, q.SQL, opportune.RewriteBFR)
			p.simS += o.simS
			p.ops = append(p.ops, o)
		}
	}
	p.wall = time.Since(start)
	tr.end(root)
	p.viewBytesRatio = e.bytesRatio()
	p.catalogViews = len(e.sess.Cat.Views())
	return p, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
