package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// record is one run of one workload.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	FailedOps []string `json:"failed_ops,omitempty"` // distinct failing operations, sorted

	Passes     int       `json:"passes"`  // timed passes (untraced + traced)
	Samples    int       `json:"samples"` // verified latencies behind the percentiles
	PassWallMS []float64 `json:"pass_wall_ms"`
	Metrics    values    `json:"metrics"`

	// Counts are made by the program, not timed: for one seed they must
	// repeat exactly from run to run.
	Counts map[string]float64 `json:"counts"`
}

// measured accumulates the passes of one phase (untraced or traced).
type measured struct {
	passes []*pass
	lat    [][]float64 // per pass: latencies of its verified operations, ms
	failed map[string]bool
	ops    int
	bad    int
}

func newMeasured() *measured { return &measured{failed: make(map[string]bool)} }

// add verifies a finished pass — fingerprinting happens here, off the
// clock — and pools its latencies. A wrong or failed answer earns nothing.
func (m *measured) add(p *pass, want map[string]uint64, stdout io.Writer) {
	m.passes = append(m.passes, p)
	// The pool is every operation a user waited for: the queries and, on
	// ingest, the AppendRows calls between them.
	lat := append([]float64(nil), p.appendMS...)
	m.ops += len(p.ops) + len(p.appendMS)
	for i := range p.ops {
		o := &p.ops[i]
		why := ""
		if o.err != nil {
			why = o.err.Error()
		} else if fp := o.rel.Fingerprint(); fp != want[o.key] {
			why = fmt.Sprintf("fingerprint %016x, reference %016x (%d rows)", fp, want[o.key], o.rel.Len())
		}
		o.rel = nil
		if why == "" {
			lat = append(lat, o.latMS)
			continue
		}
		m.bad++
		if !m.failed[o.key] {
			m.failed[o.key] = true
			fmt.Fprintf(stdout, "FAILED %s: %s\n", o.key, why)
		}
	}
	m.lat = append(m.lat, lat)
}

// samples counts the pooled latencies.
func (m *measured) samples() int {
	n := 0
	for _, l := range m.lat {
		n += len(l)
	}
	return n
}

func (m *measured) walls() []float64 {
	out := make([]float64, len(m.passes))
	for i, p := range m.passes {
		out[i] = ms(p.wall)
	}
	return out
}

// onePass runs and verifies one pass, traced when tr is set. Each pass
// starts from a collected heap so one pass's garbage is not another's pause.
func (m *measured) onePass(r runner, tr *tracer, want map[string]uint64, stdout io.Writer) error {
	runtime.GC()
	p, err := r.pass(tr)
	if err != nil {
		return err
	}
	if tr != nil {
		tr.fold()
	}
	m.add(p, want, stdout)
	return nil
}

// measure runs untraced passes until both the time budget and the sample
// floor are met.
func measure(r runner, budget time.Duration, want map[string]uint64, stdout io.Writer) (*measured, error) {
	m := newMeasured()
	for start := time.Now(); m.ops < minSamples || time.Since(start) < budget; {
		if err := m.onePass(r, nil, want, stdout); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func runWorkload(cfg config, stdout io.Writer) (*record, error) {
	if !slices.Contains(workloadNames, cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	sc := scaleOf(cfg.workload, cfg.seed, cfg.quick)
	fmt.Fprintf(stdout, "workload %s seed %d scale %+v trace %v\n", cfg.workload, cfg.seed, sc, cfg.trace)

	// Set-up, several times over: its median is setup_s, so work a later
	// change moves out of the query path and into set-up still shows.
	var setupS []float64
	var e *env
	for i := 0; i < setupBuilds; i++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = buildEnv(sc, cfg.workload == "tenants"); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	r, err := newRunner(cfg.workload, sc, e, cfg.audit)
	if err != nil {
		return nil, err
	}
	defer r.close()

	want, err := r.reference()
	if err != nil {
		return nil, fmt.Errorf("verification cannot run: %w", err)
	}
	if cfg.seed == goldenSeed && !cfg.quick {
		if err := checkGolden(cfg.workload, want); err != nil {
			return nil, err
		}
	}
	runtime.GC()

	if _, err := r.pass(nil); err != nil { // warm-up, untimed
		return nil, err
	}

	rec := &record{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		Metrics: make(values), Counts: make(map[string]float64),
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var all []*measured      // timed passes
	checked := newMeasured() // operations verified outside them
	if !cfg.trace {
		m, err := measure(r, budget, want, stdout)
		if err != nil {
			return nil, err
		}
		all = []*measured{m}
		got, err := endToEndMetrics(r, m, setupS)
		if err != nil {
			return nil, err
		}
		if err := rec.Metrics.fill(endToEnd, got); err != nil {
			return nil, err
		}
	} else {
		var got map[string]float64
		if all, checked, got, err = tracedRun(cfg, r, budget, want, stdout); err != nil {
			return nil, err
		}
		if err := rec.Metrics.fill(perLayer, got); err != nil {
			return nil, err
		}
	}

	failed := make(map[string]bool)
	for _, m := range append(all, checked) {
		rec.Attempted += m.ops
		rec.Failed += m.bad
		for k := range m.failed {
			failed[k] = true
		}
	}
	for _, m := range all {
		rec.Passes += len(m.passes)
		rec.Samples += m.samples()
		rec.PassWallMS = append(rec.PassWallMS, m.walls()...)
	}
	for k := range failed {
		rec.FailedOps = append(rec.FailedOps, k)
	}
	sort.Strings(rec.FailedOps)
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	exactCounts(rec.Counts, all[0].passes[0])

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-36s %14.6g %s\n", d.Name, rec.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Fprintf(stdout, "passes %d, verified samples %d, attempted %d, failed %d %v\n",
		rec.Passes, rec.Samples, rec.Attempted, rec.Failed, rec.FailedOps)
	return rec, nil
}

// tracedRun alternates one untraced pass with two traced ones — registry
// attached, harness spans on — so that machine drift falls on both alike and
// their difference is the tracing overhead; then it derives the per-layer
// metrics and writes the trace file.
func tracedRun(cfg config, r runner, budget time.Duration, want map[string]uint64, stdout io.Writer) (timed []*measured, checked *measured, got map[string]float64, err error) {
	plain, traced := newMeasured(), newMeasured()
	tr := newTracer()
	var mem memDelta
	start := time.Now()
	for i := 0; len(plain.passes) < minTracedPass || len(traced.passes) < minTracedPass || time.Since(start) < budget; i++ {
		if i%3 == 0 {
			err = plain.onePass(r, nil, want, stdout)
		} else {
			r.session().Instrument(tr.reg)
			before := mem.read()
			err = traced.onePass(r, tr, want, stdout)
			mem.add(before, mem.read())
			r.session().Instrument(nil)
		}
		if err != nil {
			return nil, nil, nil, err
		}
	}

	lt := newLayerTable(r, tr, plain, traced, mem, stdout)
	if checked, err = lt.extras(cfg, want); err != nil {
		return nil, nil, nil, err
	}
	tf := traceFile{
		Header: newHeader(cfg), Workload: cfg.workload, Spans: tr.spans,
		LayerTotalMS: lt.total, LayerSelfMS: lt.self, UDFBodyNSPerRow: lt.udfNS,
	}
	path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
	if err := writeJSON(path, tf); err != nil {
		return nil, nil, nil, err
	}
	fmt.Fprintf(stdout, "wrote %s (%d spans)\n", path, len(tr.spans))
	return []*measured{plain, traced}, checked, lt.got, nil
}

// endToEndMetrics computes what a user sees from the untraced passes.
func endToEndMetrics(r runner, m *measured, setupS []float64) (map[string]float64, error) {
	got := make(map[string]float64)
	first := m.passes[0]
	got["setup_s"] = median(setupS)
	// Goodput: the verified share of a pass's queries over the median pass.
	verified := float64(r.opsPerPass()) * ratio(float64(m.ops-m.bad), float64(m.ops))
	got["queries_per_s"] = ratio(verified, median(m.walls())/1e3)
	var err error
	if got["query_p50_ms"], err = passPercentile(m.lat, 0.50); err != nil {
		return nil, err
	}
	if got["query_p90_ms"], err = passPercentile(m.lat, 0.90); err != nil {
		return nil, err
	}
	// Simulated seconds and bytes are the program's own counts; the first
	// timed pass is the same pass on every run of a seed, however many
	// passes the time budget then allows.
	got["sim_s_per_query"] = ratio(first.simS, float64(len(first.ops)))
	got["view_bytes_ratio"] = first.viewBytesRatio
	if got["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	return got, nil
}

// exactCounts records the program's own counts for the first timed pass.
func exactCounts(c map[string]float64, first *pass) {
	c["sim_s_per_query"] = ratio(first.simS, float64(len(first.ops)))
	c["view_bytes_ratio"] = first.viewBytesRatio
	c["catalog_views"] = float64(first.catalogViews)
	c["maintained"] = float64(first.maintained)
	c["invalidated"] = float64(first.invalidated)
	b := first.svc
	c["batches"] = float64(b.Batches)
	c["jobs_submitted"] = float64(b.JobsSubmitted)
	c["jobs_deduped"] = float64(b.JobsDeduped)
	c["shared_scans"] = float64(b.SharedScans)
	c["shared_scan_consumers"] = float64(b.SharedScanConsumers)
}
