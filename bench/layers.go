package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"opportune"
	"opportune/internal/hiveql"
	"opportune/internal/session"
	"opportune/internal/storage"
	"opportune/internal/udf"
	"opportune/internal/value"
	"opportune/internal/workload"
)

const mib = 1 << 20

// traceFile is out/trace-<workload>.json.
type traceFile struct {
	Header          header             `json:"header"`
	Workload        string             `json:"workload"`
	LayerTotalMS    map[string]float64 `json:"layer_total_ms"` // per span name, summed over the traced passes
	LayerSelfMS     map[string]float64 `json:"layer_self_ms"`
	UDFBodyNSPerRow map[string]float64 `json:"udf_body_ns_per_row"`
	Spans           []span             `json:"spans"`
}

// layerTable turns the traced passes into the per-layer metrics. Its
// sources are, in this order of preference: values the public calls return,
// wall-clock around the harness's own calls, and the program's registry.
type layerTable struct {
	got    map[string]float64
	r      runner
	plain  *measured
	traced *measured
	stdout io.Writer

	total, self map[string]float64
	udfNS       map[string]float64
}

func newLayerTable(r runner, tr *tracer, plain, traced *measured, mem memDelta, stdout io.Writer) *layerTable {
	got := make(map[string]float64)
	lt := &layerTable{got: got, r: r, plain: plain, traced: traced, stdout: stdout, udfNS: make(map[string]float64)}
	lt.total, lt.self = tr.layerTimes()
	snap := tr.reg.Snapshot()
	counter := func(name string) float64 {
		var sum float64
		for k, v := range snap.Counters {
			if k == name || strings.HasPrefix(k, name+"{") {
				sum += float64(v)
			}
		}
		return sum
	}

	var ops []op
	var appendMS []float64
	var batch serviceCounts
	var maintained, invalidated int64
	var maintainSimS float64
	for _, p := range traced.passes {
		ops = append(ops, p.ops...)
		appendMS = append(appendMS, p.appendMS...)
		batch = batch.plus(p.svc, +1)
		maintained += int64(p.maintained)
		invalidated += int64(p.invalidated)
		maintainSimS += p.maintainSimS
	}
	q := float64(len(ops))
	last := traced.passes[len(traced.passes)-1]

	var parseUS, readUS, admitMS []float64
	var searchS, latMS, statsSimS, serviceMS float64
	var candidates, attempts, improved float64
	for _, o := range ops {
		latMS += o.latMS
		if o.parseUS > 0 {
			parseUS = append(parseUS, o.parseUS)
		}
		if o.readUS > 0 {
			readUS = append(readUS, o.readUS)
		}
		if o.m == nil {
			continue
		}
		statsSimS += o.m.StatsSeconds
		searchS += o.m.RewriteSeconds
		if rw := o.m.Rewrite; rw != nil {
			candidates += float64(rw.Counters.CandidatesConsidered)
			attempts += float64(rw.Counters.RewriteAttempts)
			if rw.Improved {
				improved++
			}
		}
		if batch.Batches > 0 {
			admitMS = append(admitMS, o.admitMS)
			serviceMS += o.latMS - o.admitMS
		}
	}

	got["hiveql.parse_us"] = median(parseUS)
	hits := counter("optimizer_estimate_cache_hits_total")
	got["optimizer.estimate_cache_hit_ratio"] = ratio(hits, hits+counter("optimizer_estimate_cache_misses_total"))
	got["optimizer.fused_map_ratio"] = ratio(counter("mr_fused_jobs_total"), counter("mr_fused_eligible_total"))
	got["optimizer.fused_reduce_ratio"] = ratio(counter("mr_fused_reduce_jobs_total"), counter("mr_fused_reduce_eligible_total"))

	got["rewrite.search_ms"] = ratio(searchS*1e3, q)
	got["rewrite.search_share"] = ratio(searchS*1e3, latMS)
	got["rewrite.candidates_per_query"] = ratio(candidates, q)
	got["rewrite.attempts_per_query"] = ratio(attempts, q)
	got["rewrite.improved_ratio"] = ratio(improved, q)
	got["rewrite.catalog_views"] = float64(last.catalogViews)

	got["mr.run_ms"] = ratio(lt.self["mr.job"], q)
	for _, phase := range []string{"split", "map", "combine", "shuffle", "reduce", "materialize"} {
		got["mr."+phase+"_ms"] = ratio(lt.self["mr."+phase], q)
	}
	got["mr.jobs_per_query"] = ratio(counter("mr_jobs_total"), q)
	got["mr.input_mb_per_query"] = ratio(counter("mr_input_bytes_total")/mib, q)
	got["mr.shuffle_mb_per_query"] = ratio(counter("mr_shuffle_bytes_total")/mib, q)
	got["mr.output_mb_per_query"] = ratio(counter("mr_output_bytes_total")/mib, q)
	got["mr.fused_row_ratio"] = ratio(counter("mr_fused_rows_total"), counter("mr_input_rows_total"))

	got["storage.read_mb_per_query"] = ratio(counter("storage_read_bytes_total")/mib, q)
	got["storage.write_mb_per_query"] = ratio(counter("storage_write_bytes_total")/mib, q)
	got["storage.sample_ops_per_query"] = ratio(counter("storage_sample_ops_total"), q)
	got["storage.view_mb"] = float64(r.session().Store.ViewBytes()) / mib
	got["storage.evictions"] = counter("storage_evictions_total")
	got["storage.read_us"] = median(readUS)

	got["meta.stats_sim_s_per_query"] = ratio(statsSimS, q)

	got["session.plan_ms"] = ratio(lt.total["session.plan"], q)
	got["session.execute_ms"] = ratio(lt.total["session.execute"], q)
	got["session.retain_ms"] = ratio(lt.self["session.execute"], q)
	got["session.append_ms"] = median(appendMS)
	got["session.maintained_ratio"] = ratio(float64(maintained), float64(maintained+invalidated))
	got["session.maintain_sim_s_per_append"] = ratio(maintainSimS, float64(len(appendMS)))

	nb := float64(batch.Batches)
	got["session.batch_wall_ms"] = ratio(batch.WallSeconds*1e3, nb)
	got["session.dedupe_ratio"] = ratio(float64(batch.JobsDeduped), float64(batch.JobsSubmitted))
	got["session.shared_scan_fanout"] = ratio(float64(batch.SharedScanConsumers), float64(batch.SharedScans))
	got["session.scan_mb_saved_per_batch"] = ratio(float64(batch.ScanBytesSaved)/mib, nb)

	got["service.admit_wait_ms_p50"] = median(admitMS)
	// A query's wall past admission is its batch's wall plus what the
	// service adds; every batch holds the same number of queries.
	got["service.overhead_ms"] = ratio(serviceMS, float64(len(admitMS))) - got["session.batch_wall_ms"]
	got["service.batch_size_mean"] = ratio(float64(batch.Completed), nb)
	got["service.exec_fallbacks"] = float64(batch.Fallbacks)

	got["obs.overhead_ratio"] = ratio(median(traced.walls()), median(plain.walls())) - 1
	// What the layers account for, over the traced passes' wall: everything
	// but the harness's own pass and query spans.
	var layered float64
	for name, v := range lt.self {
		if name != "pass" && name != "query" && name != "service.query" {
			layered += v
		}
	}
	got["obs.layer_sum_ratio"] = ratio(layered, lt.total["pass"])
	got["mem.alloc_mb_per_query"] = ratio(mem.allocBytes/mib, q)
	got["mem.gc_cycles_per_query"] = ratio(mem.gcCycles, q)
	return lt
}

// memDelta sums allocation and collector activity over the traced passes.
// Collections the harness forces between passes are not counted.
type memDelta struct{ allocBytes, gcCycles float64 }

func (memDelta) read() (m runtime.MemStats) {
	runtime.ReadMemStats(&m)
	return m
}

func (d *memDelta) add(before, after runtime.MemStats) {
	d.allocBytes += float64(after.TotalAlloc - before.TotalAlloc)
	d.gcCycles += float64((after.NumGC - after.NumForcedGC) - (before.NumGC - before.NumForcedGC))
}

// extras takes the measurements that need calls of their own, after the
// passes and with the registry detached. It returns the operations it
// verified on the way; they count as attempted, not as timed passes.
func (lt *layerTable) extras(cfg config, want map[string]uint64) (*measured, error) {
	extra := newMeasured()
	sess := lt.r.session()

	// Parse, compile and job build per distinct query, at quiescence: inside
	// Session.Run they happen under the plan lock where no caller can time
	// them.
	var parseUS, compileUS, jobsUS []float64
	for _, q := range lt.r.queries() {
		t0 := time.Now()
		st, err := hiveql.ParseOne(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", q.Name, err)
		}
		t1 := time.Now()
		sess.Opt.ClearEstimates()
		w, err := sess.Opt.Compile(st.Plan)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", q.Name, err)
		}
		t2 := time.Now()
		if _, err := sess.Opt.Executable(w, st.Table); err != nil {
			return nil, fmt.Errorf("probe %s: %w", q.Name, err)
		}
		t3 := time.Now()
		parseUS = append(parseUS, ms(t1.Sub(t0))*1e3)
		compileUS = append(compileUS, ms(t2.Sub(t1))*1e3)
		jobsUS = append(jobsUS, ms(t3.Sub(t2))*1e3)
	}
	if lt.got["hiveql.parse_us"] == 0 { // the service parses tenants' text itself
		lt.got["hiveql.parse_us"] = median(parseUS)
	}
	lt.got["optimizer.compile_us"] = median(compileUS)
	lt.got["optimizer.jobs_us"] = median(jobsUS)

	if err := lt.udfBodies(sess); err != nil {
		return nil, err
	}
	calibMS, err := calibrateMS(sess)
	if err != nil {
		return nil, err
	}
	lt.got["udf.calibrate_ms"] = calibMS

	if cfg.workload == "scan" {
		// Parallel efficiency: the same pass on one worker.
		sess.Eng.Workers = 1
		runtime.GC()
		p, err := lt.r.pass(nil)
		sess.Eng.Workers = runtime.NumCPU()
		if err != nil {
			return nil, err
		}
		extra.add(p, want, lt.stdout)
		lt.got["mr.parallel_speedup"] = ratio(ms(p.wall), median(lt.plain.walls()))
	}
	if cfg.workload == "evolve" {
		if err := lt.persist(cfg, extra, want); err != nil {
			return nil, err
		}
	}
	return extra, nil
}

// udfInputs are the twtr columns and literal parameters each map UDF of the
// workload library is timed on.
var udfInputs = map[string]struct {
	cols   []string
	params []value.V
}{
	"UDF_CLASSIFY_WINE": {cols: []string{"text"}},
	"UDF_CLASSIFY_FOOD": {cols: []string{"text"}},
	"UDF_TOKENIZE":      {cols: []string{"text"}},
	"UDF_EXTRACT_GEO":   {cols: []string{"lat", "lon"}},
	"UDF_WORD_COUNT":    {cols: []string{"text"}},
	"UDF_GEO_TILE":      {cols: []string{"lat", "lon"}, params: []value.V{value.NewFloat(0.1)}},
	"UDF_MENU_SIM":      {cols: []string{"text"}, params: []value.V{value.NewStr("pasta pizza")}},
	"UDF_PARSE_LOG":     {cols: []string{"text"}},
}

const udfRows = 10000

// udfBodies calls each map UDF's body directly over the first udfRows
// tweets: the user-code floor under the engine's map phase.
func (lt *layerTable) udfBodies(sess *session.Session) error {
	twtr, err := sess.Store.Read("twtr")
	if err != nil {
		return err
	}
	var perRow []float64
	for _, d := range workload.UDFLibrary() {
		in, ok := udfInputs[d.Name]
		if !ok || d.Kind != udf.KindMap {
			continue
		}
		idx := make([]int, len(in.cols))
		for i, c := range in.cols {
			if idx[i], ok = twtr.Schema().Index(c); !ok {
				return fmt.Errorf("udf body %s: twtr has no column %q", d.Name, c)
			}
		}
		// Queries discard tweets without coordinates before any geo UDF sees
		// them; so does the timing loop.
		var rows [][]value.V
		for r := 0; r < twtr.Len() && len(rows) < udfRows; r++ {
			row := twtr.Row(r)
			args := make([]value.V, len(idx))
			null := false
			for i, ix := range idx {
				args[i] = row[ix]
				null = null || args[i].Kind() == value.Null
			}
			if !null {
				rows = append(rows, args)
			}
		}
		if len(rows) == 0 {
			continue
		}
		t0 := time.Now()
		for _, args := range rows {
			d.Map(args, in.params)
		}
		ns := float64(time.Since(t0).Nanoseconds()) / float64(len(rows))
		lt.udfNS[d.Name] = ns
		perRow = append(perRow, ns)
	}
	lt.got["udf.body_ns_per_row"] = mean(perRow)
	return nil
}

// calibrateMS times registering and calibrating the UDF library on a
// scratch session that shares the installed logs.
func calibrateMS(sess *session.Session) (float64, error) {
	scratch := session.New(workload.CostParams())
	for _, name := range []string{"twtr", "fsq", "land"} {
		rel, err := sess.Store.Read(name)
		if err != nil {
			return 0, err
		}
		scratch.Store.Put(name, storage.Base, rel)
	}
	t0 := time.Now()
	if err := workload.RegisterUDFs(scratch); err != nil {
		return 0, err
	}
	return ms(time.Since(t0)), nil
}

// persist saves evolve's final catalog, reopens it and asks the reopened
// system one query: a restored design must still answer correctly.
func (lt *layerTable) persist(cfg config, extra *measured, want map[string]uint64) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.outDir, ".persist-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sys := lt.r.(*seqRunner).sys
	t0 := time.Now()
	if err := sys.Save(filepath.Join(dir, "db")); err != nil {
		return fmt.Errorf("persist save: %w", err)
	}
	lt.got["persist.save_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	re, err := opportune.Open(filepath.Join(dir, "db"))
	if err != nil {
		return fmt.Errorf("persist open: %w", err)
	}
	lt.got["persist.open_ms"] = ms(time.Since(t0))
	for _, d := range workload.UDFLibrary() {
		if err := re.Session().Cat.UDFs.Register(d); err != nil {
			return err
		}
	}
	re.ApplySavedCalibrations()
	q := workload.QueryFor(4, 4)
	o := seqQuery(&env{sys: re, sess: re.Session()}, nil, -1, q.Name, q.SQL, opportune.RewriteBFR)
	extra.add(&pass{ops: []op{o}}, want, lt.stdout)
	return nil
}
