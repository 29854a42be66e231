// Command metricscheck validates a benchrunner -metrics export: the file
// must be well-formed obs JSON with a populated metrics section, internally
// consistent histograms, and the core counters every instrumented run
// produces. make bench-smoke pipes a quick run through it.
//
// Usage:
//
//	metricscheck out.json
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"opportune/internal/mr"
	"opportune/internal/obs"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: metricscheck <metrics.json>")
		os.Exit(2)
	}
	raw, err := os.ReadFile(os.Args[1])
	if err != nil {
		fail("%v", err)
	}
	var e obs.Export
	if err := json.Unmarshal(raw, &e); err != nil {
		fail("malformed export: %v", err)
	}

	m := e.Metrics
	if len(m.Counters) == 0 {
		fail("no counters recorded")
	}
	// Every instrumented benchrunner run executes jobs through the session,
	// reading and writing the store; these counter families must exist and
	// be positive.
	for _, prefix := range []string{
		"mr_jobs_total",
		"mr_input_bytes_total",
		"session_queries_total",
		"storage_read_bytes_total",
		"storage_write_bytes_total",
	} {
		if !hasPositive(m.Counters, prefix) {
			fail("missing or zero counter %s", prefix)
		}
	}
	for name, sec := range map[string]float64{
		"mr_sim_seconds_total":           sumByPrefix(m.FloatCounters, "mr_sim_seconds_total"),
		"session_exec_sim_seconds_total": sumByPrefix(m.FloatCounters, "session_exec_sim_seconds_total"),
	} {
		if sec <= 0 {
			fail("float counter %s not positive", name)
		}
	}
	for key, h := range m.Histograms {
		if len(h.Counts) != len(h.Bounds)+1 {
			fail("histogram %s: %d buckets for %d bounds", key, len(h.Counts), len(h.Bounds))
		}
		var n int64
		for _, c := range h.Counts {
			if c < 0 {
				fail("histogram %s: negative bucket", key)
			}
			n += c
		}
		if n != h.Count {
			fail("histogram %s: buckets sum to %d, count says %d", key, n, h.Count)
		}
	}
	checkBatch(m)
	checkPartition(m)
	checkFused(m)
	checkFusedReduce(m)
	checkProbe(m)
	checkPlanCache(m)
	if len(e.Spans) == 0 {
		fail("no spans recorded")
	}
	for _, sp := range e.Spans {
		checkSpan(sp)
	}
	fmt.Printf("ok: %d counters, %d float counters, %d histograms, %d root spans\n",
		len(m.Counters), len(m.FloatCounters), len(m.Histograms), len(e.Spans))
}

// checkBatch validates the batch executor's counter family when any of it
// is present (non-batch runs record none of these, which is fine). The
// shared-scan executor publishes all three families together, so a partial
// set means a wiring bug.
func checkBatch(m obs.Snapshot) {
	_, dedupOK := m.Counters["batch_jobs_deduped_total"]
	_, savedOK := m.Counters["batch_scan_bytes_saved_total"]
	fanin, faninOK := m.Histograms["batch_shared_scan_fanin"]
	if !dedupOK && !savedOK && !faninOK {
		return
	}
	if !dedupOK || !savedOK || !faninOK {
		fail("partial batch counter family: deduped=%v saved=%v fanin=%v",
			dedupOK, savedOK, faninOK)
	}
	if m.Counters["batch_jobs_deduped_total"] < 0 {
		fail("batch_jobs_deduped_total negative")
	}
	if m.Counters["batch_scan_bytes_saved_total"] < 0 {
		fail("batch_scan_bytes_saved_total negative")
	}
	// Every shared scan has at least 2 consumers; the fan-in histogram's
	// observations must be consistent with that.
	if fanin.Count > 0 && fanin.Sum < 2*float64(fanin.Count) {
		fail("batch_shared_scan_fanin: sum %g < 2x count %d", fanin.Sum, fanin.Count)
	}
}

// checkPartition validates the partition-aware execution counter family.
// The engine records all four names unconditionally (zeros included) the
// moment any keyed job runs, so if one is present they all must be; and
// the family must balance: every keyed job either took the partition-
// preserving path or paid a shuffle, eliminated bytes cannot exceed the
// bytes that entered grouping, and a run with no partition hits cannot
// claim eliminated transfer.
func checkPartition(m obs.Snapshot) {
	keyed, keyedOK := m.Counters["mr_keyed_jobs_total"]
	local, localOK := m.Counters["mr_partition_local_jobs_total"]
	shuffled, shuffledOK := m.Counters["mr_partition_shuffle_jobs_total"]
	elim, elimOK := m.Counters["mr_shuffle_bytes_eliminated_total"]
	if !keyedOK && !localOK && !shuffledOK && !elimOK {
		return // a run with no keyed jobs records none of the family
	}
	if !keyedOK || !localOK || !shuffledOK || !elimOK {
		fail("partial partition counter family: keyed=%v local=%v shuffle=%v eliminated=%v",
			keyedOK, localOK, shuffledOK, elimOK)
	}
	if keyed < 0 || local < 0 || shuffled < 0 || elim < 0 {
		fail("negative partition counter (keyed=%d local=%d shuffle=%d eliminated=%d)",
			keyed, local, shuffled, elim)
	}
	if local+shuffled != keyed {
		fail("partition family does not balance: local %d + shuffle %d != keyed %d",
			local, shuffled, keyed)
	}
	if total := m.Counters["mr_shuffle_bytes_total"]; elim > total {
		fail("eliminated %d shuffle bytes exceeds the %d bytes that entered grouping", elim, total)
	}
	if local == 0 && elim > 0 {
		fail("%d bytes eliminated with zero partition-local jobs", elim)
	}
}

// checkFused validates the fused map-pipeline counter family. The engine
// records all of it unconditionally (zeros included) for every job, so if
// one name is present they all must be; every job's map side is a fused
// batch function, so the job counters agree, and a run with no fused jobs
// cannot claim fused batches or rows.
func checkFused(m obs.Snapshot) {
	elig, eligOK := m.Counters["mr_fused_eligible_total"]
	jobs, jobsOK := m.Counters["mr_fused_jobs_total"]
	batches, batchesOK := m.Counters["mr_fused_batches_total"]
	rows, rowsOK := m.Counters["mr_fused_rows_total"]
	if !eligOK && !jobsOK && !batchesOK && !rowsOK {
		return // a run that executed no MR jobs records none of the family
	}
	if !eligOK || !jobsOK || !batchesOK || !rowsOK {
		fail("partial fused counter family: eligible=%v jobs=%v batches=%v rows=%v",
			eligOK, jobsOK, batchesOK, rowsOK)
	}
	if elig < 0 || jobs < 0 || batches < 0 || rows < 0 {
		fail("negative fused counter (eligible=%d jobs=%d batches=%d rows=%d)",
			elig, jobs, batches, rows)
	}
	if jobs != elig {
		fail("fused family does not balance: jobs %d != eligible %d", jobs, elig)
	}
	if jobs == 0 && (batches > 0 || rows > 0) {
		fail("fused work recorded with zero fused jobs (batches=%d rows=%d)", batches, rows)
	}
	if batches == 0 && rows > 0 {
		fail("%d fused rows recorded with zero fused batches", rows)
	}
}

// checkFusedReduce validates the reduce-side fusion counter family: all
// six names present together or not at all, with every label of
// mr.FuseReduceFallbackReasons (recorded zeros-included whenever the family
// is, like the map-side set) and no other; the engine derives eligibility
// from the job shuffling at all, so eligible jobs are exactly
// mr_keyed_jobs_total; every eligible reduce job either
// compiled its kernels or carries exactly one fallback reason,
// cross-boundary jobs are a subset of fused jobs, and a run with no fused
// reduce jobs cannot claim kernel work. Groups can be zero with rows zero
// even when jobs ran (every partition they fed was empty), but folded rows
// without finalized groups — or more groups than rows — is a wiring bug.
func checkFusedReduce(m obs.Snapshot) {
	names := []string{
		"mr_fused_reduce_eligible_total",
		"mr_fused_reduce_jobs_total",
		"mr_fused_reduce_crossboundary_jobs_total",
		"mr_fused_reduce_batches_total",
		"mr_fused_reduce_groups_total",
		"mr_fused_reduce_rows_total",
	}
	present := 0
	for _, n := range names {
		if _, ok := m.Counters[n]; ok {
			present++
		}
	}
	if present == 0 {
		for k := range m.Counters {
			if strings.HasPrefix(k, "mr_fused_reduce_fallback_total{") {
				fail("reduce fallback reasons recorded without the fused reduce family")
			}
		}
		return
	}
	if present != len(names) {
		for _, n := range names {
			if _, ok := m.Counters[n]; !ok {
				fail("partial fused reduce counter family: %s missing", n)
			}
		}
	}
	for _, n := range names {
		if m.Counters[n] < 0 {
			fail("%s negative", n)
		}
	}
	var fallback int64
	for _, reason := range mr.FuseReduceFallbackReasons {
		v, ok := m.Counters["mr_fused_reduce_fallback_total{reason="+reason+"}"]
		if !ok {
			fail("fused reduce fallback reason %q missing from the family", reason)
		}
		if v < 0 {
			fail("mr_fused_reduce_fallback_total{reason=%s} negative", reason)
		}
		fallback += v
	}
	for k := range m.Counters {
		if !strings.HasPrefix(k, "mr_fused_reduce_fallback_total{") {
			continue
		}
		known := false
		for _, reason := range mr.FuseReduceFallbackReasons {
			if k == "mr_fused_reduce_fallback_total{reason="+reason+"}" {
				known = true
				break
			}
		}
		if !known {
			fail("stray fused reduce fallback label %s", k)
		}
	}
	elig := m.Counters["mr_fused_reduce_eligible_total"]
	jobs := m.Counters["mr_fused_reduce_jobs_total"]
	cross := m.Counters["mr_fused_reduce_crossboundary_jobs_total"]
	batches := m.Counters["mr_fused_reduce_batches_total"]
	groups := m.Counters["mr_fused_reduce_groups_total"]
	rows := m.Counters["mr_fused_reduce_rows_total"]
	if keyed := m.Counters["mr_keyed_jobs_total"]; elig != keyed {
		fail("fused reduce eligibility is derived from keyed jobs: eligible %d != keyed %d", elig, keyed)
	}
	if jobs+fallback != elig {
		fail("fused reduce family does not balance: jobs %d + fallbacks %d != eligible %d",
			jobs, fallback, elig)
	}
	if cross > jobs {
		fail("%d cross-boundary jobs exceed %d fused reduce jobs", cross, jobs)
	}
	if jobs == 0 && (batches > 0 || groups > 0 || rows > 0) {
		fail("fused reduce work recorded with zero fused reduce jobs (batches=%d groups=%d rows=%d)",
			batches, groups, rows)
	}
	if rows > 0 && groups == 0 {
		fail("%d records folded by reduce kernels that finalized zero groups", rows)
	}
	if groups > rows {
		fail("%d groups finalized from only %d folded records", groups, rows)
	}
}

// checkPlanCache validates the session's plan-cache counters: the session
// publishes session_plan_cache_hits_total{mode} beside
// session_queries_total{mode} for every query (zeros included), so the two
// families carry the same modes, and a mode cannot have more hits than
// queries.
func checkPlanCache(m obs.Snapshot) {
	const queries, hits = "session_queries_total{", "session_plan_cache_hits_total{"
	for k, v := range m.Counters {
		switch {
		case strings.HasPrefix(k, queries):
			h, ok := m.Counters[hits+strings.TrimPrefix(k, queries)]
			if !ok {
				fail("%s has no plan-cache hit counter beside it", k)
			}
			if h < 0 || h > v {
				fail("%d plan-cache hits for %d queries (%s)", h, v, k)
			}
		case strings.HasPrefix(k, hits):
			if _, ok := m.Counters[queries+strings.TrimPrefix(k, hits)]; !ok {
				fail("%s recorded without its query counter", k)
			}
		}
	}
}

// checkProbe validates the index-probe counters. The engine records
// mr_probe_rows_total for every job, so it is present whenever jobs ran;
// the store creates storage_index_builds_total at its first build. Neither
// is negative, and the stored rows probes matched are counted among the
// jobs' input rows.
func checkProbe(m obs.Snapshot) {
	probed, probedOK := m.Counters["mr_probe_rows_total"]
	if _, jobs := m.Counters["mr_jobs_total"]; jobs && !probedOK {
		fail("mr_probe_rows_total missing beside mr_jobs_total")
	}
	builds := m.Counters["storage_index_builds_total"]
	if probed < 0 || builds < 0 {
		fail("negative probe counter (probed rows=%d index builds=%d)", probed, builds)
	}
	if in := m.Counters["mr_input_rows_total"]; probed > in {
		fail("%d probed rows exceed the %d input rows they are part of", probed, in)
	}
}

func checkSpan(sp obs.SpanExport) {
	if sp.Phase == "" {
		fail("span with empty phase")
	}
	if sp.WallSeconds < 0 || sp.SimSeconds < 0 {
		fail("span %s: negative seconds", sp.Phase)
	}
	for _, c := range sp.Children {
		checkSpan(c)
	}
}

// hasPositive reports whether any counter named prefix (with or without
// labels) is positive.
func hasPositive(counters map[string]int64, prefix string) bool {
	for k, v := range counters {
		if (k == prefix || strings.HasPrefix(k, prefix+"{")) && v > 0 {
			return true
		}
	}
	return false
}

func sumByPrefix(fc map[string]float64, prefix string) float64 {
	var sum float64
	for k, v := range fc {
		if k == prefix || strings.HasPrefix(k, prefix+"{") {
			sum += v
		}
	}
	return sum
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "metricscheck: "+format+"\n", args...)
	os.Exit(1)
}
