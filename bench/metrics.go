package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one reported metric. Bound is the share of the baseline
// median by which an end-to-end metric may worsen before -compare calls it
// a regression; per-layer metrics carry no bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is what a user of the system sees, one value per workload. The
// same table is written into BENCHMARK.json; bench_test.go keeps the two
// equal in both directions.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p90_ms", "ms", "lower", 0.25},
	{"sim_s_per_query", "s", "lower", 0.02},
	{"view_bytes_ratio", "ratio", "lower", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is measured in the traced run only. A metric with no source on a
// workload (rewrite.* on scan, service.* off tenants, ...) reads 0 there.
var perLayer = []metricDef{
	{"hiveql.parse_us", "us", "lower", 0},
	{"optimizer.compile_us", "us", "lower", 0},
	{"optimizer.jobs_us", "us", "lower", 0},
	{"optimizer.estimate_cache_hit_ratio", "ratio", "higher", 0},
	{"optimizer.fused_map_ratio", "ratio", "higher", 0},
	{"optimizer.fused_reduce_ratio", "ratio", "higher", 0},

	{"rewrite.search_ms", "ms", "lower", 0},
	{"rewrite.search_share", "ratio", "lower", 0},
	{"rewrite.candidates_per_query", "count", "lower", 0},
	{"rewrite.attempts_per_query", "count", "lower", 0},
	{"rewrite.improved_ratio", "ratio", "higher", 0},
	{"rewrite.catalog_views", "count", "lower", 0},

	{"mr.run_ms", "ms", "lower", 0},
	{"mr.split_ms", "ms", "lower", 0},
	{"mr.map_ms", "ms", "lower", 0},
	{"mr.combine_ms", "ms", "lower", 0},
	{"mr.shuffle_ms", "ms", "lower", 0},
	{"mr.reduce_ms", "ms", "lower", 0},
	{"mr.materialize_ms", "ms", "lower", 0},
	{"mr.jobs_per_query", "count", "lower", 0},
	{"mr.input_mb_per_query", "MB", "lower", 0},
	{"mr.shuffle_mb_per_query", "MB", "lower", 0},
	{"mr.output_mb_per_query", "MB", "lower", 0},
	{"mr.fused_row_ratio", "ratio", "higher", 0},
	{"mr.parallel_speedup", "ratio", "higher", 0},

	{"udf.body_ns_per_row", "ns", "lower", 0},
	{"udf.calibrate_ms", "ms", "lower", 0},

	{"storage.read_mb_per_query", "MB", "lower", 0},
	{"storage.write_mb_per_query", "MB", "lower", 0},
	{"storage.sample_ops_per_query", "count", "lower", 0},
	{"storage.view_mb", "MB", "lower", 0},
	{"storage.evictions", "count", "lower", 0},
	{"storage.read_us", "us", "lower", 0},

	{"meta.stats_sim_s_per_query", "s", "lower", 0},

	{"session.plan_ms", "ms", "lower", 0},
	{"session.execute_ms", "ms", "lower", 0},
	{"session.retain_ms", "ms", "lower", 0},
	{"session.append_ms", "ms", "lower", 0},
	{"session.maintained_ratio", "ratio", "higher", 0},
	{"session.maintain_sim_s_per_append", "s", "lower", 0},
	{"session.batch_wall_ms", "ms", "lower", 0},
	{"session.dedupe_ratio", "ratio", "higher", 0},
	{"session.shared_scan_fanout", "ratio", "higher", 0},
	{"session.scan_mb_saved_per_batch", "MB", "higher", 0},

	{"service.admit_wait_ms_p50", "ms", "lower", 0},
	{"service.overhead_ms", "ms", "lower", 0},
	{"service.batch_size_mean", "count", "higher", 0},
	{"service.exec_fallbacks", "count", "lower", 0},

	{"persist.save_ms", "ms", "lower", 0},
	{"persist.open_ms", "ms", "lower", 0},

	{"obs.overhead_ratio", "ratio", "lower", 0},
	{"obs.layer_sum_ratio", "ratio", "higher", 0},
	{"mem.alloc_mb_per_query", "MB", "lower", 0},
	{"mem.gc_cycles_per_query", "count", "lower", 0},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values maps metric name to its reading; fill completes it against a
// metric table so every run prints the same names.
type values map[string]metricValue

func (v values) fill(defs []metricDef, got map[string]float64) error {
	for _, d := range defs {
		x := got[d.Name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, x)
		}
		v[d.Name] = metricValue{Value: x, Unit: d.Unit}
	}
	for name := range got {
		if _, ok := v[name]; !ok {
			return fmt.Errorf("metric %s is not in the metric table", name)
		}
	}
	return nil
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// nearestRank is the p-th percentile (0 < p < 1) of sorted, non-empty xs.
func nearestRank(sorted []float64, p float64) float64 {
	return sorted[max(1, int(math.Ceil(p*float64(len(sorted)))))-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (nearest rank) of xs. It refuses a
// percentile the sample cannot support: fewer than minTail samples beyond a
// tail percentile say nothing about the tail.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	if beyond := n - int(math.Ceil(p*float64(n))); p > 0.5 && beyond < minTail {
		return 0, fmt.Errorf("p%.0f needs %d samples beyond it, %d samples give %d", p*100, minTail, n, beyond)
	}
	return nearestRank(sortedCopy(xs), p), nil
}

// passPercentile estimates the p-th percentile of the pooled samples as the
// median over passes of each pass's own percentile: a machine that ran slow
// for a few seconds spoils a minority of passes, not the estimate. The pool
// as a whole must still support the percentile.
func passPercentile(passes [][]float64, p float64) (float64, error) {
	var pool, each []float64
	for _, xs := range passes {
		pool = append(pool, xs...)
		if len(xs) > 0 {
			each = append(each, nearestRank(sortedCopy(xs), p))
		}
	}
	if _, err := percentile(pool, p); err != nil {
		return 0, err
	}
	return median(each), nil
}

// median of xs (mean of the middle pair for an even count); 0 for none.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den, 0 when the denominator is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// loadAvg1 is the 1-minute load average, or -1 where /proc has none.
func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return -1
	}
	x, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return x
}
