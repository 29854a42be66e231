package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func quickRun(t *testing.T, workload string, seed int64, trace bool) *record {
	t.Helper()
	rec, err := runWorkload(config{
		workload: workload, seed: seed, seconds: 0.2, trace: trace, quick: true, outDir: t.TempDir(),
	}, io.Discard)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	return rec
}

// Every workload runs end to end, verifies every answer, reports exactly
// the end-to-end metrics, none of them zero — and does it again, for the
// same seed, with the program's own counts bit-equal.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			a, b := quickRun(t, w, 42, false), quickRun(t, w, 42, false)
			if !a.Correct || a.Failed != 0 || a.Attempted < minSamples {
				t.Fatalf("correct %v, failed %d %v, attempted %d", a.Correct, a.Failed, a.FailedOps, a.Attempted)
			}
			if len(a.Metrics) != len(endToEnd) {
				t.Fatalf("run reports %d metrics, want the %d end-to-end ones", len(a.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if v, ok := a.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
					t.Errorf("%s = %+v (present %v): want a positive value in %s", d.Name, v, ok, d.Unit)
				}
			}
			if !reflect.DeepEqual(a.Counts, b.Counts) {
				t.Errorf("counts differ between two runs of one seed:\n%v\n%v", a.Counts, b.Counts)
			}
			if w == "tenants" && (a.Counts["batches"] != wavesPerPass || a.Counts["jobs_deduped"] == 0) {
				t.Errorf("tenants counts %v: want %d batches a pass and some dedupe", a.Counts, wavesPerPass)
			}
		})
	}
}

// The traced run reports exactly the per-layer metrics, writes the trace
// file, and its layers account for the traced passes' wall.
func TestTracedRun(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			rec, err := runWorkload(config{workload: w, seed: 42, seconds: 0.2, trace: true, quick: true, outDir: dir}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct {
				t.Fatalf("failed %d %v", rec.Failed, rec.FailedOps)
			}
			var got []string
			for name := range rec.Metrics {
				got = append(got, name)
			}
			if len(got) != len(perLayer) {
				t.Fatalf("traced run reports %d metrics, want the %d per-layer ones", len(got), len(perLayer))
			}
			for _, d := range perLayer {
				if _, ok := rec.Metrics[d.Name]; !ok {
					t.Errorf("per-layer metric %s missing", d.Name)
				}
			}
			var tf traceFile
			if err := readJSON(filepath.Join(dir, "trace-"+w+".json"), &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) == 0 {
				t.Fatal("trace file holds no spans")
			}
			for i, sp := range tf.Spans {
				if sp.Parent >= i {
					t.Fatalf("span %d (%s) has parent %d: parents come first", i, sp.Name, sp.Parent)
				}
			}
			if rec.Metrics["storage.evictions"].Value != 0 {
				t.Errorf("storage.evictions = %v, want 0 (no view budget is set)", rec.Metrics["storage.evictions"].Value)
			}
			switch w {
			case "tenants":
				if v := rec.Metrics["service.batch_size_mean"].Value; v != tenantCount {
					t.Errorf("service.batch_size_mean = %v, want %d: a wave was split", v, tenantCount)
				}
			default:
				if v := rec.Metrics["obs.layer_sum_ratio"].Value; math.Abs(v-1) > 0.10 {
					t.Errorf("obs.layer_sum_ratio = %v: layer self times must sum to within 10%% of the traced pass wall", v)
				}
			}
		})
	}
}

// The seed feeds the logs and the tenants' query draw.
func TestSeedChangesDraw(t *testing.T) {
	draw := func(seed int64) []int {
		r := &tenantsRunner{sc: scaleOf("tenants", seed, true), qs: script(false)}
		return r.draw()
	}
	if !reflect.DeepEqual(draw(42), draw(42)) {
		t.Error("one seed gave two draws")
	}
	if reflect.DeepEqual(draw(42), draw(7)) {
		t.Error("seeds 42 and 7 gave the same draw")
	}
	if scaleOf("evolve", 7, false).Seed != 7 {
		t.Error("seed does not reach workload.Scale.Seed")
	}
}

// BENCHMARK.json and the metric tables name the same metrics, in both
// directions, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range spec.Workloads {
		ws = append(ws, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(ws, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", ws, workloadNames)
	}
	check := func(kind string, js []jsonMetric, defs []metricDef, bounded bool) {
		if len(js) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the table %d", kind, len(js), len(defs))
			return
		}
		for i, d := range defs {
			j := js[i]
			if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, table %+v", kind, i, j, d)
			}
			if bounded != (j.Bound != nil) || (bounded && *j.Bound != d.Bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match the table's %v", kind, d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if !slices.ContainsFunc(endToEnd, func(d metricDef) bool { return d.Name == "setup_s" && d.Better == "lower" }) {
		t.Error("setup_s must be an end-to-end metric")
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.90); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it: want a refusal")
	}
	xs = append(xs, 100)
	if p, err := percentile(xs, 0.90); err != nil || p != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", p, err)
	}
	if p, err := percentile(xs[:5], 0.50); err != nil || p != 3 {
		t.Errorf("p50 of 1..5 = %v, %v; want 3", p, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of nothing: want an error")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %v, %v; want 1, 4", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{"query_p50_ms", "ms", "lower", 0.10}
	higher := metricDef{"queries_per_s", "1/s", "higher", 0.10}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"within bound", lower, []float64{100, 101, 102}, []float64{105, 106, 107}, "ok"},
		{"slower beyond bound", lower, []float64{100, 101, 102}, []float64{120, 121, 122}, "regressed"},
		{"faster", lower, []float64{100, 101, 102}, []float64{50, 51, 52}, "ok"},
		{"throughput fell", higher, []float64{100, 101, 102}, []float64{80, 81, 82}, "regressed"},
		{"throughput rose", higher, []float64{100, 101, 102}, []float64{130, 131, 132}, "ok"},
		{"wide and interleaved", lower, []float64{80, 100, 140}, []float64{90, 125, 150}, "unresolved"},
		{"wide but every run worse", lower, []float64{80, 100, 120}, []float64{160, 200, 240}, "regressed"},
	} {
		if _, got := verdict(tc.d, newSide(tc.a), newSide(tc.b)); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	file := func(name string, p50 float64, failed int) string {
		var runs []*record
		for i := 0; i < 3; i++ {
			m := make(values)
			for _, d := range endToEnd {
				m[d.Name] = metricValue{Value: 10, Unit: d.Unit}
			}
			m["query_p50_ms"] = metricValue{Value: p50 + float64(i)*0.01, Unit: "ms"}
			runs = append(runs, &record{Workload: "scan", Metrics: m, Attempted: 100, Failed: failed})
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, outFile{Runs: runs}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file("a.json", 10, 0)
	var out bytes.Buffer
	if code := compareFiles(base, file("same.json", 10.2, 0), &out, io.Discard); code != 0 {
		t.Errorf("equal runs: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(base, file("slow.json", 13, 0), &out, io.Discard); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("30%% slower p50: exit %d\n%s", code, out.String())
	}
	if code := compareFiles(base, file("wrong.json", 10, 1), io.Discard, io.Discard); code != 1 {
		t.Errorf("more failed operations: exit %d, want 1", code)
	}
}

// A golden fingerprint that disagrees stops the run: a self-computed
// reference cannot hide an engine-wide wrong answer at seed 42.
func TestGoldenCoversTheScripts(t *testing.T) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		t.Fatal(err)
	}
	for _, q := range script(true) {
		if g["queries"][q.Name] == "" {
			t.Errorf("golden/seed42.json has no fingerprint for %s", q.Name)
		}
	}
	if len(g["ingest"]) != (&ingestRunner{}).opsPerPass() {
		t.Errorf("golden/seed42.json has %d ingest fingerprints, want %d", len(g["ingest"]), (&ingestRunner{}).opsPerPass())
	}
	if err := checkGolden("scan", map[string]uint64{"a1v1": 1}); err == nil {
		t.Error("a wrong fingerprint passed the golden check")
	}
}
