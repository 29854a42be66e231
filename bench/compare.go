package main

import (
	"fmt"
	"io"
	"slices"
)

// quartiles are the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) gives them (exclusive method), so spreads
// computed here and by a driver in Python agree. Fewer than two values have
// no spread.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := sortedCopy(xs)
	at := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// side is one file's readings of one metric on one workload.
type side struct {
	vals   []float64
	median float64
	spread float64 // (q3-q1)/median
}

func newSide(vals []float64) side {
	s := side{vals: vals, median: median(vals)}
	q1, q3 := quartiles(vals)
	s.spread = ratio(q3-q1, s.median)
	return s
}

// verdict compares a metric's baseline and candidate readings. worse is the
// share of the baseline median the candidate median lost. A loss beyond the
// bound is a regression — unless run-to-run spread is wider than the bound
// and the two sets of runs interleave, which the runs cannot resolve.
func verdict(d metricDef, a, b side) (worse float64, status string) {
	worse = ratio(b.median-a.median, a.median)
	if d.Better == "higher" {
		worse = -worse
	}
	interleave := slices.Min(a.vals) <= slices.Max(b.vals) && slices.Min(b.vals) <= slices.Max(a.vals)
	switch {
	case max(a.spread, b.spread) > d.Bound && interleave:
		return worse, "unresolved"
	case worse > d.Bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the bound and the verdict. Exit code 1 on any regression or on a
// candidate that failed more operations than the baseline.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var fa, fb outFile
	for _, l := range []struct {
		path string
		f    *outFile
	}{{pathA, &fa}, {pathB, &fb}} {
		if err := readJSON(l.path, l.f); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	if fa.Header.Quick != fb.Header.Quick || fa.Header.Seconds != fb.Header.Seconds || fa.Header.NProc != fb.Header.NProc {
		fmt.Fprintf(stderr, "bench: warning: the two files were not measured alike (quick %v/%v, seconds %v/%v, nproc %d/%d)\n",
			fa.Header.Quick, fb.Header.Quick, fa.Header.Seconds, fb.Header.Seconds, fa.Header.NProc, fb.Header.NProc)
	}
	code := 0
	fmt.Fprintf(stdout, "%-8s %-18s %14s %14s %8s %7s  %s\n", "workload", "metric", "baseline", "candidate", "worse", "bound", "verdict")
	for _, w := range workloadNames {
		ra, rb := untraced(fa.Runs, w), untraced(fb.Runs, w)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, d := range endToEnd {
			a, b := newSide(readings(ra, d.Name)), newSide(readings(rb, d.Name))
			worse, status := verdict(d, a, b)
			if status == "regressed" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-8s %-18s %14.6g %14.6g %+7.1f%% %6.1f%%  %s (n=%d/%d, spread %.1f%%/%.1f%%)\n",
				w, d.Name, a.median, b.median, worse*100, d.Bound*100, status,
				len(a.vals), len(b.vals), a.spread*100, b.spread*100)
		}
		if fa, fb := failedShare(ra), failedShare(rb); fb > fa {
			fmt.Fprintf(stdout, "%-8s failed operations rose from %.4f to %.4f of attempted\n", w, fa, fb)
			code = 1
		}
	}
	return code
}

func untraced(runs []*record, workload string) []*record {
	var out []*record
	for _, r := range runs {
		if r.Workload == workload && !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

func readings(runs []*record, metric string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

func failedShare(runs []*record) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}
