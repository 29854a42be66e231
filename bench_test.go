// This file holds one testing.B benchmark per table and figure of the
// paper's evaluation (§8), each delegating to the corresponding experiment
// driver. Benchmarks run at the quick scale so `go test -bench=.` finishes
// promptly; cmd/benchrunner runs the full-scale harness and prints the
// paper-style tables.
package opportune_test

import (
	"testing"

	"opportune/internal/experiments"
)

func benchConfig() experiments.Config { return experiments.QuickConfig() }

// BenchmarkFig7QueryEvolution regenerates Fig 7(a)/(b): ORIG vs REWR
// execution time for A1–A8 × v1–v4 within each analyst's session.
func BenchmarkFig7QueryEvolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgImprovementV2toV4(), "%improve-avg")
	}
}

// BenchmarkFig8UserEvolution regenerates Fig 8(a)/(b)/(c): holdout analysts
// reusing other analysts' views (execution time, data moved, improvement).
func BenchmarkFig8UserEvolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		var avg float64
		for _, e := range r.Entries {
			avg += e.ImprovePct
		}
		b.ReportMetric(avg/float64(len(r.Entries)), "%improve-avg")
	}
}

// BenchmarkTable1IncrementalAnalysts regenerates Table 1: A5v3 improvement
// as more analysts' views accumulate.
func BenchmarkTable1IncrementalAnalysts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ImprovePct[len(r.ImprovePct)-1], "%improve-final")
	}
}

// BenchmarkFig9AlgorithmComparison regenerates Fig 9(a)/(b)/(c): BFR vs DP
// candidates considered, rewrite attempts, and runtime.
func BenchmarkFig9AlgorithmComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		var bfr, dp float64
		for _, e := range r.Entries {
			bfr += float64(e.BFRCandidates)
			dp += float64(e.DPCandidates)
		}
		b.ReportMetric(bfr/float64(len(r.Entries)), "bfr-candidates")
		b.ReportMetric(dp/float64(len(r.Entries)), "dp-candidates")
	}
}

// BenchmarkFig10Scalability regenerates Fig 10: rewrite-algorithm runtime
// for A3v1 as the view count grows.
func BenchmarkFig10Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(benchConfig(), []int{20, 60, 120})
		if err != nil {
			b.Fatal(err)
		}
		last := r.Points[len(r.Points)-1]
		b.ReportMetric(last.BFRRuntimeSec, "bfr-sec-at-max")
		b.ReportMetric(last.DPRuntimeSec, "dp-sec-at-max")
	}
}

// BenchmarkFig11Anytime regenerates Fig 11: % error relative to the optimal
// rewrite over BFREWRITE's elapsed search time (A1v2–v4).
func BenchmarkFig11Anytime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		var bfr, dp float64
		for _, s := range r.Series {
			bfr += float64(s.TotalRewritesBFR)
			dp += float64(s.TotalRewritesDP)
		}
		b.ReportMetric(bfr, "bfr-rewrites")
		b.ReportMetric(dp, "dp-rewrites")
	}
}

// BenchmarkFig12Syntactic regenerates Fig 12: BFR vs BFR-SYNTACTIC on
// analyst 1's evolving query.
func BenchmarkFig12Syntactic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		var bfr, syn float64
		for _, e := range r.Entries {
			bfr += e.BFRImprove
			syn += e.SynImprove
		}
		b.ReportMetric(bfr/3, "bfr-%improve")
		b.ReportMetric(syn/3, "syn-%improve")
	}
}

// BenchmarkTable2NoIdenticalViews regenerates Table 2: improvement after
// identical views are discarded (syntactic drops to zero, BFR does not).
func BenchmarkTable2NoIdenticalViews(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		var bfr, syn float64
		for _, e := range r.Entries {
			bfr += e.BFRImprove
			syn += e.SyntacticImprove
		}
		b.ReportMetric(bfr/8, "bfr-%improve")
		b.ReportMetric(syn/8, "syn-%improve")
	}
}

// BenchmarkAblationPruningSources quantifies BFREWRITE's pruning sources
// (DESIGN.md §6): OPTCOST ordering/termination and the GUESSCOMPLETE gate.
func BenchmarkAblationPruningSources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Ablation(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		var full, noOpt float64
		for _, e := range r.Entries {
			full += float64(e.FullCandidates)
			noOpt += float64(e.NoOptCandidates)
		}
		b.ReportMetric(full/8, "full-candidates")
		b.ReportMetric(noOpt/8, "noopt-candidates")
	}
}

// BenchmarkReclamationPolicies evaluates the §10 storage-reclamation
// policies under shrinking view-storage budgets.
func BenchmarkReclamationPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Reclamation(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		var tight float64
		n := 0
		for _, e := range r.Entries {
			if e.BudgetFrac == 0.05 {
				tight += e.ImprovePct
				n++
			}
		}
		b.ReportMetric(tight/float64(n), "%improve-at-5%budget")
	}
}

// BenchmarkJSensitivity sweeps the J parameter (§5): reuse expressiveness
// vs search cost; A7's 3-way merge need shows as a step at J=3.
func BenchmarkJSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.JSensitivity(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		var j2, j3 float64
		for _, e := range r.Entries {
			if e.Analyst == 7 && e.J == 2 {
				j2 = e.ImprovePct
			}
			if e.Analyst == 7 && e.J == 3 {
				j3 = e.ImprovePct
			}
		}
		b.ReportMetric(j3-j2, "a7-j3-step-%")
	}
}

// BenchmarkSimilarity runs the §8.1 microbenchmark: query-text similarity
// is a poor predictor of reusability.
func BenchmarkSimilarity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Similarity(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Correlation, "pearson")
	}
}

// BenchmarkEngineSerial and BenchmarkEngineParallel run the same Fig 7
// workload with the MR worker pool at 1 vs GOMAXPROCS, exposing the
// wall-clock effect of the parallel engine. Simulated seconds and result
// bytes are identical in both — only real time differs.
func BenchmarkEngineSerial(b *testing.B)   { benchEngineWorkers(b, 1) }
func BenchmarkEngineParallel(b *testing.B) { benchEngineWorkers(b, 0) }

func benchEngineWorkers(b *testing.B, workers int) {
	cfg := benchConfig()
	cfg.Workers = workers
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFootprint measures the §10 storage cost of retaining every view
// of the whole workload.
func BenchmarkFootprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Footprint(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Ratio, "views/base-ratio")
	}
}
