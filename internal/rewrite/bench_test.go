package rewrite_test

import (
	"testing"

	"opportune/internal/hiveql"
	"opportune/internal/optimizer"
	"opportune/internal/rewrite"
	"opportune/internal/session"
	"opportune/internal/workload"
)

// newBenchState prepares a user-evolution-like search state once: seven
// analysts' v1 views are in the system; A1v1 is the probe query.
func newBenchState(b *testing.B) *session.Session {
	b.Helper()
	s, err := workload.NewSession(workload.SmallScale())
	if err != nil {
		b.Fatal(err)
	}
	for a := 2; a <= 8; a++ {
		if _, err := workload.Exec(s, workload.QueryFor(a, 1), session.ModeOriginal); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

func compileProbe(b *testing.B, s *session.Session) *optimizer.Work {
	b.Helper()
	st, err := hiveql.ParseOne(workload.QueryFor(1, 1).SQL)
	if err != nil {
		b.Fatal(err)
	}
	w, err := s.Opt.Compile(st.Plan)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkBFRewriteSearch measures one full BFREWRITE search (search only,
// no execution) against the accumulated views.
func BenchmarkBFRewriteSearch(b *testing.B) {
	s := newBenchState(b)
	views := s.Cat.Views()
	b.ReportMetric(float64(len(views)), "views")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Opt.ClearEstimates()
		res := s.Rew.BFRewrite(compileProbe(b, s), views)
		if !res.Improved {
			b.Fatal("no rewrite found")
		}
	}
}

// BenchmarkDPRewriteSearch measures the exhaustive baseline on the same
// state (expect orders of magnitude above BFREWRITE).
func BenchmarkDPRewriteSearch(b *testing.B) {
	s := newBenchState(b)
	views := s.Cat.Views()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Opt.ClearEstimates()
		res := s.Rew.DPRewrite(compileProbe(b, s), views)
		if !res.Improved {
			b.Fatal("no rewrite found")
		}
	}
}

// BenchmarkProbeCandidate measures one candidate evaluation: OPTCOST plus
// (when guessed complete) the REWRITEENUM compensation search.
func BenchmarkProbeCandidate(b *testing.B) {
	s := newBenchState(b)
	w := compileProbe(b, s)
	views := s.Cat.Views()
	target := w.Sink()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := views[i%len(views)]
		rewrite.ProbeCandidate(s.Rew, target, v)
	}
}
