// Package experiments regenerates every table and figure of the paper's
// evaluation (§8). Each driver returns a structured result with a Render
// method that prints the same rows/series the paper reports; cmd/benchrunner
// and the repo-root benchmarks invoke them. That is the package's whole
// scope: what this repository adds beyond the paper (batching, the service,
// ingest, partition-aware planning, fused kernels) is measured by the
// repository benchmark in bench/ and pinned by the differential oracles
// beside each subsystem, not by a driver here.
//
// Timing currency: queries run on the simulated cluster, so "execution
// time" is deterministic simulated seconds (execution + the per-view
// statistics jobs). The rewrite algorithm's runtime is real wall-clock and
// is reported separately (as the paper's Fig 9c does): at the paper's 1TB
// scale it is negligible against execution (3.1s vs 2134s, §8.3.3), but
// against execution times scaled down by ~5 orders of magnitude it would
// dominate spuriously, so folding it into REWR here would misrepresent the
// paper's regime. EXPERIMENTS.md quantifies this.
package experiments

import (
	"fmt"
	"strings"

	"opportune/internal/fault"
	"opportune/internal/hiveql"
	"opportune/internal/obs"
	"opportune/internal/optimizer"
	"opportune/internal/session"
	"opportune/internal/workload"
)

// Config parameterizes experiment runs.
type Config struct {
	Scale workload.Scale
	// Quick shrinks the workload for smoke tests and testing.B runs.
	Quick bool
	// Workers sets the MR engine's worker-pool size (0 = GOMAXPROCS).
	// Parallelism changes wall-clock only: simulated seconds, data volumes,
	// and result bytes are identical at every worker count.
	Workers int
	// ReduceTasks overrides the engine's reduce-partition count R
	// (0 = engine default). Like Workers it affects wall-clock parallelism
	// only, never results or simulated seconds.
	ReduceTasks int
	// Obs, when set, is attached to every session the experiment builds
	// (store, engine, optimizer, and session metrics all feed it).
	Obs *obs.Registry

	// Faults, when set, is the scripted chaos plan injected into every
	// session the experiment builds. Job-level retry is enabled alongside
	// it (MaxAttempts=3) so read errors and escalated task failures
	// recover the way a real cluster's job tracker would.
	Faults *fault.Plan

	// DisableSpeculation turns off speculative re-execution of straggling
	// tasks; only chaos_test.go sets it, to measure what speculation saves.
	DisableSpeculation bool
}

// DefaultConfig is the full-size harness configuration.
func DefaultConfig() Config { return Config{Scale: workload.DefaultScale()} }

// QuickConfig is used by tests.
func QuickConfig() Config { return Config{Scale: workload.SmallScale(), Quick: true} }

func (c Config) scale() workload.Scale {
	if c.Scale.Tweets == 0 {
		return workload.DefaultScale()
	}
	return c.Scale
}

// repSeconds is the reported execution time of one query run.
func repSeconds(m *session.Metrics) float64 {
	return m.ExecSeconds + m.StatsSeconds
}

// pctImprove is the paper's "% improvement in execution time".
func pctImprove(orig, rewr float64) float64 {
	if orig <= 0 {
		return 0
	}
	p := 100 * (1 - rewr/orig)
	if p < 0 {
		return 0
	}
	return p
}

// newSession builds a fresh installed system.
func newSession(c Config) (*session.Session, error) {
	s, err := workload.NewSession(c.scale())
	if err != nil {
		return nil, err
	}
	s.Eng.Workers = c.Workers
	if c.ReduceTasks > 0 {
		s.Eng.Params.ReduceTasks = c.ReduceTasks
	}
	if c.Obs != nil {
		s.Instrument(c.Obs)
	}
	s.Eng.DisableSpeculation = c.DisableSpeculation
	if c.Faults != nil {
		s.InjectFaults(fault.NewInjector(c.Faults))
		s.Eng.MaxAttempts = 3
	}
	return s, nil
}

// run executes one workload query, failing loudly on error.
func run(s *session.Session, q workload.Query, mode session.Mode) (*session.Metrics, error) {
	m, err := workload.Exec(s, q, mode)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s %s: %w", q.Name, mode, err)
	}
	return m, nil
}

// compileQuery parses a workload query and compiles it into the job DAG W
// without executing it (used by search-only experiments).
func compileQuery(s *session.Session, q workload.Query) (*optimizer.Work, error) {
	st, err := hiveql.ParseOne(q.SQL)
	if err != nil {
		return nil, err
	}
	return s.Opt.Compile(st.Plan)
}

// table renders an aligned text table.
func table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			sb.WriteString(strings.Repeat(" ", width[i]-len(cell)))
		}
		sb.WriteString("\n")
	}
	writeRow(header)
	total := 0
	for _, w := range width {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total-2) + "\n")
	for _, r := range rows {
		writeRow(r)
	}
	return sb.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// gb renders bytes as gigabytes with enough precision for scaled-down data.
func gb(bytes int64) string {
	return fmt.Sprintf("%.6f", float64(bytes)/1e9)
}
