// Command bench is the repository's benchmark: four closed-loop workloads
// (evolve, scan, tenants, ingest) driven through the system's public entry
// points, every answer verified against a rewrite-off reference, end-to-end
// metrics from an untraced run and a per-layer table from a traced one.
// README.md has the metric tables and how to run and compare.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	audit    bool
	outDir   string
}

// header describes the machine and the settings of the runs in one file.
type header struct {
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"go_version"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Quick      bool           `json:"quick"`
	Scales     map[string]any `json:"scales"`
	LoadAvg1   float64        `json:"loadavg_1m"`
}

// outFile is what every run writes and -compare reads.
type outFile struct {
	Header header    `json:"header"`
	Runs   []*record `json:"runs"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "all", "evolve, scan, tenants, ingest or all")
	fs.Int64Var(&cfg.seed, "seed", 42, "seed of the generated logs and of the tenants' query draw")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "how long one run measures")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and out/trace-<workload>.json")
	fs.BoolVar(&cfg.quick, "quick", false, "unit-test scale (numbers are not comparable with full-scale runs)")
	fs.BoolVar(&cfg.audit, "audit", false, "replay all 32 queries, the known-wrong ones too, and list every mismatch")
	fs.StringVar(&cfg.outDir, "out", "", "output directory (default bench/out)")
	repeat := fs.Int("repeat", 1, "run each workload this many times into one file, so spread is recorded")
	outName := fs.String("name", "", "output file name without .json (default <workload>-seed<n>)")
	compare := fs.Bool("compare", false, "compare two output files: bench -compare a.json b.json")
	updateGolden := fs.Bool("update-golden", false, "rewrite golden/seed42.json from this run's references (seed 42, full scale)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace != 0
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if cfg.outDir == "" {
		cfg.outDir = filepath.Join(benchDir(), "out")
	}
	if *updateGolden {
		if err := writeGolden(); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	hdr := newHeader(cfg)
	if hdr.LoadAvg1 > float64(hdr.NProc)/2 {
		fmt.Fprintf(stderr, "bench: warning: 1-min load average %.2f exceeds nproc/2 (%d cores): timings will be noisy\n",
			hdr.LoadAvg1, hdr.NProc)
	}
	name := *outName
	if name == "" {
		name = fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed)
		if cfg.trace {
			name += "-trace"
		}
	}
	path := filepath.Join(cfg.outDir, name+".json")

	if cfg.workload != "all" && *repeat == 1 {
		rec, err := runWorkload(cfg, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if err := writeJSON(path, outFile{Header: hdr, Runs: []*record{rec}}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return printResult(rec, stdout)
	}

	// Several runs: one child process each, so peak_rss_mb is per workload.
	names := workloadNames
	if cfg.workload != "all" {
		names = []string{cfg.workload}
	}
	out := outFile{Header: hdr}
	code := 0
	for _, w := range names {
		for i := 0; i < *repeat; i++ {
			rec, err := runChild(cfg, w, i, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s run %d: %v\n", w, i, err)
				return 1
			}
			if !rec.Correct {
				code = 1
			}
			out.Runs = append(out.Runs, rec)
		}
	}
	if err := writeJSON(path, out); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s (%d runs)\n", path, len(out.Runs))
	return code
}

// runChild runs one workload in a process of its own and reads its record
// back from the file the child wrote.
func runChild(cfg config, workload string, i int, stdout, stderr io.Writer) (*record, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	part := fmt.Sprintf(".part-%s-%d", workload, i)
	args := []string{
		"-workload", workload, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-out", cfg.outDir, "-name", part,
	}
	if cfg.trace {
		args = append(args, "-trace", "1")
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	if cfg.audit {
		args = append(args, "-audit")
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	runErr := cmd.Run() // a child that found wrong answers exits 1 and still writes its record
	partPath := filepath.Join(cfg.outDir, part+".json")
	defer os.Remove(partPath)
	var f outFile
	if err := readJSON(partPath, &f); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, err
	}
	if len(f.Runs) != 1 {
		return nil, fmt.Errorf("%s holds %d runs, want 1", partPath, len(f.Runs))
	}
	return f.Runs[0], nil
}

// printResult prints the one-line result the driver reads. Its exit code is
// 0 only when every answer was verified.
func printResult(rec *record, stdout io.Writer) int {
	line, err := json.Marshal(struct {
		Correct   bool   `json:"correct"`
		Attempted int    `json:"attempted"`
		Failed    int    `json:"failed"`
		Metrics   values `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fmt.Fprintln(stdout, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

func newHeader(cfg config) header {
	h := header{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Quick:      cfg.quick,
		Scales:     make(map[string]any),
		LoadAvg1:   loadAvg1(),
	}
	// The Go tool stamps the commit into the binary when it builds inside a
	// git checkout; the benchmark never runs git itself.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				h.Commit += "+dirty"
			}
		}
	}
	for _, w := range workloadNames {
		h.Scales[w] = scaleOf(w, cfg.seed, cfg.quick)
	}
	return h
}

// benchDir is the benchmark's directory as seen from the working
// directory: bench from the repository root, . from bench/ itself.
func benchDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return "bench"
	}
	return "."
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
