// Command benchrunner regenerates the paper's evaluation (§8): every table
// and figure is reproduced as a text table with the paper's expected shape
// noted underneath.
//
// Usage:
//
//	benchrunner [-exp all|fig7|fig8|table1|fig9|fig10|fig11|fig12|table2|ablation|reclamation|jsens|similarity|footprint|fig10-10k] [-quick] [-tweets N] [-workers N] [-metrics out.json] [-faults plan.json] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"opportune/internal/experiments"
	"opportune/internal/fault"
	"opportune/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, fig7, fig8, table1, fig9, fig10, fig11, fig12, table2, ablation, reclamation, jsens, similarity, footprint; or fig10-10k, which all leaves out")
	quick := flag.Bool("quick", false, "run at reduced scale")
	tweets := flag.Int("tweets", 0, "override tweet-log size (0 = scale default)")
	workers := flag.Int("workers", 0, "MR engine worker-pool size (0 = GOMAXPROCS); affects wall-clock only, never results or simulated seconds")
	metrics := flag.String("metrics", "", "write an observability export (metrics + spans, JSON) to this file")
	faults := flag.String("faults", "", "inject a scripted fault plan (JSON, see internal/fault); results stay identical, recovery cost lands in wasted sim-seconds")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (post-GC allocations in use) to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: start cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // profile live objects, not garbage awaiting collection
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: write heap profile: %v\n", err)
			}
		}()
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *tweets > 0 {
		sc := cfg.Scale
		ratio := float64(*tweets) / float64(sc.Tweets)
		sc.Tweets = *tweets
		sc.Checkins = int(float64(sc.Checkins) * ratio)
		sc.Landmarks = int(float64(sc.Landmarks) * ratio)
		sc.Users = int(float64(sc.Users) * ratio)
		cfg.Scale = sc
	}
	cfg.Workers = *workers
	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		cfg.Obs = reg
	}
	if *faults != "" {
		plan, err := fault.Load(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
			os.Exit(1)
		}
		cfg.Faults = plan
		fmt.Printf("# chaos: injecting %d scripted faults (seed %d) from %s\n",
			len(plan.Faults), plan.Seed, *faults)
	}
	fmt.Printf("# opportune benchrunner — scale: %d tweets, %d check-ins, %d landmarks, %d users\n\n",
		cfg.Scale.Tweets, cfg.Scale.Checkins, cfg.Scale.Landmarks, cfg.Scale.Users)

	type runner struct {
		name string
		run  func() (interface{ Render() string }, error)
	}
	runners := []runner{
		{"fig7", func() (interface{ Render() string }, error) { return experiments.Fig7(cfg) }},
		{"fig8", func() (interface{ Render() string }, error) { return experiments.Fig8(cfg) }},
		{"table1", func() (interface{ Render() string }, error) { return experiments.Table1(cfg) }},
		{"fig9", func() (interface{ Render() string }, error) { return experiments.Fig9(cfg) }},
		{"fig10", func() (interface{ Render() string }, error) { return experiments.Fig10(cfg, nil) }},
		{"fig11", func() (interface{ Render() string }, error) { return experiments.Fig11(cfg) }},
		{"fig12", func() (interface{ Render() string }, error) { return experiments.Fig12(cfg) }},
		{"table2", func() (interface{ Render() string }, error) { return experiments.Table2(cfg) }},
		{"ablation", func() (interface{ Render() string }, error) { return experiments.Ablation(cfg) }},
		{"reclamation", func() (interface{ Render() string }, error) { return experiments.Reclamation(cfg) }},
		{"jsens", func() (interface{ Render() string }, error) { return experiments.JSensitivity(cfg) }},
		{"similarity", func() (interface{ Render() string }, error) { return experiments.Similarity(cfg) }},
		{"footprint", func() (interface{ Render() string }, error) { return experiments.Footprint(cfg) }},
		{"fig10-10k", func() (interface{ Render() string }, error) {
			return experiments.Fig10(cfg, append(experiments.Fig10Points(cfg), experiments.Fig10Views))
		}},
	}
	optIn := map[string]bool{"fig10-10k": true} // left out of -exp all

	ran := 0
	for _, r := range runners {
		if *exp != r.name && (*exp != "all" || optIn[r.name]) {
			continue
		}
		ran++
		start := time.Now()
		res, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %s: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Println(res.Render())
		fmt.Printf("[%s completed in %.1fs wall]\n\n", r.name, time.Since(start).Seconds())
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "benchrunner: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if reg != nil {
		if err := writeMetrics(reg, *metrics); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("metrics written to %s\n", *metrics)
	}
}

func writeMetrics(reg *obs.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
