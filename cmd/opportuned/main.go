// Command opportuned runs the opportune session as an always-on
// multi-tenant query service: concurrent tenants submit HiveQL-style
// queries, an admission stage cuts them into micro-batches (size or
// latency triggered, weighted-fair across tenants), and the shared-scan
// batch executor keeps every job output as an opportunistic view shared
// by all tenants; BFREWRITE rewrites each query over those views.
//
// Two modes:
//
//	opportuned -load          # closed-loop Zipfian tenant simulation
//	opportuned                # read "tenant<TAB>SQL" (or bare SQL) lines
//	                          # from stdin, one response line per query
//
// Usage:
//
//	opportuned [-load] [-tenants N] [-queries N] [-batch N] [-maxwait D]
//	           [-quick] [-tweets N] [-workers N] [-viewcap BYTES]
//	           [-metrics out.json]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"opportune/internal/obs"
	"opportune/internal/service"
	"opportune/internal/session"
	"opportune/internal/workload"
)

func main() {
	load := flag.Bool("load", false, "drive a closed-loop Zipfian tenant simulation instead of reading stdin")
	tenants := flag.Int("tenants", 8, "simulated tenant population (-load mode)")
	queries := flag.Int("queries", 200, "total queries the simulation submits (-load mode)")
	batch := flag.Int("batch", 8, "micro-batch size trigger")
	maxwait := flag.Duration("maxwait", 25*time.Millisecond, "micro-batch latency trigger")
	quick := flag.Bool("quick", false, "install the small-scale datasets")
	tweets := flag.Int("tweets", 0, "override tweet-log size (0 = scale default)")
	workers := flag.Int("workers", 0, "MR engine worker-pool size (0 = GOMAXPROCS)")
	viewcap := flag.Int64("viewcap", 0, "view storage budget in bytes (0 = unlimited); enables contention-aware hot pinning")
	metrics := flag.String("metrics", "", "write an observability export (JSON) to this file on exit")
	flag.Parse()

	sc := workload.DefaultScale()
	if *quick {
		sc = workload.SmallScale()
	}
	if *tweets > 0 {
		ratio := float64(*tweets) / float64(sc.Tweets)
		sc.Tweets = *tweets
		sc.Checkins = int(float64(sc.Checkins) * ratio)
		sc.Landmarks = int(float64(sc.Landmarks) * ratio)
		sc.Users = int(float64(sc.Users) * ratio)
	}
	sess, err := workload.NewSession(sc)
	if err != nil {
		fail(err)
	}
	sess.Eng.Workers = *workers
	reg := obs.NewRegistry()
	sess.Instrument(reg)
	if *viewcap > 0 {
		sess.Store.ViewCapacityBytes = *viewcap
	}
	svcCfg := service.Config{
		BatchSize: *batch,
		MaxWait:   *maxwait,
		Mode:      session.ModeBFR,
		Obs:       reg,
	}
	if *viewcap > 0 {
		svcCfg.HotPinFraction = 0.5
	}
	svc := service.New(sess, svcCfg)
	fmt.Printf("# opportuned — %d tweets, batch=%d, maxwait=%v\n", sc.Tweets, *batch, *maxwait)

	if *load {
		runLoad(svc, *tenants, *queries, *batch)
	} else {
		runStdin(svc)
	}
	svc.Close()
	st := svc.Stats()
	fmt.Printf("# served %d queries (%d batches, %d parse errors)\n",
		st.Completed, st.Batches, st.ParseErrors)
	if *metrics != "" {
		f, err := os.Create(*metrics)
		if err != nil {
			fail(err)
		}
		if err := reg.WriteJSON(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("# metrics written to %s\n", *metrics)
	}
}

// runLoad is the closed-loop simulation: 2×batch workers, each drawing a
// tenant from a Zipfian popularity curve and a query from the skewed
// workload mix, submitting, and waiting before the next draw.
func runLoad(svc *service.Service, tenants, total, batch int) {
	qs := workload.AllQueries()
	loaders := 2 * batch
	if loaders > total {
		loaders = total
	}
	perWorker := total / loaders

	var mu sync.Mutex
	latencies := make([]float64, 0, loaders*perWorker)
	perTenant := make(map[string]int64)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < loaders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000*w) + 7))
			ztenant := rand.NewZipf(rng, 1.4, 1, uint64(tenants-1))
			zquery := rand.NewZipf(rng, 1.3, 1, uint64(len(qs)-1))
			for i := 0; i < perWorker; i++ {
				tenant := fmt.Sprintf("tenant%d", ztenant.Uint64())
				tk, err := svc.Submit(tenant, qs[zquery.Uint64()].SQL)
				if err != nil {
					return // closed
				}
				resp := tk.Wait()
				mu.Lock()
				latencies = append(latencies, resp.Wall.Seconds())
				perTenant[tenant]++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()

	sort.Float64s(latencies)
	n := len(latencies)
	if n == 0 || wall <= 0 {
		return
	}
	totals := svc.BatchTotals()
	fmt.Printf("sustained %.1f qps over %d queries (%.1fs wall)\n", float64(n)/wall, n, wall)
	fmt.Printf("latency p50 %.3fs  p99 %.3fs\n", latencies[n/2], latencies[(n*99)/100])
	fmt.Printf("sharing: %d jobs deduped, %d shared scans, %.3f sim-seconds saved\n",
		totals.JobsDeduped, totals.SharedScans, totals.SavedSimSeconds)
	names := make([]string, 0, len(perTenant))
	for t := range perTenant {
		names = append(names, t)
	}
	sort.Strings(names)
	fmt.Print("tenant mix:")
	for _, t := range names {
		fmt.Printf(" %s:%d", t, perTenant[t])
	}
	fmt.Println()
}

// runStdin serves queries from stdin: "tenant<TAB>SQL" per line, or bare
// SQL attributed to tenant "console". Responses print in completion
// order; submission does not block on execution, so consecutive lines
// land in the same micro-batch and share work.
func runStdin(svc *service.Service) {
	var wg sync.WaitGroup
	scan := bufio.NewScanner(os.Stdin)
	scan.Buffer(make([]byte, 1<<20), 1<<20)
	for scan.Scan() {
		line := strings.TrimSpace(scan.Text())
		if line == "" || strings.HasPrefix(line, "--") {
			continue
		}
		tenant, sql := "console", line
		if i := strings.IndexByte(line, '\t'); i > 0 {
			tenant, sql = line[:i], strings.TrimSpace(line[i+1:])
		}
		tk, err := svc.Submit(tenant, sql)
		if err != nil {
			fmt.Printf("%s: ERROR %v\n", tenant, err)
			continue
		}
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			resp := tk.Wait()
			if resp.Err != nil {
				fmt.Printf("%s: ERROR %v\n", tenant, resp.Err)
				return
			}
			fmt.Printf("%s: %s ok in %.3fs (admitted after %.3fs, %d jobs, %.3f sim-s)\n",
				tenant, resp.ResultName, resp.Wall.Seconds(), resp.AdmitWait.Seconds(),
				resp.Metrics.Jobs, resp.Metrics.ExecSeconds+resp.Metrics.StatsSeconds)
		}(tenant)
	}
	wg.Wait()
	if err := scan.Err(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "opportuned: %v\n", err)
	os.Exit(1)
}
