// Quickstart: load a log, register a UDF, run a query, revise it, and watch
// the revision get answered from the opportunistic views of the first run.
package main

import (
	"fmt"
	"log"
	"strings"

	"opportune"
)

func main() {
	sys := opportune.New()

	// A small tweet log. The record key (id) lets the rewriter reason
	// about grouping refinement.
	texts := []string{
		"wine is great. love this vineyard",
		"bad day. terrible coffee",
		"good wine good life",
		"coffee time",
		"wine wine wine amazing",
	}
	var rows [][]any
	for i := 0; i < 2000; i++ {
		rows = append(rows, []any{i, i % 25, texts[i%len(texts)]})
	}
	if err := sys.CreateTable("tweets", "id", []string{"id", "user", "text"}, rows); err != nil {
		log.Fatal(err)
	}

	// A per-tuple classifier UDF: arbitrary user code, but annotated with
	// the gray-box model (adds one attribute derived from `text`).
	err := sys.RegisterMapUDF(opportune.MapUDF{
		Name: "WINE_SCORE", Args: 1, Outputs: []string{"score"}, Weight: 20,
		Fn: func(args, _ []any) [][]any {
			return [][]any{{float64(strings.Count(args[0].(string), "wine"))}}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	// One-time empirical calibration of the UDF's cost scalar (§4.2).
	scalar, err := sys.CalibrateUDF("WINE_SCORE", "tweets", []string{"text"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibrated WINE_SCORE cost scalar: %.1fx relational baseline\n\n", scalar)

	// First exploratory query: per-user wine sentiment above a threshold.
	q1 := `SELECT user, SUM(score) AS wine_sum FROM tweets
	       APPLY WINE_SCORE(text) GROUP BY user HAVING wine_sum > 50`
	r1, err := sys.ExecOne(q1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("v1: %d wine lovers, %d MR jobs, %.3f simulated s (rewritten=%v)\n",
		r1.Len(), r1.Jobs, r1.ExecSeconds, r1.Rewritten)
	fmt.Printf("opportunistic views retained: %d\n\n", len(sys.Views()))

	// The analyst revises the threshold — the defining pattern of
	// exploratory analysis. BFREWRITE answers it from the views.
	q2 := strings.Replace(q1, "> 50", "> 150", 1)
	r2, err := sys.ExecOne(q2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("v2: %d wine lovers, %d MR jobs, %.3f simulated s (rewritten=%v)\n",
		r2.Len(), r2.Jobs, r2.ExecSeconds, r2.Rewritten)
	// A Result is a handle on the stored answer: Row converts one row to
	// Go values when it is read.
	for i := 0; i < r2.Len(); i++ {
		fmt.Printf("  %v\n", r2.Row(i))
	}
	fmt.Printf("speedup: %.0fx (%.4fs -> %.4fs); rewrite search took %.4fs wall\n",
		r1.ExecSeconds/r2.ExecSeconds, r1.ExecSeconds, r2.ExecSeconds, r2.RewriteSeconds)
}
