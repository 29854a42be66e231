// Persistence: the opportunistic physical design survives restarts, and
// appending new log records maintains the views that can absorb a delta
// incrementally while invalidating exactly the rest (provenance comes
// from the attribute signatures).
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"opportune"
)

func udfLibrary(sys *opportune.System) error {
	return sys.RegisterMapUDF(opportune.MapUDF{
		Name: "WINE", Args: 1, Outputs: []string{"score"}, Weight: 20,
		Fn: func(args, _ []any) [][]any {
			return [][]any{{float64(strings.Count(args[0].(string), "wine"))}}
		},
	})
}

func main() {
	dir, err := os.MkdirTemp("", "opportune-demo-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// --- Day 1: explore, then shut down. ---
	sys := opportune.New()
	var rows [][]any
	texts := []string{"wine is great", "bad day", "wine wine wine", "coffee"}
	for i := 0; i < 3000; i++ {
		rows = append(rows, []any{i, i % 30, texts[i%len(texts)]})
	}
	if err := sys.CreateTable("tweets", "id", []string{"id", "user", "text"}, rows); err != nil {
		log.Fatal(err)
	}
	if err := udfLibrary(sys); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.CalibrateUDF("WINE", "tweets", []string{"text"}); err != nil {
		log.Fatal(err)
	}
	r, err := sys.ExecOne(`SELECT user, SUM(score) AS s FROM tweets APPLY WINE(text) GROUP BY user HAVING s > 50`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("day 1: %d wine lovers in %.4f sim-s; %d views retained\n",
		r.Len(), r.ExecSeconds, len(sys.Views()))
	if err := sys.Save(dir); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved physical design to %s\n\n", dir)

	// --- Day 2: restart, restore, revise the query. ---
	sys2, err := opportune.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	if err := udfLibrary(sys2); err != nil { // code is not persisted
		log.Fatal(err)
	}
	fmt.Printf("restored: %d views; calibrations re-applied to %v\n",
		len(sys2.Views()), sys2.ApplySavedCalibrations())
	r2, err := sys2.ExecOne(`SELECT user, SUM(score) AS s FROM tweets APPLY WINE(text) GROUP BY user HAVING s > 100`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("day 2 revision: %d rows in %.4f sim-s (rewritten=%v, from yesterday's views)\n\n",
		r2.Len(), r2.ExecSeconds, r2.Rewritten)

	// --- New data arrives: views are maintained or invalidated, exactly. ---
	rep, err := sys2.AppendRows("tweets", [][]any{
		{9001, 3, "wine wine wine wine"},
		{9002, 4, "coffee"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("appended 2 tweets: %d views maintained incrementally, %d invalidated\n",
		len(rep.Maintained), len(rep.Invalidated))
	r3, err := sys2.ExecOne(`SELECT user, SUM(score) AS s FROM tweets APPLY WINE(text) GROUP BY user HAVING s > 100`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-run sees fresh data: %d rows in %.4f sim-s (rewritten=%v — must recompute)\n",
		r3.Len(), r3.ExecSeconds, r3.Rewritten)
}
