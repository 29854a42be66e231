// User evolution (§8.3.2): several analysts explore the same logs; a new
// analyst's first query is answered from views other analysts' queries left
// behind — including by MERGING multiple views.
package main

import (
	"fmt"
	"log"
	"strings"

	"opportune"
)

func loadLogs(sys *opportune.System) error {
	texts := []string{
		"wine is great", "bad day food", "good wine good pasta",
		"coffee time", "wine wine wine", "sushi dinner amazing", "pasta and wine",
	}
	var rows [][]any
	for i := 0; i < 3000; i++ {
		rows = append(rows, []any{i, i % 40, texts[i%len(texts)]})
	}
	return sys.CreateTable("tweets", "id", []string{"id", "user", "text"}, rows)
}

func registerUDFs(sys *opportune.System) error {
	score := func(topic string) func(args, _ []any) [][]any {
		return func(args, _ []any) [][]any {
			return [][]any{{float64(strings.Count(args[0].(string), topic))}}
		}
	}
	if err := sys.RegisterMapUDF(opportune.MapUDF{
		Name: "WINE", Args: 1, Outputs: []string{"wine_score"}, Weight: 20, Fn: score("wine"),
	}); err != nil {
		return err
	}
	if err := sys.RegisterMapUDF(opportune.MapUDF{
		Name: "FOOD", Args: 1, Outputs: []string{"food_score"}, Weight: 20, Fn: score("pasta"),
	}); err != nil {
		return err
	}
	if _, err := sys.CalibrateUDF("WINE", "tweets", []string{"text"}); err != nil {
		return err
	}
	_, err := sys.CalibrateUDF("FOOD", "tweets", []string{"text"})
	return err
}

func main() {
	sys := opportune.New()
	if err := loadLogs(sys); err != nil {
		log.Fatal(err)
	}
	if err := registerUDFs(sys); err != nil {
		log.Fatal(err)
	}

	// Analyst 1 studies wine sentiment; Analyst 2 studies food sentiment.
	queries := []struct{ who, sql string }{
		{"analyst-1 (wine)", `CREATE TABLE wine_fans AS
		   SELECT user, SUM(wine_score) AS wine_sum FROM tweets
		   APPLY WINE(text) GROUP BY user HAVING wine_sum > 40`},
		{"analyst-2 (food)", `CREATE TABLE food_fans AS
		   SELECT user, SUM(food_score) AS food_sum FROM tweets
		   APPLY FOOD(text) GROUP BY user HAVING food_sum > 15`},
	}
	for _, q := range queries {
		r, err := sys.ExecOne(q.sql)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %3d rows  %.3f sim-s  rewritten=%v\n", q.who, r.Len(), r.ExecSeconds, r.Rewritten)
	}
	fmt.Printf("\nopportunistic views in the system: %d\n", len(sys.Views()))
	for _, v := range sys.Views() {
		fmt.Printf("  %-22s %4d rows %6d bytes %v\n", v.Name, v.Rows, v.SizeBytes, v.Columns)
	}

	// A third analyst arrives and asks for users who are BOTH: the rewriter
	// merges analyst 1's and analyst 2's per-user aggregates instead of
	// re-reading the raw log and re-running both classifiers.
	r, err := sys.ExecOne(`
	   SELECT user, wine_sum, food_sum FROM
	     (SELECT user, SUM(wine_score) AS wine_sum FROM tweets APPLY WINE(text) GROUP BY user HAVING wine_sum > 40)
	   JOIN
	     (SELECT user AS fuser, SUM(food_score) AS food_sum FROM tweets APPLY FOOD(text) GROUP BY user HAVING food_sum > 15)
	   ON user = fuser`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nanalyst-3 (both):  %3d rows  %.4f sim-s  rewritten=%v (merged two analysts' views)\n",
		r.Len(), r.ExecSeconds, r.Rewritten)
	if !r.Rewritten {
		log.Fatal("expected the third analyst's query to be rewritten")
	}
}
