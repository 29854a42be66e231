// Custom UDF: define your own MR UDFs — a filtering geo extractor, a
// tiling function with a parameter, and a grouping aggregate — annotated
// with the gray-box model, and watch the rewriter reuse and re-purpose
// their outputs across parameterized queries.
package main

import (
	"fmt"
	"log"
	"math"

	"opportune"
)

func main() {
	sys := opportune.New()

	// Check-ins with dirty coordinates (nil = missing, some out of range).
	var rows [][]any
	for i := 0; i < 4000; i++ {
		var lat, lon any
		switch i % 5 {
		case 0, 1, 2:
			lat, lon = 37.0+float64(i%100)/50, -122.0+float64(i%90)/45
		case 3:
			lat, lon = nil, nil
		case 4:
			lat, lon = 999.0, 999.0 // corrupted record
		}
		rows = append(rows, []any{i, i % 60, lat, lon})
	}
	if err := sys.CreateTable("checkins", "cid", []string{"cid", "user", "lat", "lon"}, rows); err != nil {
		log.Fatal(err)
	}

	// Operation types 1+2: add validated coordinates, drop dirty rows.
	// Ownership: args and params are the engine's, valid for this call only —
	// take the values out of them (as below), never keep the slices; what Fn
	// returns is copied before the next call.
	err := sys.RegisterMapUDF(opportune.MapUDF{
		Name: "CLEAN_GEO", Args: 2, Outputs: []string{"glat", "glon"},
		Filters: true, Weight: 3,
		Fn: func(args, _ []any) [][]any {
			la, ok1 := args[0].(float64)
			lo, ok2 := args[1].(float64)
			if !ok1 || !ok2 || la < -90 || la > 90 || lo < -180 || lo > 180 {
				return nil
			}
			return [][]any{{la, lo}}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	// Operation type 1 with a parameter: grid tiling. The parameter is part
	// of the output's semantic identity, so different tile sizes never get
	// confused by the rewriter.
	err = sys.RegisterMapUDF(opportune.MapUDF{
		Name: "TILE", Args: 2, Params: 1, Outputs: []string{"tile"}, Weight: 5,
		Fn: func(args, params []any) [][]any {
			size := params[0].(float64)
			la, ok1 := args[0].(float64)
			lo, ok2 := args[1].(float64)
			if !ok1 || !ok2 {
				return [][]any{{"?:?"}} // tolerate dirty rows (calibration samples raw data)
			}
			tx := int64(math.Floor(la / size))
			ty := int64(math.Floor(lo / size))
			return [][]any{{fmt.Sprintf("%d:%d", tx, ty)}}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, u := range []string{"CLEAN_GEO", "TILE"} {
		args := []string{"lat", "lon"}
		params := []any{}
		if u == "TILE" {
			params = []any{0.5}
		}
		if _, err := sys.CalibrateUDF(u, "checkins", args, params...); err != nil {
			log.Fatal(err)
		}
	}

	runQ := func(label, sql string) *opportune.Result {
		r, err := sys.ExecOne(sql)
		if err != nil {
			log.Fatal(label, ": ", err)
		}
		fmt.Printf("%-34s %4d rows  %.4f sim-s  rewritten=%v\n", label, r.Len(), r.ExecSeconds, r.Rewritten)
		return r
	}

	// Hot tiles at a 0.5° grid.
	runQ("hot tiles (0.5 deg)", `
	  SELECT tile, COUNT(*) AS n FROM checkins
	  APPLY CLEAN_GEO(lat, lon) APPLY TILE(glat, glon, 0.5)
	  GROUP BY tile HAVING n > 50`)

	// Same tile size, different threshold: rewritten from the first run.
	runQ("hot tiles, tighter threshold", `
	  SELECT tile, COUNT(*) AS n FROM checkins
	  APPLY CLEAN_GEO(lat, lon) APPLY TILE(glat, glon, 0.5)
	  GROUP BY tile HAVING n > 150`)

	// Different tile size: the parameter changes the derived attribute's
	// signature, so the 0.5° view must NOT be reused for tiling — but the
	// cleaned-coordinate computation is shared structure the optimizer
	// pipelines; this runs from the raw log again.
	runQ("hot tiles (0.1 deg grid)", `
	  SELECT tile, COUNT(*) AS n FROM checkins
	  APPLY CLEAN_GEO(lat, lon) APPLY TILE(glat, glon, 0.1)
	  GROUP BY tile HAVING n > 10`)

	// Per-user mobility via a custom aggregate over the same cleaned data.
	// The group slice and its rows are likewise valid only inside Reduce.
	err = sys.RegisterAggUDF(opportune.AggUDF{
		Name: "SPREAD", Args: 3, Keys: []string{"user"}, KeyArgs: []int{0},
		Outputs: []string{"lat_spread"}, Weight: 4,
		Reduce: func(_ []any, group [][]any, _ []any) []any {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, g := range group {
				la := g[0].(float64)
				lo, hi = math.Min(lo, la), math.Max(hi, la)
			}
			return []any{hi - lo}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	runQ("per-user latitude spread", `
	  SELECT user, lat_spread FROM checkins
	  APPLY CLEAN_GEO(lat, lon) APPLY SPREAD(user, glat, glon)
	  WHERE lat_spread > 1.0`)

	fmt.Printf("\nopportunistic views now in the system: %d\n", len(sys.Views()))
}
