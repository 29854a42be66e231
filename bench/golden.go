package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
)

// goldenSeed is the one seed whose rewrite-off reference fingerprints are
// committed: a reference computed by the engine under test cannot catch an
// engine-wide wrong answer, a committed one can.
const goldenSeed = 42

//go:embed golden/seed42.json
var goldenJSON []byte

// golden maps a reference group ("queries" for the three query workloads,
// "ingest") to operation key to fingerprint in hex.
type golden map[string]map[string]string

func goldenGroup(workload string) string {
	if workload == "ingest" {
		return "ingest"
	}
	return "queries"
}

func checkGolden(workload string, want map[string]uint64) error {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return fmt.Errorf("golden/seed42.json: %w", err)
	}
	group := g[goldenGroup(workload)]
	var bad []string
	for key, fp := range want {
		if group[key] != fmt.Sprintf("%016x", fp) {
			bad = append(bad, key)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("rewrite-off reference differs from golden/seed42.json on %v: the engine's answers changed", bad)
	}
	return nil
}

// writeGolden recomputes both reference groups at seed 42, full scale, with
// every query in the script.
func writeGolden() error {
	g := make(golden)
	for _, w := range []string{"evolve", "ingest"} {
		sc := scaleOf(w, goldenSeed, false)
		r, err := newRunner(w, sc, nil, true)
		if err != nil {
			return err
		}
		want, err := r.reference()
		if err != nil {
			return err
		}
		group := make(map[string]string, len(want))
		for key, fp := range want {
			group[key] = fmt.Sprintf("%016x", fp)
		}
		g[goldenGroup(w)] = group
	}
	return writeJSON(filepath.Join(benchDir(), "golden", "seed42.json"), g)
}
