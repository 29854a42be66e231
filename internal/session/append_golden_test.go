package session_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"opportune/internal/cost"
	"opportune/internal/session"
	"opportune/internal/storage"
	"opportune/internal/workload"
)

// appendEpoch is what one AppendRows of the golden script must reproduce
// bit for bit: the report (view order, reasons, both sim-second sums as
// IEEE bits), every catalog table's statistics, and every stored view's
// contents.
type appendEpoch struct {
	Maintained      []string            `json:"maintained"`
	Invalidated     []string            `json:"invalidated"`
	Reasons         map[string]string   `json:"reasons"`
	MaintainBits    uint64              `json:"maintain_bits"`
	StatsBits       uint64              `json:"stats_bits"`
	Tables          map[string]tableSum `json:"tables"`
	ViewFingerprint map[string]string   `json:"view_fingerprints"`
}

type tableSum struct {
	Stats    cost.Stats       `json:"stats"`
	Distinct map[string]int64 `json:"distinct"`
}

// appendScript runs the ingest shape at SmallScale: the four ingest views,
// then ten epochs of 200 appended tweets, each followed by the four queries
// under BFREWRITE. It records each append's outcome.
func appendScript(t *testing.T, workers int) []appendEpoch {
	t.Helper()
	sc := workload.SmallScale()
	s, err := workload.NewSession(sc)
	if err != nil {
		t.Fatal(err)
	}
	s.Eng.Workers = workers
	qs := workload.IngestQueries()
	for _, q := range qs {
		if _, err := workload.Exec(s, q, session.ModeBFR); err != nil {
			t.Fatal(err)
		}
	}
	var out []appendEpoch
	for epoch := 0; epoch < 10; epoch++ {
		rep, err := s.AppendRows("twtr", workload.AppendBatch(sc, epoch, 200))
		if err != nil {
			t.Fatal(err)
		}
		e := appendEpoch{
			Maintained: rep.Maintained, Invalidated: rep.Invalidated, Reasons: rep.Reasons,
			MaintainBits: math.Float64bits(rep.MaintainSeconds), StatsBits: math.Float64bits(rep.StatsSeconds),
			Tables: make(map[string]tableSum), ViewFingerprint: make(map[string]string),
		}
		for _, name := range s.Store.List(storage.Base) {
			info, ok := s.Cat.Table(name)
			if !ok {
				t.Fatalf("stored base %s is not in the catalog", name)
			}
			e.Tables[name] = tableSum{info.Stats, info.Distinct}
		}
		for _, info := range s.Cat.Views() {
			e.Tables[info.Name] = tableSum{info.Stats, info.Distinct}
			rel, err := s.Store.Read(info.Name)
			if err != nil {
				t.Fatal(err)
			}
			e.ViewFingerprint[info.Name] = fmt.Sprintf("%016x", rel.Fingerprint())
		}
		out = append(out, e)
		for _, q := range qs {
			if _, err := workload.Exec(s, q, session.ModeBFR); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// TestAppendGolden pins what ten ingest appends report and leave behind —
// view order, reasons, sim-second bits, statistics and view contents — at
// one worker and at four: how maintenance is scheduled must not move any
// of it. A missing golden is written from the run and the test fails once.
func TestAppendGolden(t *testing.T) {
	const path = "testdata/append_golden.json"
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("W%d", workers), func(t *testing.T) {
			got, err := json.MarshalIndent(appendScript(t, workers), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			want, err := os.ReadFile(path)
			if os.IsNotExist(err) {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Fatalf("%s was missing: wrote it from this run; review and commit it", path)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("appends diverged from %s\n got %s", path, got)
			}
		})
	}
}
