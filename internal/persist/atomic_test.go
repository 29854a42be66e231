package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"opportune/internal/session"
	"opportune/internal/storage"
	"opportune/internal/workload"
)

// dirState is what a save directory opens as: per dataset, its kind,
// annotation, statistics and contents.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	s, _, err := Open(dir, workload.CostParams())
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return sessionState(t, s)
}

func sessionState(t *testing.T, s *session.Session) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, name := range append(s.Store.List(storage.Base), s.Store.List(storage.View)...) {
		info, ok := s.Cat.Table(name)
		if !ok {
			continue // not saved
		}
		rel, err := s.Store.Read(name)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		out[name] = fmt.Sprintf("view=%v rows=%d fp=%x ann=%s stats=%+v", info.IsView, rel.Len(), rel.Fingerprint(), info.Ann.Canon(), info.Stats)
	}
	return out
}

// tableFiles lists the data files under dir/tables.
func tableFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, "tables"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	slices.Sort(names)
	return names
}

// catalogFiles lists the data files dir's catalog references.
func catalogFiles(t *testing.T, dir string) []string {
	t.Helper()
	var names []string
	for f := range savedFiles(dir) {
		names = append(names, f)
	}
	slices.Sort(names)
	return names
}

var errCrash = errors.New("crash")

// TestSaveIsCrashAtomic: a second save into a directory — after an append
// changed a base table and a query added views — that fails at its k-th
// write, for every k, leaves the directory opening as exactly the first
// save. The save that then runs to the end opens as the session, and only
// the files its catalog names are left.
func TestSaveIsCrashAtomic(t *testing.T) {
	defer func() { failWrite = nil }()
	s, err := workload.NewSession(workload.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Exec(s, workload.QueryFor(1, 1), session.ModeOriginal); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Save(s, dir); err != nil {
		t.Fatal(err)
	}
	first := dirState(t, dir)

	if _, err := s.AppendRows("twtr", workload.AppendBatch(workload.SmallScale(), 0, 50)); err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Exec(s, workload.QueryFor(2, 1), session.ModeOriginal); err != nil {
		t.Fatal(err)
	}
	want := sessionState(t, s)
	if maps.Equal(first, want) {
		t.Fatal("the session did not change between the saves")
	}

	// Count the writes of a whole save, into a directory of its own.
	writes := 0
	failWrite = func(string) error { writes++; return nil }
	if err := Save(s, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if writes < len(want)+2 {
		t.Fatalf("a save of %d datasets made %d writes, want one per dataset, the catalog and its rename", len(want), writes)
	}
	for k := 1; k <= writes; k++ {
		n := 0
		failWrite = func(string) error {
			if n++; n == k {
				return errCrash
			}
			return nil
		}
		if err := Save(s, dir); !errors.Is(err, errCrash) {
			t.Fatalf("save failing at write %d of %d: error %v, want the crash", k, writes, err)
		}
		failWrite = nil
		if got := dirState(t, dir); !maps.Equal(got, first) {
			t.Fatalf("after a save that failed at write %d of %d, the directory opens as\n%v\nwant the first save\n%v", k, writes, got, first)
		}
	}
	if err := Save(s, dir); err != nil {
		t.Fatal(err)
	}
	if got := dirState(t, dir); !maps.Equal(got, want) {
		t.Fatalf("the completed save opens as\n%v\nwant\n%v", got, want)
	}
	// Files of the failed saves that the final save rewrote are its own;
	// the first save's files are gone.
	if got, named := tableFiles(t, dir), catalogFiles(t, dir); !slices.Equal(got, named) {
		t.Errorf("tables/ holds %v, the catalog names %v", got, named)
	}
}

// TestOpenReadsUnnamedFiles: a catalog written before saves named their
// files (no "file" field; data in tables/<name>.tbl) still opens, and a save
// over it replaces those files.
func TestOpenReadsUnnamedFiles(t *testing.T) {
	s, err := workload.NewSession(workload.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Exec(s, workload.QueryFor(1, 1), session.ModeOriginal); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Save(s, dir); err != nil {
		t.Fatal(err)
	}
	want := dirState(t, dir)
	b, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cat catalogDTO
	if err := json.Unmarshal(b, &cat); err != nil {
		t.Fatal(err)
	}
	for i := range cat.Tables {
		tb := &cat.Tables[i]
		if err := os.Rename(filepath.Join(dir, "tables", tb.File), filepath.Join(dir, "tables", tb.Name+".tbl")); err != nil {
			t.Fatal(err)
		}
		tb.File = ""
	}
	if b, err = json.Marshal(cat); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "catalog.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := dirState(t, dir); !maps.Equal(got, want) {
		t.Fatalf("a catalog without file names opens as\n%v\nwant\n%v", got, want)
	}
	if err := Save(s, dir); err != nil {
		t.Fatal(err)
	}
	if got := dirState(t, dir); !maps.Equal(got, want) {
		t.Fatalf("the save over it opens as\n%v\nwant\n%v", got, want)
	}
	if got, named := tableFiles(t, dir), catalogFiles(t, dir); !slices.Equal(got, named) {
		t.Errorf("tables/ holds %v, the catalog names %v", got, named)
	}
}
