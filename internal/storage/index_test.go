package storage

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"opportune/internal/data"
	"opportune/internal/obs"
	"opportune/internal/value"
)

// keyed builds a (k, v) relation from keys; a nil key is a null.
func keyed(keys ...any) *data.Relation {
	r := data.NewRelation(data.NewSchema("k", "v"))
	for i, k := range keys {
		kv := value.NullV
		if k != nil {
			kv = value.NewInt(int64(k.(int)))
		}
		r.Append(data.Row{kv, value.NewInt(int64(i))})
	}
	return r
}

// stored is the handle on the version the store holds under name.
func stored(s *Store, name string) *Dataset {
	d, _ := s.Meta(name)
	return d
}

func keyOf(k int) string {
	var enc data.KeyEncoder
	return enc.KeyOf(value.NewInt(int64(k)))
}

func TestIndexLookup(t *testing.T) {
	s := NewStore()
	r := keyed(3, 1, nil, 3, 2, 3, nil)
	d := s.Put("t", Base, r)
	ix, built, err := s.Index(d, "k")
	if err != nil || !built {
		t.Fatalf("first open: built=%v err=%v", built, err)
	}
	pos, bytes := ix.Lookup(keyOf(3))
	if !slices.Equal(pos, []int32{0, 3, 5}) {
		t.Errorf("positions of key 3 = %v, want [0 3 5]", pos)
	}
	var want int64
	for _, p := range pos {
		want += int64(r.Row(int(p)).EncodedSize())
		if ix.Row(p)[0].Int() != 3 {
			t.Errorf("row %d = %v", p, ix.Row(p))
		}
	}
	if bytes != want {
		t.Errorf("key 3 serves %d B, its rows hold %d B", bytes, want)
	}
	if pos, bytes := ix.Lookup(keyOf(9)); pos != nil || bytes != 0 {
		t.Errorf("absent key: %v, %d B", pos, bytes)
	}
	var enc data.KeyEncoder
	if pos, _ := ix.Lookup(enc.KeyOf(value.NullV)); pos != nil {
		t.Errorf("null key matched rows %v: nulls never join", pos)
	}
	if ix.Len() != r.Len() || ix.Bytes() != r.EncodedSize() {
		t.Errorf("index covers %d rows / %d B, relation %d / %d", ix.Len(), ix.Bytes(), r.Len(), r.EncodedSize())
	}
	if _, _, err := s.Index(d, "nope"); err == nil {
		t.Error("an index on a missing column opened")
	}
}

// TestIndexBuildCountsOneRead: the build is one read of the whole dataset;
// reopening a built index reads nothing, and probes count what they match.
func TestIndexBuildCountsOneRead(t *testing.T) {
	s := NewStore()
	reg := obs.NewRegistry()
	s.SetObs(reg)
	d := s.Put("t", Base, keyed(1, 2, 2))
	before := s.Counters()
	for i := 0; i < 3; i++ {
		if _, built, err := s.Index(d, "k"); err != nil || built != (i == 0) {
			t.Fatalf("open %d: built=%v err=%v", i, built, err)
		}
	}
	s.CountProbe(40)
	got := s.Counters()
	if got.BytesRead-before.BytesRead != d.SizeBytes+40 || got.ReadOps-before.ReadOps != 1 {
		t.Errorf("counters moved by %d B / %d ops, want %d B / 1 op",
			got.BytesRead-before.BytesRead, got.ReadOps-before.ReadOps, d.SizeBytes+40)
	}
	snap := reg.Snapshot()
	if snap.Counters["storage_index_builds_total"] != 1 {
		t.Errorf("storage_index_builds_total = %d, want 1", snap.Counters["storage_index_builds_total"])
	}
	if snap.Counters["storage_read_bytes_total"] != got.BytesRead {
		t.Errorf("storage_read_bytes_total = %d, counters say %d", snap.Counters["storage_read_bytes_total"], got.BytesRead)
	}
	if cols := d.Indexes(); len(cols) != 1 || cols["k"] != 3 {
		t.Errorf("Indexes() = %v, want k over 3 rows", cols)
	}
}

// TestIndexDroppedWithItsBytes: Put and Refresh install new bytes, so the
// next open of the stored version builds over them, while a handle on the
// old version keeps the index it built.
func TestIndexDroppedWithItsBytes(t *testing.T) {
	s := NewStore()
	old := s.Put("t", Base, keyed(1))
	if _, _, err := s.Index(old, "k"); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		name string
		do   func() error
		rows int
	}{
		{"Put", func() error { s.Put("t", Base, keyed(1, 1)); return nil }, 2},
		{"Refresh", func() error { _, err := s.Refresh("t", keyed(1, 1, 1)); return err }, 3},
	} {
		if err := step.do(); err != nil {
			t.Fatal(err)
		}
		ix, built, err := s.Index(stored(s, "t"), "k")
		if err != nil || !built {
			t.Fatalf("after %s: built=%v err=%v; the old index survived", step.name, built, err)
		}
		if pos, _ := ix.Lookup(keyOf(1)); len(pos) != step.rows {
			t.Errorf("after %s: key 1 matches %d rows, want %d", step.name, len(pos), step.rows)
		}
	}
	s.Delete("t")
	if _, built, err := s.Index(old, "k"); err != nil || built {
		t.Errorf("reopening the old version's index: built=%v err=%v; want its own index", built, err)
	}
}

// failReads fails the first n reads of every dataset.
type failReads struct{ n int }

func (f *failReads) ReadError(string) error {
	if f.n == 0 {
		return nil
	}
	f.n--
	return errors.New("scripted read failure")
}

// TestIndexOpenIsARead: read faults fail an index open exactly like a Read —
// before anything is built, served or counted.
func TestIndexOpenIsARead(t *testing.T) {
	s := NewStore()
	s.Put("t", Base, keyed(1, 2))
	s.SetFaults(&failReads{n: 1})
	before := s.Counters()
	if _, _, err := s.Index(stored(s, "t"), "k"); err == nil {
		t.Fatal("the scripted fault did not fail the open")
	}
	if s.Counters() != before {
		t.Errorf("a failed open counted I/O: %+v -> %+v", before, s.Counters())
	}
	if _, built, err := s.Index(stored(s, "t"), "k"); err != nil || !built {
		t.Errorf("open after the fault: built=%v err=%v", built, err)
	}
}

// TestIndexConcurrentProbes opens one index from many goroutines and probes
// it from all of them (run under -race): one build, one read, every lookup
// answered from the shared index.
func TestIndexConcurrentProbes(t *testing.T) {
	s := NewStore()
	keys := make([]any, 600)
	for i := range keys {
		keys[i] = i % 40
	}
	d := s.Put("t", Base, keyed(keys...))
	before := s.Counters()
	const goroutines = 8
	var builds sync.WaitGroup
	var mu sync.Mutex
	built := 0
	builds.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer builds.Done()
			ix, fresh, err := s.Index(d, "k")
			if err != nil {
				t.Error(err)
				return
			}
			if fresh {
				mu.Lock()
				built++
				mu.Unlock()
			}
			for k := 0; k < 40; k++ {
				pos, _ := ix.Lookup(keyOf(k))
				if len(pos) != 15 {
					t.Errorf("key %d matches %d rows, want 15", k, len(pos))
				}
				for _, p := range pos {
					if ix.Row(p)[0].Int() != int64(k) {
						t.Errorf("key %d matched row %v", k, ix.Row(p))
					}
				}
			}
		}()
	}
	builds.Wait()
	if built != 1 {
		t.Errorf("%d opens built the index, want 1", built)
	}
	if got := s.Counters(); got.BytesRead-before.BytesRead != d.SizeBytes || got.ReadOps-before.ReadOps != 1 {
		t.Errorf("concurrent opens read %d B in %d ops, want one read of %d B",
			got.BytesRead-before.BytesRead, got.ReadOps-before.ReadOps, d.SizeBytes)
	}
}

// indexRef is the per-row reference build: every row's key encoded and
// appended to its own postings.
func indexRef(rel *data.Relation, c int) map[string]postings {
	ref := make(map[string]postings)
	var enc data.KeyEncoder
	for i, r := range rel.Rows() {
		if r[c].IsNull() {
			continue
		}
		k := enc.KeyOf(r[c])
		p := ref[k]
		p.pos = append(p.pos, int32(i))
		p.bytes += int64(r.EncodedSize())
		ref[k] = p
	}
	return ref
}

// TestIndexMatchesPerRowBuild requires the one-pass build to give the
// per-row reference's postings and bytes for every key — Int, Str and
// other kinds mixed in one column, nulls, duplicates, an empty relation —
// and to allocate at most one string per distinct key plus a constant.
// Measured on "big" (7 000 rows, 400 keys): 439 allocations, 8 910 for the
// per-row reference.
func TestIndexMatchesPerRowBuild(t *testing.T) {
	mixed := data.NewRelation(data.NewSchema("k", "pad"))
	keys := []value.V{value.NewInt(1), value.NewStr("1"), value.NullV, value.NewInt(0), value.NewStr(""),
		value.NewFloat(1), value.NewBool(true), value.NewInt(-7), value.NewStr("a longer key")}
	for i := 0; i < 200; i++ {
		mixed.Append(data.Row{keys[(i*i+3*i)%len(keys)], value.NewStr(strings.Repeat("x", i%5))})
	}
	big := data.NewRelation(data.NewSchema("k", "pad"))
	for i := 0; i < 7000; i++ {
		k := value.NewInt(int64(i*7919) % 400)
		if i%97 == 0 {
			k = value.NullV
		}
		big.Append(data.Row{k, value.NewStr("pad")})
	}
	for name, rel := range map[string]*data.Relation{
		"mixed": mixed, "dups": keyed(3, 1, nil, 3, 2, 3, nil, 1), "nulls": keyed(nil, nil),
		"empty": keyed(), "big": big,
	} {
		ix, err := buildIndex(rel, "k")
		if err != nil {
			t.Fatal(err)
		}
		ref := indexRef(rel, 0)
		if len(ix.ids) != len(ref) {
			t.Errorf("%s: %d keys indexed, reference %d", name, len(ix.ids), len(ref))
		}
		for k, want := range ref {
			if pos, bytes := ix.Lookup(k); !slices.Equal(pos, want.pos) || bytes != want.bytes {
				t.Errorf("%s: key %q: %v / %d B, reference %v / %d B", name, k, pos, bytes, want.pos, want.bytes)
			}
		}
		if raceEnabled {
			continue // the race detector's instrumentation allocates
		}
		allocs := testing.AllocsPerRun(5, func() { buildIndex(rel, "k") })
		if limit := float64(len(ref) + 48); allocs > limit {
			t.Errorf("%s: a build allocates %.0f times for %d distinct keys, limit %.0f", name, allocs, len(ref), limit)
		}
	}
}
