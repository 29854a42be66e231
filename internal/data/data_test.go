package data

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"opportune/internal/value"
)

func mkRel(t *testing.T) *Relation {
	t.Helper()
	rel := NewRelation(NewSchema("id", "name", "score"))
	rel.Append(Row{value.NewInt(3), value.NewStr("c"), value.NewFloat(0.5)})
	rel.Append(Row{value.NewInt(1), value.NewStr("a"), value.NewFloat(0.9)})
	rel.Append(Row{value.NewInt(2), value.NewStr("b"), value.NewFloat(0.1)})
	rel.Append(Row{value.NewInt(1), value.NewStr("a2"), value.NewFloat(0.7)})
	return rel
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema("a", "b", "c")
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Col(1) != "b" {
		t.Errorf("Col(1) = %q", s.Col(1))
	}
	if i, ok := s.Index("c"); !ok || i != 2 {
		t.Errorf("Index(c) = %d,%v", i, ok)
	}
	if _, ok := s.Index("z"); ok {
		t.Error("Index(z) found")
	}
	if !s.Has("a") || s.Has("z") {
		t.Error("Has wrong")
	}
	if s.String() != "(a, b, c)" {
		t.Errorf("String = %q", s.String())
	}
	p := s.Project("c", "a")
	if p.Len() != 2 || p.Col(0) != "c" || p.Col(1) != "a" {
		t.Errorf("Project = %v", p)
	}
	if !s.Equal(NewSchema("a", "b", "c")) {
		t.Error("Equal false for same schema")
	}
	if s.Equal(NewSchema("a", "c", "b")) {
		t.Error("Equal true for reordered schema")
	}
	if s.Equal(NewSchema("a", "b")) {
		t.Error("Equal true for shorter schema")
	}
}

func TestSchemaPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("dup columns", func() { NewSchema("a", "a") })
	s := NewSchema("a")
	mustPanic("MustIndex missing", func() { s.MustIndex("z") })
	mustPanic("Project missing", func() { s.Project("z") })
}

func TestRelationAppendAndGet(t *testing.T) {
	rel := mkRel(t)
	if rel.Len() != 4 {
		t.Fatalf("Len = %d", rel.Len())
	}
	if got := rel.Get(0, "name"); got.Str() != "c" {
		t.Errorf("Get(0,name) = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("width-mismatched Append did not panic")
		}
	}()
	rel.Append(Row{value.NewInt(1)})
}

// SortBy sorts rows in place by the named columns ascending (value.Compare
// order), stably: the tests' way to reorder a relation.
func (rel *Relation) SortBy(cols ...string) {
	idxs := make([]int, len(cols))
	for i, c := range cols {
		idxs[i] = rel.schema.MustIndex(c)
	}
	sort.SliceStable(rel.rows, func(a, b int) bool {
		for _, ix := range idxs {
			c := value.Compare(rel.rows[a][ix], rel.rows[b][ix])
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
}

func TestSortBy(t *testing.T) {
	rel := mkRel(t)
	rel.SortBy("id", "name")
	ids := []int64{1, 1, 2, 3}
	names := []string{"a", "a2", "b", "c"}
	for i := range ids {
		if rel.Get(i, "id").Int() != ids[i] || rel.Get(i, "name").Str() != names[i] {
			t.Fatalf("row %d = %v", i, rel.Row(i))
		}
	}
}

func TestGroupBy(t *testing.T) {
	rel := mkRel(t)
	groups, order := rel.GroupBy("id")
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	if len(order) != 3 {
		t.Fatalf("order = %d", len(order))
	}
	// id=1 appears in rows 1 and 3
	found := false
	for _, idxs := range groups {
		if len(idxs) == 2 {
			found = true
			if rel.Get(idxs[0], "id").Int() != 1 || rel.Get(idxs[1], "id").Int() != 1 {
				t.Error("two-row group is not id=1")
			}
		}
	}
	if !found {
		t.Error("no group of size 2")
	}
}

func TestDistinctCount(t *testing.T) {
	rel := mkRel(t)
	if got := rel.DistinctCount("id"); got != 3 {
		t.Errorf("DistinctCount(id) = %d", got)
	}
	if got := rel.DistinctCount("name"); got != 4 {
		t.Errorf("DistinctCount(name) = %d", got)
	}
}

func TestEncodedSize(t *testing.T) {
	rel := NewRelation(NewSchema("a"))
	rel.Append(Row{value.NewInt(1)})
	rel.Append(Row{value.NewStr("xy")})
	want := int64((4 + 9) + (4 + 1 + 4 + 2))
	if got := rel.EncodedSize(); got != want {
		t.Errorf("EncodedSize = %d, want %d", got, want)
	}
}

func TestFingerprintOrderIndependent(t *testing.T) {
	a := mkRel(t)
	b := mkRel(t)
	b.SortBy("score")
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprint changed under reorder")
	}
	c := mkRel(t)
	c.Append(Row{value.NewInt(5), value.NewStr("e"), value.NewFloat(0)})
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("fingerprint identical despite extra row")
	}
}

func TestKeyDistinguishesGroups(t *testing.T) {
	// Property: rows differing in a keyed column yield different keys.
	f := func(x, y int64) bool {
		r1 := Row{value.NewInt(x)}
		r2 := Row{value.NewInt(y)}
		k1, k2 := Key(r1, []int{0}), Key(r2, []int{0})
		return (x == y) == (k1 == k2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyMultiColumnNoConcatCollision(t *testing.T) {
	// ("ab","c") must not collide with ("a","bc").
	r1 := Row{value.NewStr("ab"), value.NewStr("c")}
	r2 := Row{value.NewStr("a"), value.NewStr("bc")}
	if Key(r1, []int{0, 1}) == Key(r2, []int{0, 1}) {
		t.Error("multi-column key collision")
	}
}

func TestRowClone(t *testing.T) {
	r := Row{value.NewInt(1), value.NewStr("a")}
	c := r.Clone()
	c[0] = value.NewInt(2)
	if r[0].Int() != 1 {
		t.Error("Clone aliases original")
	}
}

// walkSize is the reference EncodedSize: the full walk the relation used to
// do on every call, kept here as the oracle for the size it now carries.
func walkSize(rel *Relation) int64 {
	var n int64
	for _, r := range rel.Rows() {
		n += 4
		for _, v := range r {
			n += int64(v.EncodedSize())
		}
	}
	return n
}

// TestEncodedSizeInvariant drives random mutator sequences and checks after
// every step that the carried size equals a fresh walk; then hands the
// relation to concurrent readers, which is how stored relations are used
// (built by one goroutine, read by many) — under -race this pins that
// EncodedSize is a plain read.
func TestEncodedSizeInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	schema := NewSchema("a", "b", "c")
	randRow := func() Row {
		r := make(Row, 3)
		for i := range r {
			switch rng.Intn(5) {
			case 0:
				r[i] = value.NullV
			case 1:
				r[i] = value.NewInt(rng.Int63())
			case 2:
				r[i] = value.NewFloat(rng.NormFloat64())
			case 3:
				r[i] = value.NewBool(rng.Intn(2) == 0)
			default:
				r[i] = value.NewStr(strings.Repeat("x", rng.Intn(20)))
			}
		}
		return r
	}
	randRel := func(n int) *Relation {
		rel := NewRelation(schema)
		for i := 0; i < n; i++ {
			rel.Append(randRow())
		}
		return rel
	}
	for seq := 0; seq < 50; seq++ {
		rel := NewRelation(schema)
		for step := 0; step < 40; step++ {
			switch op := rng.Intn(6); op {
			case 0:
				rel.Append(randRow())
			case 1:
				rel = rel.Extend(randRel(rng.Intn(6)).Rows())
			case 2:
				run := randRel(rng.Intn(6))
				rel.AppendSized(run.Rows(), walkSize(run))
			case 3:
				rel.AppendSized(nil, 0)
			case 4:
				rel.Grow(rng.Intn(64))
			case 5:
				rel.SortBy("a", "c")
			}
			if got, want := rel.EncodedSize(), walkSize(rel); got != want {
				t.Fatalf("seq %d step %d: carried size %d, walk %d", seq, step, got, want)
			}
		}
		want := walkSize(rel)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if got := rel.EncodedSize(); got != want || walkSize(rel) != want {
						t.Errorf("concurrent reader saw size %d, want %d", got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

func TestAppendSizedChecksWidth(t *testing.T) {
	rel := NewRelation(NewSchema("a", "b"))
	defer func() {
		if recover() == nil {
			t.Error("AppendSized accepted a row of the wrong width")
		}
	}()
	rel.AppendSized([]Row{{value.NewInt(1), value.NewInt(2)}, {value.NewInt(3)}}, 0)
}

// idRows builds n one-column rows numbered from base.
func idRows(base, n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{value.NewInt(int64(base + i))}
	}
	return rows
}

// idsErr reports how rel differs from holding exactly the ids 0..n-1 in
// order with the carried size a walk gives, or "".
func idsErr(rel *Relation, n int) string {
	if rel.Len() != n {
		return fmt.Sprintf("%d rows, want %d", rel.Len(), n)
	}
	var walk int64
	for i, r := range rel.Rows() {
		if r[0].Int() != int64(i) {
			return fmt.Sprintf("row %d holds id %d", i, r[0].Int())
		}
		walk += int64(r.EncodedSize())
	}
	if rel.EncodedSize() != walk {
		return fmt.Sprintf("carries %d B, a walk says %d B", rel.EncodedSize(), walk)
	}
	return ""
}

func checkIDs(t *testing.T, what string, rel *Relation, n int) {
	t.Helper()
	if msg := idsErr(rel, n); msg != "" {
		t.Fatalf("%s: %s", what, msg)
	}
}

// TestRelationExtend: Extend leaves the relation it extends as it was, and
// only the first Extend of a relation shares its spare capacity — a second
// Extend of the same relation must copy, or it would overwrite the rows the
// first one put there.
func TestRelationExtend(t *testing.T) {
	base := NewRelation(NewSchema("id")).Extend(idRows(0, 4)) // copies: cap 8
	grown := base.Extend(idRows(4, 2))                        // shares base's array
	checkIDs(t, "snapshot after Extend", base, 4)
	checkIDs(t, "extension", grown, 6)
	if &grown.Rows()[0] != &base.Rows()[0] {
		t.Error("the first Extend with spare capacity copied")
	}

	// A second Extend of base: the tail past base's rows is grown's.
	other := base.Extend([]Row{{value.NewInt(99)}})
	checkIDs(t, "first extension after a second Extend of its base", grown, 6)
	if &other.Rows()[0] == &base.Rows()[0] {
		t.Error("a second Extend of one relation shared its array")
	}
	if other.Len() != 5 || other.Row(4)[0].Int() != 99 {
		t.Errorf("second extension = %v", other.Rows())
	}
	// Chained Extends keep sharing while capacity lasts.
	chained := grown.Extend(idRows(6, 2))
	checkIDs(t, "chained extension", chained, 8)
	checkIDs(t, "its base", grown, 6)

	if got := base.Rows(); cap(got) != len(got) {
		t.Errorf("Rows() exposes %d spare slots an Extend may own", cap(got)-len(got))
	}
	defer func() {
		if recover() == nil {
			t.Error("a row of the wrong width was accepted")
		}
	}()
	base.Extend([]Row{{value.NewInt(1), value.NewInt(2)}})
}

// TestRelationExtendConcurrentReader runs a reader of every published
// relation beside the appender that keeps extending it (run under -race):
// each snapshot keeps exactly its rows while later extensions write into
// the array it shares.
func TestRelationExtendConcurrentReader(t *testing.T) {
	const appends, batch = 40, 7
	published := make(chan *Relation)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var seen []*Relation
		for rel := range published {
			seen = append(seen, rel)
			for _, snap := range seen {
				if msg := idsErr(snap, snap.Len()); msg != "" {
					t.Errorf("snapshot of %d rows: %s", snap.Len(), msg)
					return
				}
			}
		}
	}()
	rel := NewRelation(NewSchema("id")).Extend(idRows(0, batch))
	for i := 1; i <= appends; i++ {
		published <- rel
		rel = rel.Extend(idRows(i*batch, batch))
	}
	close(published)
	<-done
	checkIDs(t, "final relation", rel, (appends+1)*batch)
}

// Col returns the name of column i.
func (s *Schema) Col(i int) string { return s.cols[i] }

// GroupBy partitions rows by the values of the named columns, returning a
// map from group key to row indexes, plus the ordered list of keys (order of
// first appearance, for determinism).
func (rel *Relation) GroupBy(cols ...string) (map[string][]int, []string) {
	idxs := make([]int, len(cols))
	for i, c := range cols {
		idxs[i] = rel.schema.MustIndex(c)
	}
	groups := make(map[string][]int)
	var order []string
	var enc KeyEncoder
	for i, r := range rel.rows {
		k := enc.Key(r, idxs)
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	return groups, order
}
