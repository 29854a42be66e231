package meta

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"opportune/internal/afk"
	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/mr"
	"opportune/internal/plan"
	"opportune/internal/storage"
	"opportune/internal/udf"
	"opportune/internal/value"
)

func TestRegisterBaseAndFDs(t *testing.T) {
	c := NewCatalog()
	info := c.RegisterBase("twtr", []string{"tweet_id", "user_id", "text"}, "tweet_id",
		cost.Stats{Rows: 10, Bytes: 100}, map[string]int64{"user_id": 5})
	if info.Name != "twtr" || info.IsView {
		t.Errorf("info = %+v", info)
	}
	if info.DistinctOf("user_id") != 5 || info.DistinctOf("text") != 0 {
		t.Error("Distinct hints wrong")
	}
	// record key FDs installed
	if !c.FDs.Determines([]string{"b:twtr.tweet_id"}, "b:twtr.user_id") {
		t.Error("key FD missing")
	}
	got, ok := c.Table("twtr")
	if !ok || got != info {
		t.Error("Table lookup failed")
	}
	if _, ok := c.Table("x"); ok {
		t.Error("found missing table")
	}
	// no key column: no FDs, no panic
	before := c.FDs.Len()
	c.RegisterBase("nokey", []string{"a"}, "", cost.Stats{}, nil)
	if c.FDs.Len() != before {
		t.Error("keyless base added FDs")
	}
	// A layout and a delta mark publish copy-on-write, like statistics:
	// the pointer handed out keeps its snapshot.
	c.SetPartitioning("twtr", afk.Partitioning{Sigs: []string{info.Ann.MustSig("user_id").ID()}, Parts: 4})
	c.MarkDelta("twtr")
	if got, _ := c.Table("twtr"); got == info || got.Part.Parts != 4 || !got.Delta {
		t.Errorf("layout and delta mark not published: %+v", got)
	}
	if info.Part.Parts != 0 || info.Delta {
		t.Errorf("published snapshot mutated: %+v", info)
	}
}

func TestViews(t *testing.T) {
	c := NewCatalog()
	base := c.RegisterBase("twtr", []string{"a"}, "", cost.Stats{}, nil)
	view(c, "v2", base.Ann, cost.Stats{Rows: 1})
	view(c, "v1", base.Ann, cost.Stats{Rows: 2})
	vs := c.Views()
	if len(vs) != 2 || vs[0].Name != "v1" {
		t.Errorf("Views = %v", vs)
	}
	c.DropView("v1")
	c.DropView("twtr") // must not drop base
	c.MarkDelta("v2")  // must not mark a view
	if vs := c.Views(); len(vs) != 1 || vs[0].Delta {
		t.Errorf("DropView or MarkDelta wrong: %+v", vs)
	}
	if _, ok := c.Table("twtr"); !ok {
		t.Error("DropView removed base")
	}
	c.Forget("v2")
	if vs := c.Views(); len(vs) != 0 {
		t.Errorf("Forget left %+v", vs)
	}
	// Registering a view under a name listed with another annotation
	// replaces the entry and its place in the annotation index; under the
	// same annotation, the listed entry stays.
	old := view(c, "v", base.Ann, cost.Stats{})
	other := c.RegisterBase("b2", []string{"a"}, "", cost.Stats{}, nil)
	view(c, "v", other.Ann, cost.Stats{})
	if got, ok := c.ByAnnotation(old.Canon()); ok {
		t.Errorf("the replaced view %s is still indexed under its old annotation", got.Name)
	}
	if got, ok := c.ByAnnotation(other.Canon()); !ok || got.Name != "v" || got.Canon() != other.Ann.Canon() {
		t.Errorf("ByAnnotation(new) = %+v, %v", got, ok)
	}
	cur, _ := c.Table("v")
	if again, added := c.RegisterView(TableInfo{Name: "v", Ann: other.Ann, Stats: cost.Stats{Rows: 9}}, c.Epoch()); again != cur || added {
		t.Errorf("re-registering under the listed annotation: %+v, added %v; want the listed %+v", again, added, cur)
	}
	// The layout, distinct counts and producing plan publish with the entry.
	pl := plan.Scan("twtr")
	part := afk.Partitioning{Sigs: []string{base.Ann.MustSig("a").ID()}, Parts: 4}
	w, added := c.RegisterView(TableInfo{Name: "w", Cols: []string{"a"}, Ann: base.Ann,
		Part: part, Distinct: map[string]int64{"a": 3}, Plan: pl}, c.Epoch())
	if got, _ := c.Table("w"); !added || got != w || !w.IsView || w.Plan != pl || !w.Part.Equal(part) || w.DistinctOf("a") != 3 {
		t.Errorf("registered entry %+v (added %v) does not carry its layout, distinct counts and plan", w, added)
	}
}

// view registers a one-column view under the current epoch.
func view(c *Catalog, name string, ann afk.Annotation, stats cost.Stats) *TableInfo {
	info, _ := c.RegisterView(TableInfo{Name: name, Cols: []string{"a"}, Ann: ann, Stats: stats}, c.Epoch())
	return info
}

// TestRegisterViewRefusesStaleEpoch: once an append has begun, work
// planned under an earlier epoch registers nothing, and every view whose
// registration was accepted is in the list the append reads next — the
// step an append's maintenance relies on to see every view it must
// maintain or invalidate.
func TestRegisterViewRefusesStaleEpoch(t *testing.T) {
	c := NewCatalog()
	base := c.RegisterBase("b", []string{"a"}, "", cost.Stats{}, nil)
	planned := c.Epoch()
	if e := c.BeginAppend(); e != planned+1 || c.Epoch() != e {
		t.Fatalf("BeginAppend = %d, Epoch = %d; want %d", e, c.Epoch(), planned+1)
	}
	if info, added := c.RegisterView(TableInfo{Name: "v", Cols: []string{"a"}, Ann: base.Ann}, planned); info != nil || added {
		t.Errorf("stale registration accepted: %+v", info)
	}
	if _, ok := c.Table("v"); ok || len(c.Views()) != 0 {
		t.Error("stale registration listed")
	}

	const writers, perWriter = 4, 200
	planned = c.Epoch()
	var wg sync.WaitGroup
	accepted := make([][]string, writers)
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWriter {
				name := fmt.Sprintf("v%d_%d", w, i)
				if info, _ := c.RegisterView(TableInfo{Name: name, Cols: []string{"a"}, Ann: base.Ann}, planned); info != nil {
					accepted[w] = append(accepted[w], name)
				}
			}
		}()
	}
	for len(c.Views()) == 0 {
		runtime.Gosched() // let some registrations land before the append
	}
	c.BeginAppend()
	listed := map[string]bool{}
	for _, v := range c.Views() {
		listed[v.Name] = true
	}
	wg.Wait()
	n := 0
	for _, names := range accepted {
		for _, name := range names {
			n++
			if !listed[name] {
				t.Errorf("%s registered before the append began but missing from its view list", name)
			}
		}
	}
	if n != len(listed) || len(c.Views()) != n {
		t.Errorf("%d registrations accepted, %d listed at the append, %d listed now", n, len(listed), len(c.Views()))
	}
}

// TestForget: wired to a store's OnRemove, Forget unlists every dataset the
// store removes — evicted, deleted or dropped, view or base — and only those.
func TestForget(t *testing.T) {
	c := NewCatalog()
	st := storage.NewStore()
	st.OnRemove = c.Forget
	rel := data.NewRelation(data.NewSchema("a"))
	rel.Append(data.Row{value.NewInt(1)})
	base := c.RegisterBase("b", []string{"a"}, "", cost.Stats{}, nil)
	st.Put("b", storage.Base, rel)
	for _, name := range []string{"v1", "v2", "v3", "v4"} {
		st.Put(name, storage.View, rel)
		view(c, name, base.Ann, cost.Stats{})
	}
	st.ViewCapacityBytes = 3 * rel.EncodedSize()
	st.EnforceBudget() // evicts v1
	st.ViewCapacityBytes = 0
	st.Delete("v2")
	st.DropViews()
	st.Put("v5", storage.View, rel) // bytes without an entry stay unlisted
	if vs := c.Views(); len(vs) != 0 {
		t.Errorf("views the store removed are still listed: %v", vs)
	}
	st.Delete("b")
	if _, ok := c.Table("b"); ok {
		t.Error("the deleted base table is still listed")
	}
}

func TestCollectStats(t *testing.T) {
	c := NewCatalog()
	st := storage.NewStore()
	rel := data.NewRelation(data.NewSchema("user_id", "score"))
	for i := 0; i < 5000; i++ {
		rel.Append(data.Row{value.NewInt(int64(i % 40)), value.NewFloat(float64(i))})
	}
	st.Put("v", storage.View, rel)
	base := c.RegisterBase("b", []string{"user_id", "score"}, "", cost.Stats{}, nil)
	stale, _ := c.RegisterView(TableInfo{Name: "v", Cols: []string{"user_id", "score"}, Ann: base.Ann}, c.Epoch())
	eng := mr.New(st, cost.DefaultParams())

	overhead, err := c.CollectStats(eng, "v", 11)
	if err != nil {
		t.Fatal(err)
	}
	// Stats install copy-on-write: previously handed-out pointers keep
	// their pre-stats snapshot; the catalog serves the updated info.
	if stale.Stats.Rows != 0 {
		t.Errorf("stale snapshot mutated: %+v", stale.Stats)
	}
	info, ok := c.Table("v")
	if !ok {
		t.Fatal("view vanished from catalog")
	}
	if overhead <= 0 {
		t.Error("no overhead charged")
	}
	// exact bytes
	if info.Stats.Bytes != rel.EncodedSize() {
		t.Errorf("Bytes = %d, want %d", info.Stats.Bytes, rel.EncodedSize())
	}
	// estimated rows within 3x of truth (1% sample of 5000 is noisy but sane)
	if info.Stats.Rows < 1500 || info.Stats.Rows > 15000 {
		t.Errorf("estimated Rows = %d, want ≈5000", info.Stats.Rows)
	}
	// distinct of a 40-value column should not be estimated near 5000
	if d := info.DistinctOf("user_id"); d < 20 || d > 4000 {
		t.Errorf("distinct(user_id) = %d", d)
	}
	// score is nearly unique per row: estimate should be near row estimate
	if d := info.DistinctOf("score"); d < info.Stats.Rows/2 {
		t.Errorf("distinct(score) = %d vs rows %d", d, info.Stats.Rows)
	}

	if _, err := c.CollectStats(eng, "missing", 1); err == nil {
		t.Error("missing table accepted")
	}
	// registered in catalog but not in store
	view(c, "ghost", base.Ann, cost.Stats{})
	if _, err := c.CollectStats(eng, "ghost", 1); err == nil {
		t.Error("ghost table accepted")
	}
}

// gen renders everything planning reads from a catalog: each listed
// dataset (its published pointer, annotation fingerprint, whether the
// annotation index resolves to it, statistics, layout and delta mark), the
// FD count and each UDF with its cost scalar.
func gen(c *Catalog) string {
	var b strings.Builder
	c.mu.RLock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	c.mu.RUnlock()
	sort.Strings(names)
	for _, n := range names {
		ti, _ := c.Table(n)
		idx, _ := c.ByAnnotation(ti.Canon())
		fmt.Fprintf(&b, "%s %p view=%v canon=%s indexed=%v stats=%+v distinct=%v part=%+v delta=%v\n",
			n, ti, ti.IsView, ti.Canon(), idx == ti, ti.Stats, ti.Distinct, ti.Part, ti.Delta)
	}
	fmt.Fprintf(&b, "fds=%d\n", c.FDs.Len())
	for _, n := range c.UDFs.Names() {
		d, _ := c.UDFs.Get(n)
		fmt.Fprintf(&b, "udf %s %p scalar=%v\n", n, d, d.Scalar)
	}
	return b.String()
}

// TestGenMovesOnEveryChange: every catalog mutator changes what planning
// reads (gen) when it has something to change, and leaves it alone — no
// entry republished — when it changes nothing.
func TestGenMovesOnEveryChange(t *testing.T) {
	type fixture struct {
		c   *Catalog
		st  *storage.Store
		eng *mr.Engine
		d   *udf.Descriptor // registered, Scalar 2
	}
	newUDF := func(name string) *udf.Descriptor {
		return &udf.Descriptor{Name: name, NArgs: 1, Kind: udf.KindMap, OutNames: []string{"o"}, TrueScalar: 1,
			Map: func(args, _ []value.V) [][]value.V { return [][]value.V{args} }}
	}
	table := func(t *testing.T, c *Catalog, name string) *TableInfo {
		ti, ok := c.Table(name)
		if !ok {
			t.Fatalf("%s not listed", name)
		}
		return ti
	}
	setup := func(t *testing.T) fixture {
		f := fixture{c: NewCatalog(), st: storage.NewStore()}
		f.eng = mr.New(f.st, cost.DefaultParams())
		rel := data.NewRelation(data.NewSchema("a"))
		rel.Append(data.Row{value.NewInt(1)})
		f.st.OnRemove = f.c.Forget
		f.st.Put("b", storage.Base, rel)
		f.st.Put("v", storage.View, rel)
		base := f.c.RegisterBase("b", []string{"a"}, "", cost.Stats{}, nil)
		view(f.c, "v", base.Ann, cost.Stats{})
		f.c.SetPartitioning("b", afk.Partitioning{Sigs: []string{base.Ann.MustSig("a").ID()}, Parts: 4})
		f.d = newUDF("U")
		if err := f.c.UDFs.Register(f.d); err != nil {
			t.Fatal(err)
		}
		f.c.UDFs.SetScalar(f.d, 2)
		return f
	}
	for _, tc := range []struct {
		name string
		op   func(t *testing.T, f fixture)
		move bool
		prep func(f fixture) // before gen is read
	}{
		{"register_base", func(_ *testing.T, f fixture) { f.c.RegisterBase("b2", []string{"a"}, "", cost.Stats{}, nil) }, true, nil},
		{"register_view", func(t *testing.T, f fixture) {
			view(f.c, "v2", table(t, f.c, "b").Ann, cost.Stats{})
		}, true, nil},
		{"register_view_listed", func(t *testing.T, f fixture) {
			view(f.c, "v", table(t, f.c, "b").Ann, cost.Stats{Rows: 7})
		}, false, nil},
		{"register_view_stale", func(t *testing.T, f fixture) {
			f.c.RegisterView(TableInfo{Name: "v2", Cols: []string{"a"}, Ann: table(t, f.c, "b").Ann}, 0)
		}, false, func(f fixture) { f.c.BeginAppend() }},
		{"drop_view", func(_ *testing.T, f fixture) { f.c.DropView("v") }, true, nil},
		{"drop_view_absent", func(_ *testing.T, f fixture) { f.c.DropView("nope") }, false, nil},
		{"drop_view_of_base", func(_ *testing.T, f fixture) { f.c.DropView("b") }, false, nil},
		{"forget", func(_ *testing.T, f fixture) { f.c.Forget("v") }, true, nil},
		{"forget_absent", func(_ *testing.T, f fixture) { f.c.Forget("nope") }, false, nil},
		{"drop_table", func(_ *testing.T, f fixture) { f.st.Delete("b") }, true, nil},
		{"drop_table_absent", func(_ *testing.T, f fixture) { f.st.Delete("nope") }, false, nil},
		{"drop_views", func(_ *testing.T, f fixture) { f.st.DropViews() }, true, nil},
		{"drop_views_none", func(_ *testing.T, f fixture) { f.st.DropViews() }, false, func(f fixture) { f.st.DropViews() }},
		{"evict", func(_ *testing.T, f fixture) { f.st.ViewCapacityBytes = 1; f.st.EnforceBudget() }, true, nil},
		{"evict_nothing", func(_ *testing.T, f fixture) { f.st.ViewCapacityBytes = 1 << 20; f.st.EnforceBudget() }, false, nil},
		{"collect_stats", func(t *testing.T, f fixture) {
			if _, err := f.c.CollectStats(f.eng, "v", 1); err != nil {
				t.Fatal(err)
			}
		}, true, nil},
		{"collect_stats_unknown", func(_ *testing.T, f fixture) { f.c.CollectStats(f.eng, "nope", 1) }, false, nil},
		{"set_partitioning", func(_ *testing.T, f fixture) { f.c.SetPartitioning("b", afk.Partitioning{}) }, true, nil},
		{"set_partitioning_same", func(t *testing.T, f fixture) {
			f.c.SetPartitioning("b", table(t, f.c, "b").Part.Clone())
		}, false, nil},
		{"set_partitioning_unknown", func(_ *testing.T, f fixture) { f.c.SetPartitioning("nope", afk.Partitioning{Parts: 2}) }, false, nil},
		{"mark_delta", func(_ *testing.T, f fixture) { f.c.MarkDelta("b") }, true, nil},
		{"mark_delta_again", func(_ *testing.T, f fixture) { f.c.MarkDelta("b") }, false, func(f fixture) { f.c.MarkDelta("b") }},
		{"mark_delta_unknown", func(_ *testing.T, f fixture) { f.c.MarkDelta("nope") }, false, nil},
		{"mark_delta_of_view", func(_ *testing.T, f fixture) { f.c.MarkDelta("v") }, false, nil},
		{"add_fd", func(_ *testing.T, f fixture) { f.c.FDs.Add([]string{"x"}, "y") }, true, nil},
		{"add_fd_again", func(_ *testing.T, f fixture) { f.c.FDs.Add([]string{"x"}, "y") }, false, func(f fixture) { f.c.FDs.Add([]string{"x"}, "y") }},
		{"register_udf", func(t *testing.T, f fixture) {
			if err := f.c.UDFs.Register(newUDF("U2")); err != nil {
				t.Fatal(err)
			}
		}, true, nil},
		{"set_scalar", func(_ *testing.T, f fixture) { f.c.UDFs.SetScalar(f.d, 3) }, true, nil},
		{"set_scalar_same", func(_ *testing.T, f fixture) { f.c.UDFs.SetScalar(f.d, 2) }, false, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := setup(t)
			if tc.prep != nil {
				tc.prep(f)
			}
			before := gen(f.c)
			tc.op(t, f)
			if after := gen(f.c); (after != before) != tc.move {
				t.Errorf("gen moved = %v, want %v\nbefore:\n%safter:\n%s", after != before, tc.move, before, after)
			}
		})
	}
}
