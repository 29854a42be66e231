package persist

import (
	"reflect"
	"testing"

	"opportune/internal/afk"
	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/plan"
	"opportune/internal/session"
	"opportune/internal/storage"
	"opportune/internal/value"
)

// layoutSession builds a session with one hash-clustered base log and two
// retained keyed-GroupAgg views over it: vkey (COUNT/MIN/MAX — maintainable)
// and vavg (AVG — not distributive, so an append can only invalidate it).
func layoutSession(t *testing.T, rows int) *session.Session {
	t.Helper()
	s := session.New(cost.DefaultParams())
	rel := data.NewRelation(data.NewSchema("id", "user", "amt"))
	for i := 0; i < rows; i++ {
		rel.Append(data.Row{
			value.NewInt(int64(i)), value.NewInt(int64(i % 7)), value.NewInt(int64(i % 13)),
		})
	}
	s.Store.Put("logs", storage.Base, rel)
	s.Cat.RegisterBase("logs", []string{"id", "user", "amt"}, "id",
		cost.Stats{Rows: int64(rows), Bytes: rel.EncodedSize()}, map[string]int64{"user": 7})
	userSig := afk.BaseSig("logs", "user").ID()
	s.Cat.SetPartitioning("logs", afk.Partitioning{Sigs: []string{userSig}, Parts: 16})

	p := plan.GroupAgg(plan.Scan("logs"), []string{"user"},
		plan.AggSpec{Func: plan.AggCount, As: "n"},
		plan.AggSpec{Func: plan.AggMin, Col: "amt", As: "lo"},
		plan.AggSpec{Func: plan.AggMax, Col: "amt", As: "hi"})
	if _, err := s.Run(p, "vkey", session.ModeOriginal); err != nil {
		t.Fatal(err)
	}
	avg := plan.GroupAgg(plan.Scan("logs"), []string{"user"},
		plan.AggSpec{Func: plan.AggAvg, Col: "amt", As: "mean"})
	if _, err := s.Run(avg, "vavg", session.ModeOriginal); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkLayout asserts one dataset's layout on its catalog entry, the one
// record of it (what plan annotation consults).
func checkLayout(t *testing.T, s *session.Session, name string, wantSigs []string, wantParts int, stage string) {
	t.Helper()
	info, ok := s.Cat.Table(name)
	if !ok {
		t.Fatalf("%s: %s missing from catalog", stage, name)
	}
	if !reflect.DeepEqual(info.Part.Sigs, wantSigs) || info.Part.Parts != wantParts {
		t.Errorf("%s: catalog layout of %s = (%v, %d), want (%v, %d)",
			stage, name, info.Part.Sigs, info.Part.Parts, wantSigs, wantParts)
	}
	if wantParts > 0 && !info.Part.PrefixMatch(wantSigs) {
		t.Errorf("%s: catalog layout of %s does not prefix-match its own keys", stage, name)
	}
}

// appendBatch fabricates delta rows for the logs schema.
func appendBatch(base, n int) []data.Row {
	rows := make([]data.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = data.Row{
			value.NewInt(int64(base + i)),
			value.NewInt(int64((base + i) % 9)),
			value.NewInt(int64((base + i) % 13)),
		}
	}
	return rows
}

// TestViewLayoutLifecycle is the partitioning lifecycle property: a keyed-
// GroupAgg view reports its key's hash layout from the moment it is
// retained, the layout survives a persist round-trip and incremental
// maintenance (a key-merge refresh rewrites the bytes bucket-stably), and
// it disappears — with no stale metadata left anywhere — the moment a
// view falls back to invalidation (vavg, which no append can maintain).
func TestViewLayoutLifecycle(t *testing.T) {
	s := layoutSession(t, 150)
	userSig := afk.BaseSig("logs", "user").ID()
	viewParts := s.Opt.Params.DefaultPartitions
	if viewParts <= 0 {
		t.Fatalf("DefaultPartitions = %d, want > 0", viewParts)
	}

	// Retention: the reduce that materialized the view wrote it bucketed by
	// the group key, and retainViews copied that claim into the catalog.
	checkLayout(t, s, "logs", []string{userSig}, 16, "after install")
	checkLayout(t, s, "vkey", []string{userSig}, viewParts, "after retention")
	checkLayout(t, s, "vavg", []string{userSig}, viewParts, "after retention")

	// Persist round-trip: both the base's declared clustering and the view's
	// inherited layout come back.
	dir := t.TempDir()
	if err := Save(s, dir); err != nil {
		t.Fatal(err)
	}
	s2, _, err := Open(dir, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	checkLayout(t, s2, "logs", []string{userSig}, 16, "after round-trip")
	checkLayout(t, s2, "vkey", []string{userSig}, viewParts, "after round-trip")
	checkLayout(t, s2, "vavg", []string{userSig}, viewParts, "after round-trip")

	// Incremental maintenance: the captured plan also survived the
	// round-trip, so the append refreshes the view in place — and its entry
	// keeps the layout claim, because a key-merge never moves a group out
	// of its bucket.
	rep, err := s2.AppendRows("logs", appendBatch(1000, 41))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Maintained) != 1 || rep.Maintained[0] != "vkey" {
		t.Fatalf("append maintained %v (reasons %v), want [vkey]", rep.Maintained, rep.Reasons)
	}
	checkLayout(t, s2, "logs", []string{userSig}, 16, "after maintenance")
	checkLayout(t, s2, "vkey", []string{userSig}, viewParts, "after maintenance")

	// The fallback — the same append could only invalidate the AVG view. It
	// must vanish from store and catalog alike — partition metadata cannot
	// outlive the bytes it describes.
	if len(rep.Invalidated) != 1 || rep.Invalidated[0] != "vavg" {
		t.Fatalf("append invalidated %v, want [vavg]", rep.Invalidated)
	}
	if s2.Store.Has("vavg") {
		t.Error("invalidated view still in store")
	}
	if _, ok := s2.Cat.Table("vavg"); ok {
		t.Error("invalidated view still in catalog")
	}
	// The base's own layout is untouched by the fallback.
	checkLayout(t, s2, "logs", []string{userSig}, 16, "after fallback")
}
