package storage

import (
	"math/rand"
	"slices"
	"testing"

	"opportune/internal/data"
	"opportune/internal/value"
)

func rel(n int) *data.Relation {
	r := data.NewRelation(data.NewSchema("id", "text"))
	for i := 0; i < n; i++ {
		r.Append(data.Row{value.NewInt(int64(i)), value.NewStr("row")})
	}
	return r
}

func TestPutReadCounters(t *testing.T) {
	s := NewStore()
	r := rel(10)
	d := s.Put("t", Base, r)
	if d.SizeBytes != r.EncodedSize() {
		t.Errorf("SizeBytes = %d, want %d", d.SizeBytes, r.EncodedSize())
	}
	c := s.Counters()
	if c.BytesWritten != d.SizeBytes || c.WriteOps != 1 {
		t.Errorf("write counters = %+v", c)
	}
	got, err := s.Read("t")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 10 {
		t.Errorf("read rows = %d", got.Len())
	}
	c = s.Counters()
	if c.BytesRead != d.SizeBytes || c.ReadOps != 1 {
		t.Errorf("read counters = %+v", c)
	}
	if _, err := s.Read("missing"); err == nil {
		t.Error("Read(missing) succeeded")
	}
	s.ResetCounters()
	if s.Counters() != (Counters{}) {
		t.Error("ResetCounters did not zero")
	}
}

func TestMetaAndHas(t *testing.T) {
	s := NewStore()
	s.Put("t", Base, rel(3))
	if !s.Has("t") || s.Has("x") {
		t.Error("Has wrong")
	}
	d, ok := s.Meta("t")
	if !ok || d.Rows() != 3 {
		t.Errorf("Meta = %+v, %v", d, ok)
	}
	before := s.Counters().BytesRead
	s.Meta("t")
	if s.Counters().BytesRead != before {
		t.Error("Meta counted a read")
	}
}

func TestSample(t *testing.T) {
	s := NewStore()
	d := s.Put("t", Base, rel(1000))
	samp, err := s.Sample(d, 0.01, 42)
	if err != nil {
		t.Fatal(err)
	}
	if samp.Len() == 0 || samp.Len() > 100 {
		t.Errorf("sample size = %d, want ~10", samp.Len())
	}
	full, _ := s.Meta("t")
	if s.Counters().BytesRead >= full.SizeBytes {
		t.Error("sample read counted as full read")
	}
	// deterministic for same seed
	s2, _ := s.Sample(d, 0.01, 42)
	if s2.Len() != samp.Len() {
		t.Error("sample not deterministic")
	}
	// nonempty source always yields at least one row
	tiny, _ := s.Sample(s.Put("tiny", Base, rel(1)), 0.0001, 1)
	if tiny.Len() != 1 {
		t.Errorf("tiny sample = %d rows", tiny.Len())
	}
	if _, err := s.Sample(d, 0, 1); err == nil {
		t.Error("frac=0 accepted")
	}
	if _, err := s.Sample(d, 1.5, 1); err == nil {
		t.Error("frac>1 accepted")
	}
}

func TestSampleFullFraction(t *testing.T) {
	s := NewStore()
	full := rel(50)
	d := s.Put("t", Base, full)
	before := s.Counters()
	samp, err := s.Sample(d, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if samp.Len() != 50 {
		t.Errorf("frac=1 sampled %d of 50 rows", samp.Len())
	}
	// frac=1 reads every row, so the byte charge equals a full read.
	if got := s.Counters().BytesRead - before.BytesRead; got != full.EncodedSize() {
		t.Errorf("frac=1 charged %d bytes, want full %d", got, full.EncodedSize())
	}
}

func TestSampleEmptyRelation(t *testing.T) {
	s := NewStore()
	d := s.Put("empty", Base, rel(0))
	before := s.Counters()
	samp, err := s.Sample(d, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if samp.Len() != 0 {
		t.Errorf("empty relation sampled %d rows", samp.Len())
	}
	// No rows means no row bytes; the op is still counted.
	c := s.Counters()
	if got := c.BytesRead - before.BytesRead; got != samp.EncodedSize() {
		t.Errorf("empty sample charged %d bytes, want %d", got, samp.EncodedSize())
	}
	if c.ReadOps != before.ReadOps+1 {
		t.Error("empty sample not counted as a read op")
	}
}

func TestSampleFallbackByteAccounting(t *testing.T) {
	// A fraction tiny enough to select no rows forces the single-row
	// fallback; the byte charge must be the fallback row's encoding, not
	// zero and not the full relation.
	s := NewStore()
	full := rel(100)
	d := s.Put("t", Base, full)
	before := s.Counters()
	samp, err := s.Sample(d, 1e-12, 5)
	if err != nil {
		t.Fatal(err)
	}
	if samp.Len() != 1 {
		t.Fatalf("fallback sampled %d rows, want 1", samp.Len())
	}
	got := s.Counters().BytesRead - before.BytesRead
	if got != samp.EncodedSize() {
		t.Errorf("fallback charged %d bytes, want sample's %d", got, samp.EncodedSize())
	}
	if got <= 0 || got >= full.EncodedSize() {
		t.Errorf("fallback charge %d outside (0, %d)", got, full.EncodedSize())
	}
}

func TestListDeleteDropViews(t *testing.T) {
	s := NewStore()
	s.Put("base1", Base, rel(1))
	s.Put("v1", View, rel(1))
	s.Put("v2", View, rel(1))
	if got := s.List(View); len(got) != 2 || got[0] != "v1" {
		t.Errorf("List(View) = %v", got)
	}
	if got := s.List(Base); len(got) != 1 {
		t.Errorf("List(Base) = %v", got)
	}
	s.Delete("v1")
	if s.Has("v1") {
		t.Error("Delete failed")
	}
	if n := s.DropViews(); n != 1 {
		t.Errorf("DropViews = %d", n)
	}
	if !s.Has("base1") {
		t.Error("DropViews removed base data")
	}
	if s.ViewBytes() != 0 {
		t.Error("ViewBytes after drop != 0")
	}
}

func TestCapacityEvictionLRU(t *testing.T) {
	s := NewStore()
	one := rel(10)
	sz := one.EncodedSize()
	s.ViewCapacityBytes = 2 * sz
	s.Policy = PolicyLRU
	s.Put("v1", View, rel(10))
	s.Put("v2", View, rel(10))
	// touch v1 so v2 is LRU
	if _, err := s.Read("v1"); err != nil {
		t.Fatal(err)
	}
	s.Put("v3", View, rel(10)) // must evict v2
	if s.Has("v2") {
		t.Error("LRU kept v2")
	}
	if !s.Has("v1") || !s.Has("v3") {
		t.Error("LRU evicted wrong view")
	}
}

func TestCapacityEvictionLFU(t *testing.T) {
	s := NewStore()
	sz := rel(10).EncodedSize()
	s.ViewCapacityBytes = 2 * sz
	s.Policy = PolicyLFU
	s.Put("v1", View, rel(10))
	s.Put("v2", View, rel(10))
	s.Read("v2")
	s.Read("v2")
	s.Read("v1") // v1 used once, v2 twice
	s.Put("v3", View, rel(10))
	if s.Has("v1") {
		t.Error("LFU kept less-frequently-used v1")
	}
	if !s.Has("v2") {
		t.Error("LFU evicted v2")
	}
}

func TestCapacityEvictionCostBenefit(t *testing.T) {
	s := NewStore()
	sz := rel(10).EncodedSize()
	s.ViewCapacityBytes = 2 * sz
	s.Policy = PolicyCostBenefit
	s.Put("v1", View, rel(10))
	s.Put("v2", View, rel(10))
	s.AddBenefit("v1", 100)
	s.Put("v3", View, rel(10)) // v2 has zero benefit -> victim
	if s.Has("v2") {
		t.Error("cost-benefit kept zero-benefit v2")
	}
	if !s.Has("v1") {
		t.Error("cost-benefit evicted high-benefit v1")
	}
}

func TestCapacityEvictionFIFO(t *testing.T) {
	s := NewStore()
	sz := rel(10).EncodedSize()
	s.ViewCapacityBytes = 2 * sz
	s.Policy = PolicyFIFO
	s.Put("v1", View, rel(10))
	s.Put("v2", View, rel(10))
	s.Read("v1") // recency must not matter for FIFO
	s.Put("v3", View, rel(10))
	if s.Has("v1") {
		t.Error("FIFO kept oldest view")
	}
}

func TestEvictionNeverRemovesBaseOrIncoming(t *testing.T) {
	s := NewStore()
	s.Put("base", Base, rel(100))
	s.ViewCapacityBytes = 1 // absurdly small
	s.Put("v1", View, rel(10))
	if !s.Has("base") {
		t.Error("base data evicted")
	}
	if !s.Has("v1") {
		t.Error("incoming view not admitted")
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[ReclamationPolicy]string{
		PolicyLRU: "lru", PolicyLFU: "lfu", PolicyCostBenefit: "cost-benefit", PolicyFIFO: "fifo",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%v name", p)
		}
	}
	if ReclamationPolicy(99).String() != "unknown" {
		t.Error("unknown policy name")
	}
}

func TestPutPreservesRetentionMetadataOnReplace(t *testing.T) {
	s := NewStore()
	s.Put("v", View, rel(5))
	for i := 0; i < 3; i++ {
		if _, err := s.Read("v"); err != nil {
			t.Fatal(err)
		}
	}
	s.AddBenefit("v", 42)
	before, _ := s.Meta("v")
	created, used, benefit := before.CreatedSeq, before.UseCount, before.Benefit

	// Re-materializing under the same name is a refresh, not a new view:
	// the reclamation-policy signals must survive.
	d := s.Put("v", View, rel(8))
	if d.CreatedSeq != created {
		t.Errorf("CreatedSeq = %d, want preserved %d", d.CreatedSeq, created)
	}
	if d.UseCount != used {
		t.Errorf("UseCount = %d, want preserved %d", d.UseCount, used)
	}
	if d.Benefit != benefit {
		t.Errorf("Benefit = %g, want preserved %g", d.Benefit, benefit)
	}
	if d.LastUsedSeq <= before.LastUsedSeq {
		t.Errorf("LastUsedSeq = %d, want advanced past %d (a write is a touch)", d.LastUsedSeq, before.LastUsedSeq)
	}
	if d.SizeBytes != rel(8).EncodedSize() {
		t.Errorf("SizeBytes = %d, want new size %d", d.SizeBytes, rel(8).EncodedSize())
	}

	// A kind change is a different artifact: metadata starts fresh.
	d2 := s.Put("v", Base, rel(2))
	if d2.UseCount != 0 || d2.Benefit != 0 {
		t.Errorf("kind change kept metadata: %+v", d2)
	}
}

func TestEvictionDeterministicOnTies(t *testing.T) {
	// Views tied on every policy metric must be evicted in stable name
	// order, not Go map-iteration order. Ties are forced by constructing
	// datasets directly (normal Store ops give each touch a unique seq).
	for _, p := range []ReclamationPolicy{PolicyLRU, PolicyLFU, PolicyCostBenefit, PolicyFIFO} {
		for trial := 0; trial < 20; trial++ {
			s := NewStore()
			s.Policy = p
			r := rel(4)
			per := r.EncodedSize()
			for _, name := range []string{"v-c", "v-a", "v-b"} {
				s.Put(name, View, r)
				d, _ := s.Meta(name)
				d.CreatedSeq, d.LastUsedSeq, d.UseCount, d.Benefit = 1, 1, 0, 0
			}
			s.ViewCapacityBytes = 2 * per
			s.EnforceBudget()
			got := s.List(View)
			if len(got) != 2 || got[0] != "v-b" || got[1] != "v-c" {
				t.Fatalf("%v trial %d: evicted wrong victim, left %v (want [v-b v-c])", p, trial, got)
			}
		}
	}
}

// TestHandleOutlivesRemoval: a handle reads its version after Delete,
// DropViews, eviction and a replacing Put took the name away, each removal
// taking effect in the namespace at once. A read by handle counts its
// version's bytes and touches whatever the name holds now.
func TestHandleOutlivesRemoval(t *testing.T) {
	s := NewStore()
	s.Put("keep", View, rel(2))
	for _, remove := range []struct {
		name string
		do   func(s *Store)
	}{
		{"delete", func(s *Store) { s.Delete("v") }},
		{"drop views", func(s *Store) { s.DropViews() }},
		{"eviction", func(s *Store) {
			s.ViewCapacityBytes = 1
			s.EnforceBudget()
			s.ViewCapacityBytes = 0
		}},
		{"replacing put", func(s *Store) { s.Put("v", View, rel(9)) }},
	} {
		h := s.Put("v", View, rel(5))
		want := h.Relation().Fingerprint()
		remove.do(s)
		if cur, ok := s.Meta("v"); ok && cur == h {
			t.Fatalf("%s: the name still maps to the removed version", remove.name)
		}
		before := s.Counters()
		got, err := s.ReadDataset(h)
		if err != nil || got.Fingerprint() != want {
			t.Fatalf("%s: the handle reads %v, %v; want its own version", remove.name, got, err)
		}
		if d := s.Counters().BytesRead - before.BytesRead; d != h.SizeBytes {
			t.Errorf("%s: a read by handle counted %d bytes, want %d", remove.name, d, h.SizeBytes)
		}
		s.Delete("v")
	}
	s.Put("v", View, rel(5))
	h, _ := s.Meta("v")
	s.Put("v", View, rel(3))
	if _, err := s.ReadDataset(h); err != nil {
		t.Fatal(err)
	}
	if cur, _ := s.Meta("v"); cur.UseCount != 1 || h.UseCount != 0 {
		t.Errorf("a read of the old version touched use counts %d (stored), %d (read); want 1, 0", cur.UseCount, h.UseCount)
	}
}

// TestDiscardRemovesOnlyItsVersion: Discard removes the version it is
// handed while the name still maps to it, and never a newer one.
func TestDiscardRemovesOnlyItsVersion(t *testing.T) {
	s := NewStore()
	var heard []string
	s.OnRemove = func(name string) { heard = append(heard, name) }
	old := s.Put("v", View, rel(5))
	s.Put("v", View, rel(8))
	s.Discard(old)
	if !s.Has("v") || len(heard) != 0 {
		t.Fatalf("discarding a superseded version removed the newer one (heard %v)", heard)
	}
	cur, _ := s.Meta("v")
	s.Discard(cur)
	if s.Has("v") || !slices.Equal(heard, []string{"v"}) {
		t.Errorf("discarding the stored version: stored %v, heard %v", s.Has("v"), heard)
	}
	s.Discard(cur) // gone already: nothing to remove
	if len(heard) != 1 {
		t.Errorf("a second Discard was heard: %v", heard)
	}
}

// TestPutIfRefusedPublishesNothing: a refused write counts its bytes and
// returns a readable handle, but the name keeps what it held and no
// eviction runs for it.
func TestPutIfRefusedPublishesNothing(t *testing.T) {
	s := NewStore()
	prev := s.Put("v", View, rel(4))
	s.ViewCapacityBytes = prev.SizeBytes
	before := s.Counters()
	h, stored := s.PutIf("v", View, rel(7), func() bool { return false })
	if stored {
		t.Fatal("a refused write reports stored")
	}
	if cur, _ := s.Meta("v"); cur != prev {
		t.Error("a refused write replaced the stored version")
	}
	if got := s.Counters(); got.BytesWritten-before.BytesWritten != h.SizeBytes || got.WriteOps != before.WriteOps+1 {
		t.Errorf("a refused write counted %+v → %+v, want its %d bytes", before, got, h.SizeBytes)
	}
	if got, err := s.ReadDataset(h); err != nil || got.Len() != 7 {
		t.Errorf("the refused write's handle reads %v, %v", got, err)
	}
	if d, stored := s.PutIf("w", View, rel(2), func() bool { return true }); !stored || !s.Has("w") || s.Has("v") {
		t.Errorf("an admitted write: stored %v, w %v, v %v; want stored with v evicted", stored, d != nil && s.Has("w"), s.Has("v"))
	}
}

// TestProtectReplacesTheSet: eviction skips the protected views, and each
// Protect call replaces the whole set.
func TestProtectReplacesTheSet(t *testing.T) {
	s := NewStore()
	for _, n := range []string{"a", "b", "c"} {
		s.Put(n, View, rel(4))
	}
	s.Protect([]string{"a", "b"})
	s.ViewCapacityBytes = 1
	s.EnforceBudget()
	if got := s.List(View); !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("protected {a, b}: left %v", got)
	}
	s.Protect([]string{"b"})
	s.EnforceBudget()
	if got := s.List(View); !slices.Equal(got, []string{"b"}) {
		t.Fatalf("protected {b}: left %v", got)
	}
	s.Protect(nil)
	s.EnforceBudget()
	if got := s.List(View); len(got) != 0 {
		t.Errorf("protected nothing: left %v", got)
	}
}

func TestDeleteUnpinnedAndMissing(t *testing.T) {
	s := NewStore()
	s.Put("v", View, rel(2))
	s.Delete("v")
	if s.Has("v") {
		t.Error("Delete did not remove the dataset at once")
	}
	s.Delete("missing") // a no-op
	if s.Has("missing") {
		t.Error("Delete of a missing dataset created it")
	}
}

// TestOnRemoveHearsEveryRemoval: eviction, Delete and DropViews report each
// name they remove, once, as they remove it. Writes report nothing.
func TestOnRemoveHearsEveryRemoval(t *testing.T) {
	s := NewStore()
	var heard []string
	s.OnRemove = func(name string) { heard = append(heard, name) }
	expect := func(step string, want ...string) {
		t.Helper()
		if !slices.Equal(heard, want) {
			t.Errorf("%s: heard %v, want %v", step, heard, want)
		}
		heard = nil
	}
	s.Put("base", Base, rel(4))
	s.Put("v1", View, rel(4))
	s.Put("v2", View, rel(4))
	if _, err := s.Refresh("v2", rel(4)); err != nil {
		t.Fatal(err)
	}
	expect("writes")

	s.ViewCapacityBytes = rel(4).EncodedSize()
	s.Put("v3", View, rel(4))
	expect("eviction", "v1", "v2")
	s.ViewCapacityBytes = 0

	s.Delete("v3")
	expect("delete", "v3")

	s.Delete("v3")
	expect("delete of a removed dataset")

	s.Put("v5", View, rel(4))
	s.Put("v6", View, rel(4))
	if n := s.DropViews(); n != 2 {
		t.Errorf("DropViews removed %d views, want 2", n)
	}
	slices.Sort(heard)
	expect("drop views", "v5", "v6")
	if !s.Has("base") {
		t.Error("DropViews removed base data")
	}
}

func TestRefresh(t *testing.T) {
	s := NewStore()
	s.Put("v", View, rel(5))
	for i := 0; i < 3; i++ {
		if _, err := s.Read("v"); err != nil {
			t.Fatal(err)
		}
	}
	s.AddBenefit("v", 7)
	before, _ := s.Meta("v")
	cBefore := s.Counters()

	d, err := s.Refresh("v", rel(9))
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != View || d.CreatedSeq != before.CreatedSeq ||
		d.UseCount != before.UseCount || d.Benefit != before.Benefit {
		t.Errorf("Refresh lost retention metadata: %+v", d)
	}
	if d.LastUsedSeq <= before.LastUsedSeq {
		t.Error("Refresh did not advance LastUsedSeq")
	}
	if d.SizeBytes != rel(9).EncodedSize() {
		t.Errorf("SizeBytes = %d, want %d", d.SizeBytes, rel(9).EncodedSize())
	}
	c := s.Counters()
	if c.BytesWritten-cBefore.BytesWritten != d.SizeBytes || c.WriteOps-cBefore.WriteOps != 1 {
		t.Errorf("Refresh write not counted: %+v -> %+v", cBefore, c)
	}
	if s.ViewBytes() != d.SizeBytes {
		t.Errorf("ViewBytes = %d, want %d", s.ViewBytes(), d.SizeBytes)
	}
	if _, err := s.Refresh("missing", rel(1)); err == nil {
		t.Error("Refresh of a missing dataset accepted")
	}
}

// TestSampleMatchesFreshSource requires Sample, which reseeds a pooled
// generator, to select exactly the rows a loop over a fresh
// rand.NewSource(seed) selects, for several seeds and fractions, the
// one-row fallback of an empty draw included. Seeds alternate so every
// pooled generator is reseeded from another seed's state.
func TestSampleMatchesFreshSource(t *testing.T) {
	s := NewStore()
	big, small := s.Put("big", Base, rel(1000)), s.Put("small", Base, rel(3))
	for _, seed := range []int64{42, 1, -9, 1 << 40, 42, 0} {
		for _, frac := range []float64{0.01, 0.1, 0.5, 1, 1e-6} {
			for _, d := range []*Dataset{big, small} {
				rng := rand.New(rand.NewSource(seed))
				var want []data.Row
				for _, r := range d.rel.Rows() {
					if rng.Float64() < frac {
						want = append(want, r)
					}
				}
				if len(want) == 0 {
					want = append(want, d.rel.Row(rng.Intn(d.rel.Len())))
				}
				got, err := s.Sample(d, frac, seed)
				if err != nil {
					t.Fatal(err)
				}
				if !data.RowsEqual(got.Rows(), want) {
					t.Errorf("seed %d frac %g over %d rows: sampled %d rows, a fresh source %d (or other rows)",
						seed, frac, d.rel.Len(), got.Len(), len(want))
				}
			}
		}
	}
}
