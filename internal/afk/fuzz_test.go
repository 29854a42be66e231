package afk

import (
	"slices"
	"strings"
	"testing"

	"opportune/internal/expr"
	"opportune/internal/value"
)

// sigList derives a signature-ID list from fuzz input: ';'-separated
// tokens, kept verbatim (including empty tokens — PrefixMatch must reject
// those, and the fuzzer should get to try them).
func sigList(raw string) []string {
	if raw == "" {
		return nil
	}
	return strings.Split(raw, ";")
}

// FuzzPartitionCompat asserts the prefix-compatibility matcher — the rule
// that decides whether a declared hash layout lets a shuffle be compiled
// away — agrees with its specification on arbitrary sig lists and obeys
// the lattice laws the optimizer relies on: matching is monotone in key
// extensions, anti-monotone in layout truncation, and invariant under
// Clone.
func FuzzPartitionCompat(f *testing.F) {
	f.Add("s1;s2", "s1;s2;s3", 32, "s9")
	f.Add("s1", "s1", 1, "")
	f.Add("s1;s2", "s1", 8, "s2")  // layout longer than key: no match
	f.Add("s2;s1", "s1;s2", 8, "") // order matters
	f.Add(";s1", "s1;s2", 8, "s1") // empty sig id: never matches
	f.Add("", "s1", 8, "s1")       // unknown layout
	f.Add("s1", "s1;s2", 0, "s1")  // parts=0: not partitioned
	f.Add("a;a", "a;a;a", 16, "a") // repeated sigs
	f.Fuzz(func(t *testing.T, sigsRaw, keysRaw string, parts int, extra string) {
		p := Partitioning{Sigs: sigList(sigsRaw), Parts: parts}
		keyIDs := sigList(keysRaw)
		got := p.PrefixMatch(keyIDs)

		// Reference specification: known layout, and Sigs a non-empty
		// prefix of keyIDs with no empty IDs.
		want := p.IsPartitioned() && len(p.Sigs) <= len(keyIDs)
		if want {
			for i, s := range p.Sigs {
				if s == "" || s != keyIDs[i] {
					want = false
					break
				}
			}
		}
		if got != want {
			t.Fatalf("PrefixMatch(%q over %q, parts=%d) = %v, spec says %v",
				p.Sigs, keyIDs, parts, got, want)
		}
		if got && !p.IsPartitioned() {
			t.Fatal("matched with an unknown layout")
		}
		if got {
			// Monotone in the key: refining the shuffle key with more
			// columns never breaks the match (the extra columns only split
			// groups within a bucket).
			if !p.PrefixMatch(append(append([]string(nil), keyIDs...), extra)) {
				t.Fatalf("match lost after extending key %q with %q", keyIDs, extra)
			}
			// Anti-monotone in the layout: any shorter non-empty layout
			// prefix is coarser and still routes each group to one bucket.
			for k := 1; k < len(p.Sigs); k++ {
				sub := Partitioning{Sigs: p.Sigs[:k], Parts: parts}
				if !sub.PrefixMatch(keyIDs) {
					t.Fatalf("layout prefix %q stopped matching key %q", sub.Sigs, keyIDs)
				}
			}
		}
		// Structural laws, match or not.
		c := p.Clone()
		if !c.Equal(p) || c.PrefixMatch(keyIDs) != got {
			t.Fatal("Clone changed the property")
		}
		if p.Canon() != c.Canon() {
			t.Fatal("Canon not Clone-invariant")
		}
		if (p.Canon() == "") == p.IsPartitioned() {
			t.Fatalf("Canon %q disagrees with IsPartitioned %v", p.Canon(), p.IsPartitioned())
		}
	})
}

// fuzzAnn derives an annotation over fdUniverse from fuzz input: attrs and
// keys are bit sets over the universe, and each two bytes of preds are one
// comparison predicate (attribute, operator, a small literal), so random
// filter sets overlap, imply one another and repeat.
func fuzzAnn(attrs, keys uint8, preds []byte) Annotation {
	u := fdUniverse()
	var as []Attr
	k := NewSigSet()
	for i, s := range u {
		if attrs&(1<<i) != 0 {
			as = append(as, Attr{Name: s.Column, Sig: s})
		}
		if keys&(1<<i) != 0 {
			k.Add(s)
		}
	}
	f := expr.NewSet()
	for i := 0; i+1 < len(preds); i += 2 {
		op := []expr.CmpOp{expr.Eq, expr.Ne, expr.Lt, expr.Le, expr.Gt, expr.Ge}[int(preds[i]>>3)%6]
		f.Add(expr.NewCmp(u[preds[i]&7].ID(), op, value.NewInt(int64(preds[i+1]%8))))
	}
	return New(as, f, k)
}

// FuzzFixOps asserts the allocation-free FixOps that OPTCOST uses agrees
// with the fix ComputeFix materializes — the same operation types in the
// same order, and the same emptiness — on random annotation pairs.
func FuzzFixOps(f *testing.F) {
	f.Add(uint8(0b111), uint8(0b1), []byte{}, uint8(0b111), uint8(0b1), []byte{})                 // identical
	f.Add(uint8(0b011), uint8(0), []byte{0x10, 3}, uint8(0b111), uint8(0b1), []byte{})            // filter, drop, rekey
	f.Add(uint8(0b111), uint8(0b10), []byte{0x20, 5}, uint8(0b011), uint8(0b10), []byte{0x20, 2}) // new attr, implied filter
	f.Add(uint8(0b1), uint8(0), []byte{0x28, 1, 0x28, 4}, uint8(0b1), uint8(0), []byte{0x28, 4})  // redundant filter
	f.Fuzz(func(t *testing.T, qAttrs, qKeys uint8, qPreds []byte, vAttrs, vKeys uint8, vPreds []byte) {
		q, v := fuzzAnn(qAttrs, qKeys, qPreds), fuzzAnn(vAttrs, vKeys, vPreds)
		ops, empty := FixOps(q, v)
		fix := ComputeFix(q, v)
		if !slices.Equal(ops, fix.OpTypes()) || empty != fix.Empty() {
			t.Fatalf("q %s, v %s: FixOps = %v, %v; ComputeFix = %v, %v", q, v, ops, empty, fix.OpTypes(), fix.Empty())
		}
	})
}
