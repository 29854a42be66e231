package data

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"opportune/internal/value"
)

func TestRelationRoundTrip(t *testing.T) {
	rel := NewRelation(NewSchema("i", "f", "s", "b", "n"))
	rel.Append(Row{value.NewInt(-42), value.NewFloat(3.5), value.NewStr("héllo"), value.NewBool(true), value.NullV})
	rel.Append(Row{value.NewInt(1 << 60), value.NewFloat(math.Inf(-1)), value.NewStr(""), value.NewBool(false), value.NullV})
	var buf bytes.Buffer
	if err := rel.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRelation(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Schema().Equal(rel.Schema()) {
		t.Fatalf("schema = %s", got.Schema())
	}
	if got.Fingerprint() != rel.Fingerprint() {
		t.Error("data changed across round trip")
	}
	// row order preserved (fingerprint is order-independent, check directly)
	if got.Get(0, "i").Int() != -42 || got.Get(1, "i").Int() != 1<<60 {
		t.Error("row order changed")
	}
}

// goldenRelation holds every kind, and the payloads a cell layout could get
// wrong: NULL, the empty string, NaN, -0, MinInt64 and a multi-byte string.
func goldenRelation() *Relation {
	rel := NewRelation(NewSchema("i", "f", "s", "b", "n"))
	rel.Append(Row{value.NewInt(math.MinInt64), value.NewFloat(math.NaN()), value.NewStr(""), value.NewBool(true), value.NullV})
	rel.Append(Row{value.NewInt(-1), value.NewFloat(math.Copysign(0, -1)), value.NewStr("héllo wörld ✓"), value.NewBool(false), value.NewInt(0)})
	rel.Append(Row{value.NewInt(math.MaxInt64), value.NewFloat(math.Inf(1)), value.NewStr("a"), value.NullV, value.NewStr("")})
	rel.Append(Row{value.NullV, value.NewFloat(2.5), value.NullV, value.NewBool(true), value.NewFloat(-1e-300)})
	return rel
}

// TestRelationGolden pins the persisted relation format byte for byte:
// Write must reproduce testdata/relation_golden.tbl, and ReadRelation must
// give back the same cells and write the same bytes again, so no change of
// the in-memory cell layout can move what a saved catalog holds on disk. A
// missing file is written from the run and the test fails once.
func TestRelationGolden(t *testing.T) {
	path := filepath.Join("testdata", "relation_golden.tbl")
	rel := goldenRelation()
	var buf bytes.Buffer
	if err := rel.Write(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s from this run; review and commit it", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Write produced %x, golden file holds %x", buf.Bytes(), want)
	}
	got, err := ReadRelation(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Schema().Equal(rel.Schema()) || !got.Equal(rel) {
		t.Fatalf("golden file reads back as %v, want %v", got.Rows(), rel.Rows())
	}
	buf.Reset()
	if err := got.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("re-writing the read relation produced %x, golden file holds %x", buf.Bytes(), want)
	}
}

func TestEmptyRelationRoundTrip(t *testing.T) {
	rel := NewRelation(NewSchema("a"))
	var buf bytes.Buffer
	if err := rel.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRelation(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Schema().Len() != 1 {
		t.Errorf("got %d rows, %d cols", got.Len(), got.Schema().Len())
	}
}

func TestReadRelationErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("OPRL"),              // truncated after magic
		[]byte("OPRL\x01\x01a"),     // truncated rows header
		[]byte("OPRL\x01\x01a\x01"), // promised one row, none present
	}
	for i, b := range cases {
		if _, err := ReadRelation(bytes.NewReader(b)); err == nil {
			t.Errorf("case %d: corrupt input accepted", i)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(is []int64, fs []float64, ss []string) bool {
		rel := NewRelation(NewSchema("i", "f", "s"))
		n := len(is)
		if len(fs) < n {
			n = len(fs)
		}
		if len(ss) < n {
			n = len(ss)
		}
		for k := 0; k < n; k++ {
			fv := value.NewFloat(fs[k])
			if math.IsNaN(fs[k]) {
				fv = value.NullV // NaN breaks fingerprint comparison semantics
			}
			rel.Append(Row{value.NewInt(is[k]), fv, value.NewStr(ss[k])})
		}
		var buf bytes.Buffer
		if err := rel.Write(&buf); err != nil {
			return false
		}
		got, err := ReadRelation(&buf)
		if err != nil {
			return false
		}
		return got.Fingerprint() == rel.Fingerprint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestZeroColumnEncodingRejected(t *testing.T) {
	// "OPRL" + ncols=0 + absurd nrows: must error, not spin.
	b := append([]byte("OPRL"), 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	if _, err := ReadRelation(bytes.NewReader(b)); err == nil {
		t.Error("zero-column encoding accepted")
	}
}
