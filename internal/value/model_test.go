package value

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// refV is the reference model of the value cell: the 40-byte layout this
// package used before V shared one payload word between its kinds — an
// int64, a float64 and a string side by side — with the original method
// bodies (hash/fnv and all). It exists only here, as the oracle V is driven
// against: everything observable about a V must equal what the model says.
type refV struct {
	kind Kind
	i    int64 // Int payload; Bool uses 0/1
	f    float64
	s    string
}

func refInt(i int64) refV     { return refV{kind: Int, i: i} }
func refFloat(f float64) refV { return refV{kind: Float, f: f} }
func refStr(s string) refV    { return refV{kind: Str, s: s} }
func refBool(b bool) refV {
	var i int64
	if b {
		i = 1
	}
	return refV{kind: Bool, i: i}
}

func (v refV) Int() int64 {
	if v.kind != Int && v.kind != Bool {
		panic("value: Int() on " + v.kind.String())
	}
	return v.i
}

func (v refV) Float() float64 {
	switch v.kind {
	case Float:
		return v.f
	case Int, Bool:
		return float64(v.i)
	default:
		panic("value: Float() on " + v.kind.String())
	}
}

func (v refV) Str() string {
	if v.kind != Str {
		panic("value: Str() on " + v.kind.String())
	}
	return v.s
}

func (v refV) Bool() bool {
	if v.kind != Bool {
		panic("value: Bool() on " + v.kind.String())
	}
	return v.i != 0
}

func (v refV) IsNumeric() bool { return v.kind == Int || v.kind == Float }

func refCompare(a, b refV) int {
	if a.kind == Null || b.kind == Null {
		switch {
		case a.kind == Null && b.kind == Null:
			return 0
		case a.kind == Null:
			return -1
		default:
			return 1
		}
	}
	if a.IsNumeric() && b.IsNumeric() {
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case Str:
		return strings.Compare(a.s, b.s)
	case Bool:
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

func (v refV) Hash() uint64 {
	h := fnv.New64a()
	var buf [9]byte
	buf[0] = byte(v.kind)
	switch v.kind {
	case Int, Bool:
		putUint64(buf[1:], uint64(v.i))
		h.Write(buf[:])
	case Float:
		putUint64(buf[1:], math.Float64bits(v.f))
		h.Write(buf[:])
	case Str:
		h.Write(buf[:1])
		h.Write([]byte(v.s))
	default:
		h.Write(buf[:1])
	}
	return h.Sum64()
}

func (v refV) AppendKey(b []byte) []byte {
	b = append(b, byte(v.kind))
	switch v.kind {
	case Int, Bool:
		var p [8]byte
		putUint64(p[:], uint64(v.i))
		return append(b, p[:]...)
	case Float:
		var p [8]byte
		putUint64(p[:], math.Float64bits(v.f))
		return append(b, p[:]...)
	case Str:
		var p [4]byte
		n := uint32(len(v.s))
		p[0], p[1], p[2], p[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
		return append(append(b, p[:]...), v.s...)
	default:
		return b
	}
}

func (v refV) EncodedSize() int {
	switch v.kind {
	case Null:
		return 1
	case Int, Float:
		return 9
	case Bool:
		return 2
	case Str:
		return 1 + 4 + len(v.s)
	default:
		return 1
	}
}

func (v refV) String() string {
	switch v.kind {
	case Null:
		return "NULL"
	case Int:
		return strconv.FormatInt(v.i, 10)
	case Float:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case Str:
		return v.s
	case Bool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

func refParse(s string) refV {
	switch s {
	case "NULL", "null":
		return refV{}
	case "true":
		return refBool(true)
	case "false":
		return refBool(false)
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return refInt(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return refFloat(f)
	}
	return refStr(s)
}

// TestSizeofV is the layout budget: the cell is at most two words.
func TestSizeofV(t *testing.T) {
	if got := unsafe.Sizeof(V{}); got > 16 {
		t.Fatalf("unsafe.Sizeof(value.V{}) = %d, want <= 16", got)
	}
	if got := unsafe.Sizeof(refV{}); got != 40 {
		t.Fatalf("the reference model is %d bytes, not the 40-byte layout it stands for", got)
	}
}

// spec names one value independently of either representation: which
// constructor to call and with what.
type spec struct {
	kind Kind
	i    int64
	bits uint64 // Float payload as IEEE bits, so NaN payloads survive
	s    string
}

func (sp spec) build() (V, refV) {
	switch sp.kind % 5 {
	case Int:
		return NewInt(sp.i), refInt(sp.i)
	case Float:
		f := math.Float64frombits(sp.bits)
		return NewFloat(f), refFloat(f)
	case Str:
		return NewStr(sp.s), refStr(sp.s)
	case Bool:
		return NewBool(sp.i&1 == 1), refBool(sp.i&1 == 1)
	default:
		return NullV, refV{}
	}
}

// observe runs f and reports its result, or the panic message it died with:
// the accessors' kind-mismatch panics are part of the contract too.
func observe[T any](f func() T) (out string) {
	defer func() {
		if r := recover(); r != nil {
			out = fmt.Sprint("panic: ", r)
		}
	}()
	return fmt.Sprintf("%#v", f())
}

// checkAgainstModel compares everything observable about v with the model.
func checkAgainstModel(t testing.TB, v V, m refV) {
	t.Helper()
	if v.Kind() != m.kind {
		t.Fatalf("Kind %v, model %v", v.Kind(), m.kind)
	}
	if v.IsNull() != (m.kind == Null) || v.IsNumeric() != m.IsNumeric() {
		t.Fatalf("%v: IsNull/IsNumeric disagree with the model", m)
	}
	for name, pair := range map[string][2]string{
		"Int":   {observe(v.Int), observe(m.Int)},
		"Str":   {observe(v.Str), observe(m.Str)},
		"Bool":  {observe(v.Bool), observe(m.Bool)},
		"Float": {observe(func() uint64 { return math.Float64bits(v.Float()) }), observe(func() uint64 { return math.Float64bits(m.Float()) })},
	} {
		if pair[0] != pair[1] {
			t.Fatalf("%v: %s() = %s, model %s", m, name, pair[0], pair[1])
		}
	}
	if v.Hash() != m.Hash() {
		t.Fatalf("%v: Hash %#x, model %#x", m, v.Hash(), m.Hash())
	}
	if v.EncodedSize() != m.EncodedSize() {
		t.Fatalf("%v: EncodedSize %d, model %d", m, v.EncodedSize(), m.EncodedSize())
	}
	if v.String() != m.String() {
		t.Fatalf("String %q, model %q", v.String(), m.String())
	}
	prefix := []byte{0xAA, 0xBB}
	if got, want := v.AppendKey(append([]byte(nil), prefix...)), m.AppendKey(append([]byte(nil), prefix...)); !bytes.Equal(got, want) {
		t.Fatalf("%v: AppendKey %x, model %x", m, got, want)
	}
}

// checkPair drives both representations of two values through every
// constructor, accessor and function of the package and fails on the first
// observable difference.
func checkPair(t testing.TB, a, b spec) {
	t.Helper()
	va, ma := a.build()
	vb, mb := b.build()
	checkAgainstModel(t, va, ma)
	checkAgainstModel(t, vb, mb)
	if got, want := Compare(va, vb), refCompare(ma, mb); got != want {
		t.Fatalf("Compare(%v, %v) = %d, model %d", ma, mb, got, want)
	}
	if got, want := Equal(va, vb), refCompare(ma, mb) == 0; got != want {
		t.Fatalf("Equal(%v, %v) = %v, model %v", ma, mb, got, want)
	}
	// Identical is the identity AppendKey encodes.
	if got, want := Identical(va, vb), bytes.Equal(ma.AppendKey(nil), mb.AppendKey(nil)); got != want {
		t.Fatalf("Identical(%v, %v) = %v, key encodings equal = %v", ma, mb, got, want)
	}
	pv, pm := Parse(va.String()), refParse(ma.String())
	checkAgainstModel(t, pv, pm)
	// A value survives being copied through a slice of cells (what every row is).
	cells := append([]V(nil), va, vb)
	checkAgainstModel(t, cells[0], ma)
	checkAgainstModel(t, cells[1], mb)
}

var modelCorpus = func() []spec {
	long := strings.Repeat("multi-KB string payload ", 200) // 4.8 KB
	sps := []spec{
		{kind: Null},
		{kind: Bool, i: 0}, {kind: Bool, i: 1},
		{kind: Str, s: ""}, {kind: Str, s: "a"}, {kind: Str, s: "abc"}, {kind: Str, s: "abd"}, {kind: Str, s: "abcd"},
		{kind: Str, s: "NULL"}, {kind: Str, s: "true"}, {kind: Str, s: "12"}, {kind: Str, s: "1e3"}, {kind: Str, s: "-0"},
		{kind: Str, s: "\x00"}, {kind: Str, s: "héllo wörld"}, {kind: Str, s: long}, {kind: Str, s: long + "x"}, {kind: Str, s: long[:len(long)-1] + "y"},
		// Empty strings whose data pointer is not that of "": the end of a
		// heap string and the head of one sliced to nothing.
		{kind: Str, s: long[len(long):]}, {kind: Str, s: long[:0]},
	}
	for _, i := range []int64{0, 1, -1, 2, 42, math.MaxInt64, math.MinInt64, 1 << 53, 1<<53 + 1, -(1 << 53) - 1} {
		sps = append(sps, spec{kind: Int, i: i})
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 2.5, 1 << 53, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()} {
		sps = append(sps, spec{kind: Float, bits: math.Float64bits(f)})
	}
	// NaNs with distinct payloads and signs.
	for _, bits := range []uint64{0x7ff8000000000abc, 0xfff8000000000001, 0x7ff0000000000001} {
		sps = append(sps, spec{kind: Float, bits: bits})
	}
	return sps
}()

// TestValueModelProperty holds the 16-byte V to the 40-byte reference model
// over a hand-picked corpus (every pair) and a seeded random sample.
func TestValueModelProperty(t *testing.T) {
	for _, a := range modelCorpus {
		for _, b := range modelCorpus {
			checkPair(t, a, b)
		}
	}
	rng := rand.New(rand.NewSource(17))
	randSpec := func() spec {
		buf := make([]byte, rng.Intn(40))
		rng.Read(buf)
		sp := spec{kind: Kind(rng.Intn(5)), i: int64(rng.Uint64()), bits: rng.Uint64(), s: string(buf)}
		if rng.Intn(4) == 0 {
			sp.s = "shared-prefix-" + sp.s // strings that share a prefix
		}
		if rng.Intn(8) == 0 {
			sp.i = int64(rng.Intn(5)) - 2
			sp.bits = math.Float64bits(float64(sp.i))
		}
		return sp
	}
	for n := 0; n < 20000; n++ {
		checkPair(t, randSpec(), randSpec())
	}
}

// FuzzValueModel is the same property as a native fuzz target.
func FuzzValueModel(f *testing.F) {
	for i, a := range modelCorpus {
		b := modelCorpus[(i*7+3)%len(modelCorpus)]
		f.Add(uint8(a.kind), a.i, a.bits, a.s, uint8(b.kind), b.i, b.bits, b.s)
	}
	// Every kind next to an empty string, in both orders.
	for k := Null; k <= Bool; k++ {
		f.Add(uint8(k), int64(1), uint64(0), "", uint8(Str), int64(0), uint64(0), "")
		f.Add(uint8(Str), int64(0), uint64(0), "", uint8(k), int64(1), uint64(0), "")
	}
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, fa uint64, sa string, kb uint8, ib int64, fb uint64, sb string) {
		checkPair(t, spec{Kind(ka), ia, fa, sa}, spec{Kind(kb), ib, fb, sb})
	})
}
