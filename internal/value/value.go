// Package value defines the scalar value model used throughout the system.
//
// Rows flowing through the MapReduce engine are vectors of Values. Values
// are small immutable structs (no interface boxing) with deterministic
// ordering, hashing, and a wire encoding whose length feeds the byte
// accounting that the cost model and the storage layer rely on.
//
// This file holds the repository's only use of package unsafe: a string
// payload is kept as its data pointer and length, and the other kinds are
// told apart by that pointer too, so that the cell is two words instead of
// five (see V).
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates the scalar types supported by the engine.
type Kind uint8

const (
	// Null is the zero Kind: an absent value (logs are dirty; many
	// attributes, e.g. tweet geo coordinates, can be missing).
	Null Kind = iota
	// Int is a 64-bit signed integer.
	Int
	// Float is a 64-bit IEEE float.
	Float
	// Str is a UTF-8 string.
	Str
	// Bool is a boolean.
	Bool
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case Null:
		return "null"
	case Int:
		return "int"
	case Float:
		return "float"
	case Str:
		return "string"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// V is a single scalar value. The zero V is Null.
//
// The cell is two words, 16 bytes: a pointer p that also says the kind, and
// a payload word n. Null is p == nil, n == 0 (so the zero V is NullV). A
// non-zero Int is p == nil with its two's-complement bits in n, so the
// commonest cell holds no pointer for the garbage collector to look up;
// Int 0, Float and Bool point at their kind's tag byte (intTag, floatTag,
// boolTag) with the payload in n (0, the IEEE-754 bits, 0/1). A non-empty
// Str keeps its data pointer (what unsafe.StringData returns) in p and its
// length in n; the empty Str points at emptyTag instead, because the data
// pointer of an empty string is unspecified (it may be nil, or point just
// past another object). The kind is read back by comparing p with nil and
// the tag addresses, never by arithmetic on it: p is a typed pointer, so
// the garbage collector keeps a string's bytes alive exactly as the string
// header it replaces did, and n is never interpreted as an address. Every
// row, shuffle record, accumulator and stored view is a vector of these
// cells, so the width is paid per value held in memory.
//
// Two V must never be compared with == or reflect.DeepEqual: that compares
// the data pointer, not the bytes it points to. The leading zero-size field
// makes == (and use as a map key) a compile error; DeepEqual is policed by
// internal/data's canary test. Use Identical (same kind, same payload),
// Equal/Compare (SQL ordering), or data.Row.Equal and friends.
type V struct {
	_ [0]func()
	p *byte
	n uint64
}

// The kind tags. Only their addresses matter: no tag byte is ever read or
// written, and no string's data pointer can be one of them, since strings
// are made from these bytes nowhere.
var intTag, floatTag, boolTag, emptyTag byte

// NullV is the null value.
var NullV = V{}

// NewInt returns an Int value.
func NewInt(i int64) V {
	if i == 0 {
		return V{p: &intTag}
	}
	return V{n: uint64(i)}
}

// NewFloat returns a Float value.
func NewFloat(f float64) V { return V{p: &floatTag, n: math.Float64bits(f)} }

// NewStr returns a Str value. It shares s's bytes (strings are immutable).
func NewStr(s string) V {
	if len(s) == 0 {
		return V{p: &emptyTag}
	}
	return V{p: unsafe.StringData(s), n: uint64(len(s))}
}

// NewBool returns a Bool value.
func NewBool(b bool) V {
	var n uint64
	if b {
		n = 1
	}
	return V{p: &boolTag, n: n}
}

// Kind reports the value's kind.
func (v V) Kind() Kind {
	switch v.p {
	case nil:
		if v.n != 0 {
			return Int
		}
		return Null
	case &intTag:
		return Int
	case &floatTag:
		return Float
	case &boolTag:
		return Bool
	default:
		return Str
	}
}

// IsNull reports whether the value is null.
func (v V) IsNull() bool { return v.p == nil && v.n == 0 }

// Int returns the integer payload. It panics on kind mismatch; use it only
// after checking Kind.
func (v V) Int() int64 {
	if k := v.Kind(); k != Int && k != Bool {
		panic("value: Int() on " + k.String())
	}
	return int64(v.n)
}

// Float returns the numeric payload widened to float64. Valid for Int and
// Float values.
func (v V) Float() float64 {
	switch v.Kind() {
	case Float:
		return math.Float64frombits(v.n)
	case Int, Bool:
		return float64(int64(v.n))
	default:
		panic("value: Float() on " + v.Kind().String())
	}
}

// Str returns the string payload. It panics on kind mismatch.
func (v V) Str() string {
	if v.Kind() != Str {
		panic("value: Str() on " + v.Kind().String())
	}
	return v.str()
}

// str rebuilds the string header of a Str value (the empty Str's n is 0, so
// its tag pointer is never read through).
func (v V) str() string { return unsafe.String(v.p, int(v.n)) }

// Bool returns the boolean payload. It panics on kind mismatch.
func (v V) Bool() bool {
	if v.p != &boolTag {
		panic("value: Bool() on " + v.Kind().String())
	}
	return v.n != 0
}

// IsNumeric reports whether the value is Int or Float.
func (v V) IsNumeric() bool { k := v.Kind(); return k == Int || k == Float }

// Compare orders two values. Nulls sort first; numeric kinds compare by
// numeric value across Int/Float; otherwise values of different kinds order
// by kind. Returns -1, 0, or +1.
func Compare(a, b V) int {
	if an, bn := a.IsNull(), b.IsNull(); an || bn {
		switch {
		case an && bn:
			return 0
		case an:
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
	ka, kb := a.Kind(), b.Kind()
	if ka != kb {
		if ka < kb {
			return -1
		}
		return 1
	}
	switch ka {
	case Str:
		return strings.Compare(a.str(), b.str())
	case Bool:
		switch {
		case a.n < b.n:
			return -1
		case a.n > b.n:
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

// Equal reports whether two values compare equal under Compare.
func Equal(a, b V) bool { return Compare(a, b) == 0 }

// Identical reports whether two values are the same value: same Kind and
// same payload, floats by their IEEE bits — so NaN is identical to itself,
// +0 is not identical to -0, and Int(1) is not Float(1). It is the identity
// AppendKey encodes, and what a byte-identity oracle must compare with
// (Equal is the coarser SQL-ordering equality).
func Identical(a, b V) bool {
	if a.p == b.p {
		// Both nil (Null or a non-zero Int, told apart by n), the same kind
		// tag, or the same string bytes: equal payload words mean the same
		// value (a Str's n is its length).
		return a.n == b.n
	}
	return a.Kind() == Str && b.Kind() == Str && a.str() == b.str()
}

// Hash returns a deterministic 64-bit hash of the value, consistent with
// Equal for same-kind values.
// Hash is FNV-1a over the kind tag followed by the payload (Int/Bool/Float:
// the 8 little-endian bytes of the payload word; Str: the string's bytes).
func (v V) Hash() uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	k := v.Kind()
	h := (uint64(offset64) ^ uint64(k)) * prime64
	switch k {
	case Int, Bool, Float:
		for s := 0; s < 64; s += 8 {
			h = (h ^ (v.n >> s & 0xff)) * prime64
		}
	case Str:
		for s := v.str(); len(s) > 0; s = s[1:] {
			h = (h ^ uint64(s[0])) * prime64
		}
	}
	return h
}

func putUint64(b []byte, u uint64) {
	_ = b[7]
	b[0] = byte(u)
	b[1] = byte(u >> 8)
	b[2] = byte(u >> 16)
	b[3] = byte(u >> 24)
	b[4] = byte(u >> 32)
	b[5] = byte(u >> 40)
	b[6] = byte(u >> 48)
	b[7] = byte(u >> 56)
}

// AppendKey appends the value's canonical key encoding to b and returns the
// extended slice: a 1-byte kind tag, then a fixed-width payload (Int/Bool as
// 8 little-endian bytes, Float as its IEEE bits) or, for strings, a 4-byte
// little-endian length prefix followed by the bytes. The encoding is
// injective — two values encode identically iff they are identical — and
// prefix-free per column, so multi-column keys built by concatenation never
// collide across column boundaries.
func (v V) AppendKey(b []byte) []byte {
	k := v.Kind()
	b = append(b, byte(k))
	switch k {
	case Int, Bool, Float:
		var p [8]byte
		putUint64(p[:], v.n)
		return append(b, p[:]...)
	case Str:
		var p [4]byte
		n := uint32(v.n)
		p[0], p[1], p[2], p[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
		return append(append(b, p[:]...), v.str()...)
	default:
		return b
	}
}

// EncodedSize returns the number of bytes the value occupies in the
// simulated on-disk representation: a 1-byte kind tag plus the payload.
// This is the unit the storage layer and cost model account in.
func (v V) EncodedSize() int {
	switch v.Kind() {
	case Null:
		return 1
	case Int, Float:
		return 9
	case Bool:
		return 2
	case Str:
		return 1 + 4 + int(v.n)
	default:
		return 1
	}
}

// String renders the value for display and for canonical forms (predicates,
// signatures). Floats use the shortest round-trip representation.
func (v V) String() string {
	switch v.Kind() {
	case Null:
		return "NULL"
	case Int:
		return strconv.FormatInt(int64(v.n), 10)
	case Float:
		return strconv.FormatFloat(math.Float64frombits(v.n), 'g', -1, 64)
	case Str:
		return v.str()
	case Bool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// Parse converts a literal string to a value: integers, floats, true/false,
// NULL, otherwise a string.
func Parse(s string) V {
	switch s {
	case "NULL", "null":
		return NullV
	case "true":
		return NewBool(true)
	case "false":
		return NewBool(false)
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return NewInt(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return NewFloat(f)
	}
	return NewStr(s)
}
