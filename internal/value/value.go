// Package value defines the scalar value model used throughout the system.
//
// Rows flowing through the MapReduce engine are vectors of Values. Values
// are small immutable structs (no interface boxing) with deterministic
// ordering, hashing, and a wire encoding whose length feeds the byte
// accounting that the cost model and the storage layer rely on.
//
// This file holds the repository's only use of package unsafe: a string
// payload is kept as its data pointer and length so that the cell is three
// words instead of five (see V).
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
// The cell is 24 bytes. A value is only ever one kind, so the kinds share
// one payload word: n holds an Int's two's-complement bits, a Bool's 0/1, a
// Float's IEEE-754 bits, or a Str's length. p is the Str's data pointer (what
// unsafe.StringData returns) and nil for every other kind; it is a typed
// pointer, so the garbage collector keeps the string's bytes alive exactly
// as the string header it replaces did, and n is never interpreted as an
// address. Every row, shuffle record, accumulator and stored view is a
// vector of these cells, so the width is paid per value held in memory.
//
// Two V must never be compared with == or reflect.DeepEqual: that compares
// the data pointer, not the bytes it points to. The leading zero-size field
// makes == (and use as a map key) a compile error; DeepEqual is policed by
// internal/data's canary test. Use Identical (same kind, same payload),
// Equal/Compare (SQL ordering), or data.Row.Equal and friends.
type V struct {
	_    [0]func()
	p    *byte
	n    uint64
	kind Kind
}

// NullV is the null value.
var NullV = V{}

// NewInt returns an Int value.
func NewInt(i int64) V { return V{kind: Int, n: uint64(i)} }

// NewFloat returns a Float value.
func NewFloat(f float64) V { return V{kind: Float, n: math.Float64bits(f)} }

// NewStr returns a Str value. It shares s's bytes (strings are immutable).
func NewStr(s string) V { return V{kind: Str, p: unsafe.StringData(s), n: uint64(len(s))} }

// NewBool returns a Bool value.
func NewBool(b bool) V {
	var n uint64
	if b {
		n = 1
	}
	return V{kind: Bool, n: n}
}

// Kind reports the value's kind.
func (v V) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v V) IsNull() bool { return v.kind == Null }

// Int returns the integer payload. It panics on kind mismatch; use it only
// after checking Kind.
func (v V) Int() int64 {
	if v.kind != Int && v.kind != Bool {
		panic("value: Int() on " + v.kind.String())
	}
	return int64(v.n)
}

// Float returns the numeric payload widened to float64. Valid for Int and
// Float values.
func (v V) Float() float64 {
	switch v.kind {
	case Float:
		return math.Float64frombits(v.n)
	case Int, Bool:
		return float64(int64(v.n))
	default:
		panic("value: Float() on " + v.kind.String())
	}
}

// Str returns the string payload. It panics on kind mismatch.
func (v V) Str() string {
	if v.kind != Str {
		panic("value: Str() on " + v.kind.String())
	}
	return v.str()
}

// str rebuilds the string header of a Str value (p is nil only when n is 0).
func (v V) str() string { return unsafe.String(v.p, int(v.n)) }

// Bool returns the boolean payload. It panics on kind mismatch.
func (v V) Bool() bool {
	if v.kind != Bool {
		panic("value: Bool() on " + v.kind.String())
	}
	return v.n != 0
}

// IsNumeric reports whether the value is Int or Float.
func (v V) IsNumeric() bool { return v.kind == Int || v.kind == Float }

// Compare orders two values. Nulls sort first; numeric kinds compare by
// numeric value across Int/Float; otherwise values of different kinds order
// by kind. Returns -1, 0, or +1.
func Compare(a, b V) int {
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
	if a.kind != b.kind {
		return false
	}
	if a.kind == Str {
		return a.str() == b.str()
	}
	return a.n == b.n
}

// Hash returns a deterministic 64-bit hash of the value, consistent with
// Equal for same-kind values.
// Hash is FNV-1a over the kind tag followed by the payload (Int/Bool/Float:
// the 8 little-endian bytes of the payload word; Str: the string's bytes).
func (v V) Hash() uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := (uint64(offset64) ^ uint64(v.kind)) * prime64
	switch v.kind {
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
	b = append(b, byte(v.kind))
	switch v.kind {
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
	switch v.kind {
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
	switch v.kind {
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
