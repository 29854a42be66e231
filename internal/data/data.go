// Package data defines schemas, rows, and in-memory relations — the tuple
// substrate the MapReduce engine executes over.
package data

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync/atomic"

	"opportune/internal/value"
)

// Schema is an ordered list of column names. Column order matters for row
// layout; name lookup is by linear scan (schemas are narrow).
type Schema struct {
	cols []string
	idx  map[string]int
}

// NewSchema builds a schema from column names. Duplicate names panic: a
// relation cannot have two columns with the same name.
func NewSchema(cols ...string) *Schema {
	s := &Schema{cols: append([]string(nil), cols...), idx: make(map[string]int, len(cols))}
	for i, c := range cols {
		if _, dup := s.idx[c]; dup {
			panic(fmt.Sprintf("data: duplicate column %q in schema", c))
		}
		s.idx[c] = i
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Cols returns the column names in order. The caller must not mutate it.
func (s *Schema) Cols() []string { return s.cols }

// Index returns the position of a column and whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.idx[name]
	return i, ok
}

// MustIndex returns the position of a column, panicking if absent. Used by
// compiled operators whose columns were validated at plan time.
func (s *Schema) MustIndex(name string) int {
	i, ok := s.idx[name]
	if !ok {
		panic(fmt.Sprintf("data: column %q not in schema [%s]", name, strings.Join(s.cols, ",")))
	}
	return i
}

// Has reports whether the schema contains the column.
func (s *Schema) Has(name string) bool { _, ok := s.idx[name]; return ok }

// Equal reports whether two schemas have identical columns in identical order.
func (s *Schema) Equal(o *Schema) bool {
	if s.Len() != o.Len() {
		return false
	}
	for i := range s.cols {
		if s.cols[i] != o.cols[i] {
			return false
		}
	}
	return true
}

// Project returns a new schema containing the named columns in the given order.
func (s *Schema) Project(cols ...string) *Schema {
	for _, c := range cols {
		if !s.Has(c) {
			panic(fmt.Sprintf("data: project: column %q not in schema", c))
		}
	}
	return NewSchema(cols...)
}

// String renders the schema as "(a, b, c)".
func (s *Schema) String() string { return "(" + strings.Join(s.cols, ", ") + ")" }

// Row is a vector of values aligned with a Schema.
type Row []value.V

// Clone returns a deep-enough copy (values are immutable).
func (r Row) Clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// Equal reports whether two rows hold identical values cell for cell
// (value.Identical: same kind, same payload, floats by IEEE bits). This is
// the comparison differential oracles use; reflect.DeepEqual and == must not
// be applied to anything containing a value.V.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !value.Identical(r[i], o[i]) {
			return false
		}
	}
	return true
}

// RowsEqual reports whether two row lists are Equal row for row, in order.
func RowsEqual(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// EncodedSize is the simulated on-disk size of the row in bytes: a 4-byte
// length header plus each value's encoding.
func (r Row) EncodedSize() int {
	n := 4
	for _, v := range r {
		n += v.EncodedSize()
	}
	return n
}

// Relation is an in-memory table: a schema plus rows. It is the unit stored
// in the simulated HDFS and passed between MR phases.
//
// A relation knows its encoded size: every mutator adds the bytes of the
// rows it appends, so EncodedSize is O(1) and a job output is measured once,
// where it is built, instead of being re-walked by every layer that accounts
// for it. The price is that rows are immutable once appended — which the
// engine already relies on, since stored relations are shared between
// concurrently running plans.
type Relation struct {
	schema *Schema
	rows   []Row
	size   int64 // Σ rows[i].EncodedSize()

	// extended is set by the Extend that wrote into rows' spare capacity:
	// that tail now belongs to the extension, so the next Extend copies.
	extended atomic.Bool
}

// NewRelation creates an empty relation with the given schema.
func NewRelation(schema *Schema) *Relation {
	return &Relation{schema: schema}
}

// Schema returns the relation's schema.
func (rel *Relation) Schema() *Schema { return rel.schema }

// Len returns the row count.
func (rel *Relation) Len() int { return len(rel.rows) }

// Rows returns the backing slice. Callers must treat it — and every row in
// it — as read-only. Its capacity ends at its length: the spare capacity
// past it may hold an Extend's rows.
func (rel *Relation) Rows() []Row { return rel.rows[:len(rel.rows):len(rel.rows)] }

// Row returns row i.
func (rel *Relation) Row(i int) Row { return rel.rows[i] }

// checkWidth panics on a row that does not match the schema.
func (rel *Relation) checkWidth(r Row) {
	if len(r) != rel.schema.Len() {
		panic(fmt.Sprintf("data: row width %d != schema width %d", len(r), rel.schema.Len()))
	}
}

// Append adds a row. The row length must match the schema.
func (rel *Relation) Append(r Row) {
	rel.checkWidth(r)
	rel.rows = append(rel.rows, r)
	rel.size += int64(r.EncodedSize())
}

// AppendSized adds a run of rows whose total encoded size the caller has
// already measured (bytes must equal Σ rows[i].EncodedSize(); a producer
// that built the rows knows it without a second walk). Widths are checked
// like Append.
func (rel *Relation) AppendSized(rows []Row, bytes int64) {
	for _, r := range rows {
		rel.checkWidth(r)
	}
	rel.rows = append(rel.rows, rows...)
	rel.size += bytes
}

// Grow pre-allocates capacity for at least n more rows (no-op for n <= 0).
func (rel *Relation) Grow(n int) {
	if n <= 0 || cap(rel.rows)-len(rel.rows) >= n {
		return
	}
	rows := make([]Row, len(rel.rows), len(rel.rows)+n)
	copy(rows, rel.rows)
	rel.rows = rows
}

// Extend returns a new relation holding rel's rows followed by rows (widths
// checked like Append), leaving rel as it was: readers of rel keep seeing
// exactly its rows. The first Extend of a relation with enough spare
// capacity shares rel's backing array — the new rows land past rel's
// length, where no reader of rel looks — so appending to a log costs the
// appended rows, not the log. Every other Extend copies into a fresh array
// of twice the needed length, which the result's own Extend then shares.
// rel must not be appended to in place afterwards.
func (rel *Relation) Extend(rows []Row) *Relation {
	var size int64
	for _, r := range rows {
		rel.checkWidth(r)
		size += int64(r.EncodedSize())
	}
	out := &Relation{schema: rel.schema, size: rel.size + size}
	n := len(rel.rows) + len(rows)
	if cap(rel.rows) >= n && rel.extended.CompareAndSwap(false, true) {
		out.rows = append(rel.rows, rows...)
		return out
	}
	out.rows = append(make([]Row, 0, 2*n), rel.rows...)
	out.rows = append(out.rows, rows...)
	return out
}

// EncodedSize is the total simulated byte size of all rows.
func (rel *Relation) EncodedSize() int64 { return rel.size }

// Equal reports whether two relations have equal schemas and RowsEqual rows
// (same rows in the same order).
func (rel *Relation) Equal(o *Relation) bool {
	return rel.schema.Equal(o.schema) && RowsEqual(rel.rows, o.rows)
}

// Get returns the value of the named column in row r.
func (rel *Relation) Get(r int, col string) value.V {
	return rel.rows[r][rel.schema.MustIndex(col)]
}

// KeyEncoder builds composite grouping keys into one reusable buffer, so a
// tight loop (a map task keying every row) performs at most one allocation
// per key — the returned string — instead of one per column, and none when
// the key repeats the previous one (clustered inputs, a sort's constant key,
// a join side's runs). Keys are the concatenated value.AppendKey encodings:
// length-prefixed, injective, and prefix-free per column, so distinct column
// tuples never collide. A KeyEncoder is not safe for concurrent use; give
// each task its own.
type KeyEncoder struct {
	buf  []byte
	last string // the key returned last, handed back while the bytes repeat
}

// Key encodes the values of the given column indexes of r.
func (e *KeyEncoder) Key(r Row, idxs []int) string {
	e.buf = e.buf[:0]
	for _, ix := range idxs {
		e.buf = r[ix].AppendKey(e.buf)
	}
	return e.intern()
}

// KeyOf encodes a single value (e.g. a join key).
func (e *KeyEncoder) KeyOf(v value.V) string {
	e.buf = v.AppendKey(e.buf[:0])
	return e.intern()
}

func (e *KeyEncoder) intern() string {
	if string(e.buf) != e.last { // the comparison does not allocate
		e.last = string(e.buf)
	}
	return e.last
}

// Key extracts the values of the given column indexes as a comparable
// grouping key string. Convenience form of KeyEncoder.Key for call sites
// outside per-tuple hot loops.
func Key(r Row, idxs []int) string {
	var e KeyEncoder
	return e.Key(r, idxs)
}

// KeyPrefix returns the encoded prefix of key covering its first cols
// column encodings, walking the self-delimiting value.AppendKey format
// (kind tag, then a fixed payload — Int/Bool/Float 8 bytes, Null none — or
// a 4-byte length-prefixed string). ok is false when the key is malformed
// or holds fewer than cols columns; callers must then fall back to a full
// shuffle rather than trust a truncated route.
func KeyPrefix(key string, cols int) (string, bool) {
	if cols <= 0 {
		return "", false
	}
	pos := 0
	for c := 0; c < cols; c++ {
		if pos >= len(key) {
			return "", false
		}
		kind := value.Kind(key[pos])
		pos++
		switch kind {
		case value.Null:
			// tag only
		case value.Int, value.Bool, value.Float:
			pos += 8
		case value.Str:
			if pos+4 > len(key) {
				return "", false
			}
			n := int(uint32(key[pos]) | uint32(key[pos+1])<<8 | uint32(key[pos+2])<<16 | uint32(key[pos+3])<<24)
			pos += 4 + n
		default:
			return "", false
		}
		if pos > len(key) {
			return "", false
		}
	}
	return key[:pos], true
}

// DistinctCount returns the number of distinct values in the named column.
func (rel *Relation) DistinctCount(col string) int {
	ix := rel.schema.MustIndex(col)
	seen := make(map[string]struct{})
	for _, r := range rel.rows {
		seen[r[ix].String()] = struct{}{}
	}
	return len(seen)
}

// Fingerprint returns a deterministic hash of schema + all row contents,
// independent of row order. Used by tests to check result equivalence
// between original and rewritten plans.
func (rel *Relation) Fingerprint() uint64 {
	rowHashes := make([]uint64, 0, len(rel.rows))
	for _, r := range rel.rows {
		h := fnv.New64a()
		for _, v := range r {
			var b [8]byte
			u := v.Hash()
			for i := 0; i < 8; i++ {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
		rowHashes = append(rowHashes, h.Sum64())
	}
	sort.Slice(rowHashes, func(a, b int) bool { return rowHashes[a] < rowHashes[b] })
	h := fnv.New64a()
	h.Write([]byte(rel.schema.String()))
	for _, u := range rowHashes {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}
