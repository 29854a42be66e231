package storage

import (
	"fmt"

	"opportune/internal/data"
)

// Index is a hash index over one column of a stored relation: encoded key
// (data.KeyEncoder.KeyOf, the encoding a shuffle join groups by) → the
// positions of the rows holding it, ascending. Null values are not indexed:
// a null key never joins. An index is immutable once built, so concurrent
// map tasks share it without locking.
type Index struct {
	rel  *data.Relation
	keys map[string]postings
}

// postings is one key's row positions and their total encoded size — what a
// lookup of the key serves.
type postings struct {
	pos   []int32
	bytes int64
}

func buildIndex(rel *data.Relation, col string) (*Index, error) {
	c, ok := rel.Schema().Index(col)
	if !ok {
		return nil, fmt.Errorf("storage: index column %q not in %v", col, rel.Schema())
	}
	ix := &Index{rel: rel, keys: make(map[string]postings)}
	var enc data.KeyEncoder
	for i, r := range rel.Rows() {
		if r[c].IsNull() {
			continue
		}
		k := enc.KeyOf(r[c])
		p := ix.keys[k]
		p.pos = append(p.pos, int32(i))
		p.bytes += int64(r.EncodedSize())
		ix.keys[k] = p
	}
	return ix, nil
}

// Lookup returns the positions of the rows whose indexed value encodes to
// key, ascending, and their total encoded size.
func (ix *Index) Lookup(key string) ([]int32, int64) {
	p := ix.keys[key]
	return p.pos, p.bytes
}

// Row returns the indexed relation's row at a position Lookup returned.
func (ix *Index) Row(pos int32) data.Row { return ix.rel.Row(int(pos)) }

// Len is the number of rows the index covers: the relation it was built on.
func (ix *Index) Len() int { return ix.rel.Len() }

// Bytes is the encoded size of the relation the index covers.
func (ix *Index) Bytes() int64 { return ix.rel.EncodedSize() }

// Index returns the hash index of a dataset's column, building it on first
// use. The index lives on the Dataset, so Put, Refresh and Delete drop it
// with the bytes it covers. Opening an index is a read of the dataset: a
// scripted read fault fails it before anything is served, and a build
// counts one read of the whole dataset (built reports it). Lookups count
// nothing here; the caller charges the bytes they matched with CountProbe.
func (s *Store) Index(name, col string) (ix *Index, built bool, err error) {
	s.mu.Lock()
	d, ok := s.datasets[name]
	if !ok {
		s.mu.Unlock()
		return nil, false, fmt.Errorf("storage: dataset %q %w", name, ErrNotFound)
	}
	if err := s.readFaultLocked(name); err != nil {
		s.mu.Unlock()
		return nil, false, err
	}
	s.mu.Unlock()

	// Builds run outside the store lock; the dataset's own lock makes
	// concurrent openers of one column wait for a single build.
	d.idxMu.Lock()
	defer d.idxMu.Unlock()
	if ix := d.indexes[col]; ix != nil {
		return ix, false, nil
	}
	if ix, err = buildIndex(d.rel, col); err != nil {
		return nil, false, err
	}
	if d.indexes == nil {
		d.indexes = make(map[string]*Index)
	}
	d.indexes[col] = ix
	s.mu.Lock()
	s.countReadLocked(d)
	if s.obsReg != nil { // resolved per build, like evictions: most runs build none
		s.obsReg.Counter("storage_index_builds_total").Inc()
	}
	s.mu.Unlock()
	return ix, true, nil
}

// CountProbe counts bytes that index lookups served as read: the rows a
// probe matched, not the dataset it probed.
func (s *Store) CountProbe(bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters.BytesRead += bytes
	s.obsReadBytes.Add(bytes)
}

// Indexes maps each column the dataset holds a hash index on to the number
// of rows that index covers.
func (d *Dataset) Indexes() map[string]int {
	d.idxMu.Lock()
	defer d.idxMu.Unlock()
	out := make(map[string]int, len(d.indexes))
	for col, ix := range d.indexes {
		out[col] = ix.Len()
	}
	return out
}
