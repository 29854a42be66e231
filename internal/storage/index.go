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
	ids  map[string]int32 // encoded key → its postings in post
	post []postings
}

// postings is one key's row positions and their total encoded size — what a
// lookup of the key serves.
type postings struct {
	pos   []int32
	bytes int64
}

// buildIndex indexes rel's column col in one pass over the rows: each key is
// encoded into one reused buffer and resolved to a dense id (a lookup by the
// buffer's bytes allocates nothing, so only a new key pays for its string),
// counting each key's rows and bytes. The postings are then cut from one
// array by those counts and filled in row order, so each ascends.
func buildIndex(rel *data.Relation, col string) (*Index, error) {
	c, ok := rel.Schema().Index(col)
	if !ok {
		return nil, fmt.Errorf("storage: index column %q not in %v", col, rel.Schema())
	}
	rows := rel.Rows()
	ix := &Index{rel: rel, ids: make(map[string]int32)}
	rowID := make([]int32, len(rows)) // -1 for a null key
	var counts []int32
	var buf []byte
	total := int32(0)
	for i, r := range rows {
		if r[c].IsNull() {
			rowID[i] = -1
			continue
		}
		buf = r[c].AppendKey(buf[:0])
		id, seen := ix.ids[string(buf)]
		if !seen {
			id = int32(len(ix.post))
			ix.ids[string(buf)] = id
			ix.post = append(ix.post, postings{})
			counts = append(counts, 0)
		}
		counts[id]++
		total++
		ix.post[id].bytes += int64(r.EncodedSize())
		rowID[i] = id
	}
	all, off := make([]int32, total), int32(0)
	for id, n := range counts {
		ix.post[id].pos = all[off : off : off+n]
		off += n
	}
	for i, id := range rowID {
		if id >= 0 {
			ix.post[id].pos = append(ix.post[id].pos, int32(i))
		}
	}
	return ix, nil
}

// Lookup returns the positions of the rows whose indexed value encodes to
// key, ascending, and their total encoded size.
func (ix *Index) Lookup(key string) ([]int32, int64) {
	id, ok := ix.ids[key]
	if !ok {
		return nil, 0
	}
	return ix.post[id].pos, ix.post[id].bytes
}

// Row returns the indexed relation's row at a position Lookup returned.
func (ix *Index) Row(pos int32) data.Row { return ix.rel.Row(int(pos)) }

// Len is the number of rows the index covers: the relation it was built on.
func (ix *Index) Len() int { return ix.rel.Len() }

// Bytes is the encoded size of the relation the index covers.
func (ix *Index) Bytes() int64 { return ix.rel.EncodedSize() }

// Index returns the hash index of column col of the version d (a handle
// Meta or Put returned), building it on first use. The index lives on the
// Dataset, so a Put or Refresh under the name starts the next version
// without one. Opening an index is a read of the dataset, addressed by its
// name like ReadDataset: a scripted read fault fails it before anything is
// served, and a build counts one read of the whole dataset (built reports
// it). Lookups count nothing here; the caller charges the bytes they
// matched with CountProbe.
func (s *Store) Index(d *Dataset, col string) (ix *Index, built bool, err error) {
	s.mu.Lock()
	err = s.readFaultLocked(d.Name)
	s.mu.Unlock()
	if err != nil {
		return nil, false, err
	}

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
