package storage

import (
	"testing"

	"opportune/internal/obs"
)

// TestStoreObsCounters checks the store's metric publication mirrors its
// Counters, and covers sample, eviction, and pin-contention events.
func TestStoreObsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewStore()
	s.SetObs(reg)

	base := rel(10)
	d := s.Put("base", Base, base)
	if _, err := s.Read("base"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sample(d, 1, 1); err != nil {
		t.Fatal(err)
	}

	sz := rel(10).EncodedSize()
	s.ViewCapacityBytes = 2 * sz
	s.Policy = PolicyLRU
	s.Put("v1", View, rel(10))
	s.Put("v2", View, rel(10))
	s.Put("v3", View, rel(10)) // evicts one view

	snap := reg.Snapshot()
	c := s.Counters()
	if got := snap.Counters["storage_read_ops_total"]; got != 1 {
		t.Errorf("read ops = %d, want 1", got)
	}
	if got := snap.Counters["storage_read_bytes_total"]; got != base.EncodedSize() {
		t.Errorf("read bytes = %d, want %d", got, base.EncodedSize())
	}
	if got := snap.Counters["storage_sample_ops_total"]; got != 1 {
		t.Errorf("sample ops = %d, want 1", got)
	}
	// Reads + samples together mirror Counters.BytesRead.
	if got := snap.Counters["storage_read_bytes_total"] + snap.Counters["storage_sample_bytes_total"]; got != c.BytesRead {
		t.Errorf("obs read+sample bytes = %d, Counters.BytesRead = %d", got, c.BytesRead)
	}
	if got := snap.Counters["storage_write_ops_total"]; got != c.WriteOps {
		t.Errorf("write ops = %d, want %d", got, c.WriteOps)
	}
	if got := snap.Counters["storage_write_bytes_total"]; got != c.BytesWritten {
		t.Errorf("write bytes = %d, want %d", got, c.BytesWritten)
	}
	if got := snap.Counters["storage_evictions_total{policy=lru}"]; got != 1 {
		t.Errorf("evictions{lru} = %d, want 1", got)
	}
	if got := snap.Counters["storage_evicted_bytes_total{policy=lru}"]; got != sz {
		t.Errorf("evicted bytes = %d, want %d", got, sz)
	}
	if got := snap.Gauges["storage_view_bytes"]; got != float64(s.ViewBytes()) {
		t.Errorf("view bytes gauge = %g, want %d", got, s.ViewBytes())
	}

	// Detaching restores the no-op path.
	s.SetObs(nil)
	s.Put("later", Base, rel(1))
	after := reg.Snapshot()
	if after.Counters["storage_write_ops_total"] != snap.Counters["storage_write_ops_total"] {
		t.Error("detached store still published metrics")
	}
}
