package mr

import (
	"fmt"
	"sync"
	"testing"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/obs"
	"opportune/internal/storage"
	"opportune/internal/value"
)

// TestGetColFreshAndHygienic pins the pool hygiene contract for column
// buffers: a pooled column comes back reset — every slot null, no stale
// value or string from the previous tenant observable through the API.
func TestGetColFreshAndHygienic(t *testing.T) {
	c := GetCol(4)
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	for i := 0; i < 4; i++ {
		c.Set(i, value.NewStr(fmt.Sprintf("secret-%d", i)))
	}
	PutCol(c)

	// The same (or a fresh) buffer must behave as brand new.
	c2 := GetCol(4)
	for i := 0; i < 4; i++ {
		if v := c2.Get(i); !v.IsNull() {
			t.Fatalf("slot %d leaked %v from previous tenant", i, v)
		}
	}
	// Forcing degrade on the reused buffer must not resurrect old strings:
	// unwritten slots may carry typed zeros (documented, never read by the
	// executor) but never a reference from the previous tenant.
	c2.Set(0, value.NewInt(7))
	c2.Set(1, value.NewStr("mix")) // kind mix → degrade path copies slots
	if v := c2.Get(0); v.Int() != 7 {
		t.Fatalf("Get(0) = %v after degrade, want 7", v)
	}
	if v := c2.Get(1); v.Str() != "mix" {
		t.Fatalf("Get(1) = %v after degrade, want mix", v)
	}
	for i := 2; i < 4; i++ {
		if v := c2.Get(i); v.Kind() == value.Str {
			t.Fatalf("slot %d resurrected string %q", i, v.Str())
		}
	}
	PutCol(c2)
}

// TestPutColDropsOversized verifies the retain cap: a column grown past
// poolMaxRetain is dropped (PutCol leaves it untouched rather than zeroing
// and pooling it), so one huge job cannot pin memory.
func TestPutColDropsOversized(t *testing.T) {
	big := GetCol(poolMaxRetain + 1)
	big.Set(0, value.NewInt(42))
	PutCol(big)
	// Dropped buffers are not released: the write is still visible, which
	// is how we can observe "PutCol declined this buffer" from outside.
	if v := big.Get(0); v.IsNull() || v.Int() != 42 {
		t.Errorf("oversized buffer was pooled (released), want dropped")
	}

	small := GetCol(8)
	small.Set(0, value.NewInt(42))
	PutCol(small)
	if small.Len() != 0 {
		t.Errorf("retained buffer was not released on PutCol")
	}
	// nil must be a no-op, not a panic.
	PutCol(nil)
}

// TestSelPoolRoundTrip pins the selection-vector pool: hinted capacity,
// empty on get, oversized vectors dropped.
func TestSelPoolRoundTrip(t *testing.T) {
	s := GetSel(100)
	if len(s) != 0 || cap(s) < 100 {
		t.Fatalf("GetSel(100): len=%d cap=%d", len(s), cap(s))
	}
	s = append(s, 1, 2, 3)
	PutSel(s)
	s2 := GetSel(10)
	if len(s2) != 0 {
		t.Fatalf("pooled sel not empty: len=%d", len(s2))
	}
	PutSel(s2)
	PutSel(make([]int32, 0, poolMaxRetain+1)) // dropped, no panic
}

// TestColPoolConcurrent hammers the column and selection pools from many
// goroutines; run under -race it proves Get/Set/Put never share state
// across concurrent holders and Release leaves no references behind.
func TestColPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 200; it++ {
				n := 1 + (g+it)%64
				c := GetCol(n)
				sel := GetSel(n)
				// Fresh from the pool: every slot null (mode unset).
				for i := 0; i < n; i++ {
					if v := c.Get(i); !v.IsNull() {
						t.Errorf("goroutine %d: dirty slot %d on get: %v", g, i, v)
					}
				}
				// Mixed-kind writes exercise specialize then degrade while
				// other goroutines churn the same pools.
				for i := 0; i < n; i++ {
					switch i % 3 {
					case 0:
						c.Set(i, value.NewInt(int64(g*1000+i)))
					case 1:
						c.Set(i, value.NewFloat(float64(i)))
					default:
						c.Set(i, value.NewStr(fmt.Sprintf("g%d-%d", g, i)))
					}
					sel = append(sel, int32(i))
				}
				// Written slots read back exactly — no cross-holder sharing.
				for i := 0; i < n; i++ {
					v := c.Get(i)
					switch i % 3 {
					case 0:
						if v.Int() != int64(g*1000+i) {
							t.Errorf("goroutine %d: slot %d = %v", g, i, v)
						}
					case 1:
						if v.Float() != float64(i) {
							t.Errorf("goroutine %d: slot %d = %v", g, i, v)
						}
					default:
						if v.Str() != fmt.Sprintf("g%d-%d", g, i) {
							t.Errorf("goroutine %d: slot %d = %v", g, i, v)
						}
					}
				}
				PutSel(sel)
				PutCol(c)
			}
		}(g)
	}
	wg.Wait()
}

// batchEchoInput builds a store with one input relation of n (id, val) rows.
func batchEchoInput(st *storage.Store, n int) {
	rel := data.NewRelation(data.NewSchema("id", "val"))
	for i := 0; i < n; i++ {
		rel.Append(data.Row{value.NewInt(int64(i)), value.NewInt(int64(i * 2))})
	}
	st.Put("batch_in", storage.Base, rel)
}

// batchEchoJob is a map-only job whose batch map function doubles val.
func batchEchoJob() *Job {
	schema := data.NewSchema("id", "doubled")
	return &Job{
		Name:   "batch_echo",
		Inputs: []string{"batch_in"},
		BatchMapFactory: func(TaskCtx) BatchMapFunc {
			return func(input int, rows []data.Row, emit Emit) BatchReport {
				for _, r := range rows {
					emit("", data.Row{r[0], value.NewInt(r[1].Int() * 2)})
				}
				return BatchReport{}
			}
		},
		MapOutSchema: schema,
		OutputSchema: schema,
		Output:       "batch_out",
		MapCost:      []cost.LocalFn{{Ops: []cost.OpType{cost.OpAttr}, Scalar: 1}},
	}
}

// TestEngineRecordsFusedFamily proves the fused map tallies are published:
// every job counts once as eligible and once as fused, and every split of
// it as a fused batch.
func TestEngineRecordsFusedFamily(t *testing.T) {
	e, st := newEngine()
	e.Params.SplitRows = 64
	batchEchoInput(st, 300)
	reg := obs.NewRegistry()
	e.Obs = reg

	out, _, err := runRecorded(e, batchEchoJob())
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 300 {
		t.Errorf("rows = %d, want 300", out.Len())
	}
	snap := reg.Snapshot()
	if snap.Counters["mr_fused_jobs_total"] != 1 || snap.Counters["mr_fused_eligible_total"] != 1 {
		t.Errorf("fused job counters wrong: %v", snap.Counters)
	}
	if snap.Counters["mr_fused_batches_total"] != 5 || snap.Counters["mr_fused_rows_total"] != 300 {
		t.Errorf("fused batch counters wrong: %v", snap.Counters)
	}
}
