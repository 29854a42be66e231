package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
)

func TestLoadAndValidate(t *testing.T) {
	p, err := Load("testdata/plan.json")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 || len(p.Faults) != 5 {
		t.Fatalf("plan = %+v", p)
	}
	// Round-trip through JSON preserves the plan exactly.
	rt, err := Parse(p.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, rt) {
		t.Errorf("round trip changed plan:\n got %+v\nwant %+v", rt, p)
	}
}

func TestValidateRejectsMalformedFaults(t *testing.T) {
	bad := []Fault{
		{Kind: KindPanic, Phase: PhaseMap, Task: 0},                       // no fail_attempts
		{Kind: KindPanic, Phase: "shuffle", Task: 0, FailAttempts: 1},     // bad phase
		{Kind: KindPanic, Phase: PhaseMap, Task: -1, FailAttempts: 1},     // negative task
		{Kind: KindCorrupt, Phase: PhaseReduce, Task: 0, FailAttempts: 1}, // corrupt is map-only
		{Kind: KindStraggler, Phase: PhaseMap, Task: 0, Factor: 1},        // factor must exceed 1
		{Kind: KindReadError, FailReads: 1},                               // no dataset
		{Kind: KindReadError, Dataset: "x"},                               // no fail_reads
		{Kind: "explode", Phase: PhaseMap, Task: 0},                       // unknown kind
	}
	for i, f := range bad {
		p := &Plan{Faults: []Fault{f}}
		if err := p.Validate(); err == nil {
			t.Errorf("entry %d (%+v) validated", i, f)
		}
	}
	if _, err := Parse([]byte("{not json")); err == nil {
		t.Error("malformed JSON parsed")
	}
}

func TestInjectorTaskMatching(t *testing.T) {
	in := NewInjector(&Plan{Faults: []Fault{
		{Job: "wc", Phase: PhaseMap, Task: 1, Kind: KindPanic, FailAttempts: 2},
		{Phase: PhaseReduce, Task: 3, Kind: KindCorrupt, FailAttempts: 1}, // wildcard job
	}})
	if fd := in.TaskFailure("wc", PhaseMap, 1, 1); fd == nil || fd.Fault.Kind != KindPanic {
		t.Fatalf("attempt 1 = %v", fd)
	}
	if fd := in.TaskFailure("wc", PhaseMap, 1, 2); fd == nil {
		t.Fatal("attempt 2 should still fail")
	}
	if fd := in.TaskFailure("wc", PhaseMap, 1, 3); fd != nil {
		t.Fatalf("attempt 3 should succeed, got %v", fd)
	}
	if fd := in.TaskFailure("other", PhaseMap, 1, 1); fd != nil {
		t.Fatalf("job-scoped fault fired for wrong job: %v", fd)
	}
	if fd := in.TaskFailure("wc", PhaseMap, 2, 1); fd != nil {
		t.Fatalf("wrong task fired: %v", fd)
	}
	// Wildcard job matches everything, and the fired record names the job.
	fd := in.TaskFailure("anything", PhaseReduce, 3, 1)
	if fd == nil || fd.Fault.Job != "anything" {
		t.Fatalf("wildcard fault = %+v", fd)
	}
	if got := in.FiredCounts(); got[KindPanic] != 2 || got[KindCorrupt] != 1 {
		t.Errorf("fired counts = %v", got)
	}
}

func TestInjectorSlowdownAndReadError(t *testing.T) {
	in := NewInjector(&Plan{Faults: []Fault{
		{Phase: PhaseMap, Task: 0, Kind: KindStraggler, Factor: 6},
		{Kind: KindReadError, Dataset: "docs", FailReads: 2},
	}})
	if f := in.Slowdown("j", PhaseMap, 0); f != 6 {
		t.Errorf("slowdown = %g, want 6", f)
	}
	if f := in.Slowdown("j", PhaseMap, 1); f != 0 {
		t.Errorf("unscripted task slowed by %g", f)
	}
	// Read errors are a bounded budget per dataset.
	for i := 0; i < 2; i++ {
		err := in.ReadError("docs")
		if err == nil {
			t.Fatalf("read %d should fail", i+1)
		}
		if !IsInjected(err) {
			t.Errorf("read error not recognized as injected: %v", err)
		}
		if !IsInjected(fmt.Errorf("wrapped: %w", err)) {
			t.Error("IsInjected fails through wrapping")
		}
	}
	if err := in.ReadError("docs"); err != nil {
		t.Errorf("budget exhausted but read still fails: %v", err)
	}
	if err := in.ReadError("other"); err != nil {
		t.Errorf("unscripted dataset failed: %v", err)
	}
}

func TestNilInjectorNeverFires(t *testing.T) {
	var in *Injector
	if in.TaskFailure("j", PhaseMap, 0, 1) != nil || in.Slowdown("j", PhaseMap, 0) != 0 ||
		in.ReadError("x") != nil || in.Shard("k") != 0 || in.FiredCounts() != nil {
		t.Error("nil injector fired")
	}
}

func TestShardStableAndBounded(t *testing.T) {
	for _, key := range []string{"", "wine", "red", "beer", "a-long-reduce-group-key"} {
		s := Shard(key, DefaultVirtualShards)
		if s < 0 || s >= DefaultVirtualShards {
			t.Errorf("shard(%q) = %d out of range", key, s)
		}
		if s != Shard(key, DefaultVirtualShards) {
			t.Errorf("shard(%q) unstable", key)
		}
	}
	if Shard("anything", 1) != 0 || Shard("anything", 0) != 0 {
		t.Error("degenerate shard counts must map to 0")
	}
}

// TestShardIsFNV1a pins the inlined hash to hash/fnv's 32-bit FNV-1a, so a
// plan addresses the same keys' shard it always has, and checks it hashes
// without allocating.
func TestShardIsFNV1a(t *testing.T) {
	keys := []string{"", "wine", "red", "beer", "a-long-reduce-group-key", "\x00\xff\x80"}
	for _, key := range keys {
		h := fnv.New32a()
		h.Write([]byte(key))
		for _, shards := range []int{2, 7, DefaultVirtualShards} {
			if got, want := Shard(key, shards), int(h.Sum32()%uint32(shards)); got != want {
				t.Errorf("Shard(%q, %d) = %d, FNV-1a says %d", key, shards, got, want)
			}
		}
	}
	in := NewInjector(&Plan{VirtualShards: 16})
	if in.Shards() != 16 || NewInjector(&Plan{}).Shards() != DefaultVirtualShards {
		t.Errorf("Shards() = %d, want the plan's space", in.Shards())
	}
	if n := testing.AllocsPerRun(100, func() { in.Shard(keys[4]) }); n != 0 {
		t.Errorf("Shard allocates %v times per key", n)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(7, 12, []string{"twtr", "fsq"})
	b := Generate(7, 12, []string{"twtr", "fsq"})
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed generated different plans")
	}
	if err := a.Validate(); err != nil {
		t.Errorf("generated plan invalid: %v", err)
	}
	if len(a.Faults) != 12 || a.Seed != 7 {
		t.Errorf("plan shape = seed %d, %d faults", a.Seed, len(a.Faults))
	}
	c := Generate(8, 12, []string{"twtr", "fsq"})
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds generated identical plans")
	}
}

func TestFiredIsError(t *testing.T) {
	fd := &Fired{Fault: Fault{Job: "wc", Phase: PhaseMap, Task: 3, Kind: KindPanic}, Attempt: 1}
	var asErr *Fired
	if !errors.As(fmt.Errorf("mr: %w", fd), &asErr) {
		t.Error("Fired does not unwrap")
	}
	for _, f := range []*Fired{
		fd,
		{Fault: Fault{Phase: PhaseMap, Task: 1, Kind: KindCorrupt}, Attempt: 2},
		{Fault: Fault{Kind: KindReadError, Dataset: "twtr"}},
	} {
		if f.Error() == "" {
			t.Errorf("empty error text for %+v", f)
		}
	}
}
