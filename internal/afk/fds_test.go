package afk

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// naiveFDs is the reference model of FDSet: the dependency list with
// duplicates kept, and the closure recomputed by a plain fixpoint on every
// question — no index, no cache. keys counts the distinct dependencies.
type naiveFDs struct {
	fds  []fd
	keys map[string]bool
}

func (n *naiveFDs) add(from []string, to string) {
	n.fds = append(n.fds, fd{from: append([]string(nil), from...), to: to})
	sorted := append([]string(nil), from...)
	sort.Strings(sorted)
	if n.keys == nil {
		n.keys = make(map[string]bool)
	}
	n.keys[fmt.Sprint(sorted, to)] = true
}

func (n *naiveFDs) closure(ids []string) map[string]bool {
	c := make(map[string]bool)
	for _, id := range ids {
		c[id] = true
	}
	for changed := true; changed; {
		changed = false
		for _, e := range n.fds {
			all := true
			for _, id := range e.from {
				all = all && c[id]
			}
			if all && !c[e.to] {
				c[e.to] = true
				changed = true
			}
		}
	}
	return c
}

func (n *naiveFDs) distinct() int { return len(n.keys) }

func (n *naiveFDs) refines(vK, qK SigSet) bool {
	if len(qK) == 0 {
		return true
	}
	if len(vK) == 0 {
		return false
	}
	c := n.closure(vK.IDs())
	for id := range qK {
		if !c[id] {
			return false
		}
	}
	return true
}

// fdUniverse is a small attribute universe, so random determinant sets
// repeat and closure-cache entries are hit, invalidated and hit again.
func fdUniverse() []*Sig {
	u := make([]*Sig, 8)
	for i := range u {
		u[i] = BaseSig("t", fmt.Sprintf("c%d", i))
	}
	return u
}

func randSigs(rng *rand.Rand, u []*Sig, max int) SigSet {
	ss := NewSigSet()
	for k := rng.Intn(max + 1); k > 0; k-- {
		ss.Add(u[rng.Intn(len(u))])
	}
	return ss
}

// TestFDSetMatchesNaiveFixpoint interleaves Add, Refines, Closure,
// Determines and Clone at random and compares every answer with the
// reference fixpoint: a closure cached before an Add that extends it must
// not be served after it, and a clone must keep rejecting duplicates.
func TestFDSetMatchesNaiveFixpoint(t *testing.T) {
	u := fdUniverse()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f, ref := NewFDSet(), &naiveFDs{}
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(10); {
			case r < 3:
				from := randSigs(rng, u, 2).IDs()
				if len(from) == 0 {
					from = []string{u[rng.Intn(len(u))].ID()}
				}
				to := u[rng.Intn(len(u))].ID()
				// Shuffled determinants: Add sorts, so order must not matter.
				rng.Shuffle(len(from), func(i, j int) { from[i], from[j] = from[j], from[i] })
				f.Add(from, to)
				ref.add(from, to)
			case r < 6:
				vK, qK := randSigs(rng, u, 3), randSigs(rng, u, 2)
				if got, want := f.Refines(vK, qK), ref.refines(vK, qK); got != want {
					t.Fatalf("seed %d op %d: Refines(%s, %s) = %v, fixpoint says %v", seed, op, vK.Canon(), qK.Canon(), got, want)
				}
			case r < 8:
				ids := randSigs(rng, u, 3).IDs()
				got, want := f.Closure(ids), ref.closure(ids)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d op %d: Closure(%v) = %v, fixpoint says %v", seed, op, ids, got, want)
				}
			case r < 9:
				x, y := randSigs(rng, u, 3).IDs(), u[rng.Intn(len(u))].ID()
				if got, want := f.Determines(x, y), ref.closure(x)[y]; got != want {
					t.Fatalf("seed %d op %d: Determines(%v, %s) = %v, fixpoint says %v", seed, op, x, y, got, want)
				}
			default:
				// Continue on a clone; the original must not see its Adds.
				only := fmt.Sprintf("clone-%d", op)
				c := f.Clone()
				c.Add([]string{only}, u[0].ID())
				if f.Determines([]string{only}, u[0].ID()) {
					t.Fatalf("seed %d op %d: Clone aliases the original", seed, op)
				}
				f = c
				ref.add([]string{only}, u[0].ID())
			}
			if got, want := f.Len(), ref.distinct(); got != want {
				t.Fatalf("seed %d op %d: Len = %d, want %d distinct dependencies", seed, op, got, want)
			}
		}
	}
}

// TestFDSetConcurrentAddRefines runs Adds against Refines, Determines and
// Closure from several goroutines (run it under -race). Dependencies only
// grow, so a refinement observed true at any point must hold at the end,
// and the final set must answer like the reference fixpoint.
func TestFDSetConcurrentAddRefines(t *testing.T) {
	u := fdUniverse()
	f := NewFDSet()
	ref := &naiveFDs{}
	type dep struct {
		from []string
		to   string
	}
	var deps []dep
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 64; i++ {
		from := []string{u[rng.Intn(len(u))].ID()}
		if rng.Intn(3) == 0 {
			from = append(from, u[rng.Intn(len(u))].ID())
		}
		deps = append(deps, dep{from, u[rng.Intn(len(u))].ID()})
		ref.add(from, deps[i].to)
	}

	type seen struct{ vK, qK SigSet }
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		observed []seen
	)
	const writers, readers = 3, 3
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(deps); i += writers {
				f.Add(deps[i].from, deps[i].to)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			var mine []seen
			for i := 0; i < 300; i++ {
				vK, qK := randSigs(rng, u, 3), randSigs(rng, u, 2)
				if f.Refines(vK, qK) {
					mine = append(mine, seen{vK, qK})
				}
				ids := vK.IDs()
				f.Determines(ids, u[rng.Intn(len(u))].ID())
				f.Closure(ids)
			}
			mu.Lock()
			observed = append(observed, mine...)
			mu.Unlock()
		}(r)
	}
	wg.Wait()

	for _, o := range observed {
		if !ref.refines(o.vK, o.qK) {
			t.Errorf("Refines(%s, %s) was true mid-run but the final set does not imply it", o.vK.Canon(), o.qK.Canon())
		}
	}
	for _, vK := range []SigSet{NewSigSet(u[0]), NewSigSet(u[1], u[2]), NewSigSet(u[3], u[4], u[5])} {
		for _, s := range u {
			qK := NewSigSet(s)
			if got, want := f.Refines(vK, qK), ref.refines(vK, qK); got != want {
				t.Errorf("after the run: Refines(%s, %s) = %v, fixpoint says %v", vK.Canon(), qK.Canon(), got, want)
			}
		}
	}
	if got, want := f.Len(), ref.distinct(); got != want {
		t.Errorf("Len = %d, want %d distinct dependencies", got, want)
	}
}
