package session

import (
	"slices"
	"testing"

	"opportune/internal/data"
	"opportune/internal/expr"
	"opportune/internal/plan"
	"opportune/internal/value"
)

// fuzzProg decodes a fuzz input one byte at a time; a short input reads as
// zeros, so every byte string is a valid program.
type fuzzProg struct {
	raw []byte
	pos int
}

func (p *fuzzProg) next() int {
	if p.pos >= len(p.raw) {
		return 0
	}
	b := p.raw[p.pos]
	p.pos++
	return int(b)
}

// fuzzUsersSide draws the users side of the join (shape is the join byte /
// 40, so bytes below 40 keep the bare scan): the scan; its key renamed; a
// filter and a map UDF over it; or one of the shapes whose append-side
// joins must keep the shuffle join — a key a UDF computes, an aggregate,
// a join with tiers. It returns the side, its join key, its columns and
// its tier column ("" without one).
func fuzzUsersSide(shape int, applied *bool) (n *plan.Node, key string, cols []string, tier string) {
	users := plan.Scan("users")
	switch shape % 6 {
	case 1:
		return plan.ProjectAs(users, []string{"uid", "tier", "bonus"}, []string{"fu", "ft", "fb"}),
			"fu", []string{"fu", "ft", "fb"}, "ft"
	case 2:
		if !*applied {
			*applied = true // logs can no longer take W: its column would clash
			return plan.Filter(plan.Apply(users, "W", []string{"tier"}), expr.NewCmp("bonus", expr.Gt, value.NewInt(1))),
				"uid", []string{"uid", "tier", "bonus", "w"}, "tier"
		}
	case 3:
		if !*applied {
			*applied = true
			return plan.Apply(users, "W", []string{"tier"}), "w", []string{"uid", "tier", "bonus", "w"}, "tier"
		}
	case 4:
		return plan.GroupAgg(users, []string{"uid"}, plan.AggSpec{Func: plan.AggSum, Col: "bonus", As: "ub"}),
			"uid", []string{"uid", "ub"}, ""
	case 5:
		return plan.JoinNodes(users, plan.Scan("tiers"), "tier", "tname"),
			"uid", []string{"uid", "tier", "bonus", "tname", "rank"}, "tier"
	}
	return users, "uid", []string{"uid", "tier", "bonus"}, "tier"
}

// fuzzMaintPlan draws a plan over logs (and users): up to three record-local
// operators and at most one join with a users side (fuzzUsersSide) on a
// random side, in any order, under a map-only, distributive-aggregate, AVG
// or global-aggregate root. Most draws are linear in both tables; the rest
// must be turned down.
func fuzzMaintPlan(p *fuzzProg) *plan.Node {
	cur := plan.Scan("logs")
	cols := []string{"id", "user", "text"}
	joined, applied := false, false
	tier := ""
	for n := p.next() % 4; n > 0; n-- {
		switch op := p.next(); op % 5 {
		case 0:
			cur = plan.Filter(cur, expr.NewCmp("user", expr.Gt, value.NewInt(int64(op/5%4))))
		case 1:
			cur = plan.Filter(cur, expr.NewCmp("id", expr.Le, value.NewInt(int64(40+op))))
		case 2:
			if !applied {
				cur = plan.Apply(cur, "W", []string{"text"})
				cols = append(cols, "w")
				applied = true
			}
		case 3:
			if joined {
				break
			}
			side, key, sideCols, sideTier := fuzzUsersSide(op/40, &applied)
			if op&8 == 0 {
				cur = plan.JoinNodes(cur, side, "user", key)
				cols = append(cols, sideCols...)
			} else {
				cur = plan.JoinNodes(side, cur, key, "user")
				cols = append(slices.Clone(sideCols), cols...)
			}
			joined, tier = true, sideTier
		case 4:
			if op&8 != 0 && !applied {
				cols = slices.DeleteFunc(slices.Clone(cols), func(c string) bool { return c == "text" })
				applied = true // W needs the text column
			}
			cur = plan.Project(cur, slices.Clone(cols)...)
		}
	}
	root := p.next()
	if root%4 == 0 {
		return cur
	}
	keys := []string{"user"}
	if tier != "" && root&16 != 0 {
		keys = []string{tier}
	}
	if root%4 == 3 && root&32 != 0 {
		keys = nil
	}
	// Aggregated columns are integer-valued (user is sometimes null), so
	// even SUM must reproduce a recompute bit for bit.
	aggs := []plan.AggSpec{{Func: plan.AggCount, As: "n"}}
	pick := p.next()
	for i, f := range []plan.AggFunc{plan.AggSum, plan.AggMin, plan.AggMax, plan.AggCount} {
		if pick&(1<<i) != 0 {
			col := []string{"id", "user"}[pick>>4&1]
			aggs = append(aggs, plan.AggSpec{Func: f, Col: col, As: "a" + string(f)})
		}
	}
	if root%4 == 3 && root&32 == 0 {
		aggs = append(aggs, plan.AggSpec{Func: plan.AggAvg, Col: "id", As: "avg"})
	}
	return plan.GroupAgg(cur, keys, aggs...)
}

// fuzzAppends draws one to three batches, each for logs or users: repeated
// keys, keys no stored row has, and null keys.
func fuzzAppends(p *fuzzProg) []ivmAppend {
	texts := []string{"wine", "wine and wine", "tea", ""}
	var out []ivmAppend
	id := 1000
	for b := p.next()%3 + 1; b > 0; b-- {
		head := p.next()
		a := ivmAppend{table: "logs"}
		if head&1 != 0 {
			a.table = "users"
		}
		for n := head>>1%8 + 1; n > 0; n-- {
			k := p.next()
			key := value.NewInt(int64(k % 14)) // 0..4 stored in logs, 0..11 in users
			if k%16 == 15 {
				key = value.NullV
			}
			if a.table == "logs" {
				a.rows = append(a.rows, data.Row{value.NewInt(int64(id)), key, value.NewStr(texts[k>>4%4])})
				id++
			} else {
				a.rows = append(a.rows, data.Row{key, value.NewStr([]string{"gold", "silver", "tin"}[k>>4%3]), value.NewInt(int64(k >> 6))})
			}
		}
		out = append(out, a)
	}
	return out
}

// FuzzMaintainVsRecompute: for a random plan and random append batches,
// every view the session still lists after the appends — maintained through
// all of them, or built from fresh data since — equals what a session that
// appended first computes, and every view that left the catalog did so with
// a recorded reason. The store invariant holds after every append, and
// before each one the plan's delta plan gives the same rows whether its
// joins probe or shuffle (checkProbeVsShuffle).
func FuzzMaintainVsRecompute(f *testing.F) {
	f.Add([]byte{0, 1, 31, 2, 6, 1, 15, 31, 21, 2, 0, 200, 0, 3}) // group-agg over the scan; null, repeated and new keys
	f.Add([]byte{1, 3, 17, 15, 1, 4, 1, 7, 15, 5, 2, 76, 13})     // logs ⋈ users by tier; appends to logs, then to users
	f.Add([]byte{1, 8, 1, 23, 1, 3, 5, 15, 4, 14, 15, 12})        // users ⋈ logs; a null uid, then logs rows
	f.Add([]byte{3, 2, 5, 3, 18, 1, 1, 6, 1, 2, 3, 36, 1, 3})     // UDF and filter below the join
	f.Add([]byte{1, 3, 0, 0, 2, 5, 9})                            // the join itself: rejected
	f.Add([]byte{1, 3, 3, 0, 0, 2, 5, 9})                         // AVG over the join: rejected
	f.Add([]byte{0, 35, 1, 0, 2, 5, 9})                           // global aggregate: rejected
	f.Add([]byte{2, 9, 0, 0, 0, 4, 1, 15, 7})                     // map-only chain: merge-append
	f.Add([]byte("117"))                                          // global COUNT(*): no lineage in the annotation (found by this target)
	// Delta joins probe the other side's index: a renamed key, with a null
	// logs key and users keys logs lacks; users appended first, so the logs
	// delta probes duplicate uids; a filter and map UDF on the indexed side.
	f.Add([]byte{1, 48, 17, 15, 1, 4, 1, 7, 15, 5, 2, 76, 13})
	f.Add([]byte{1, 48, 17, 15, 2, 5, 2, 76, 13, 6, 2, 2, 15, 30})
	f.Add([]byte{1, 83, 1, 15, 2, 5, 2, 76, 13, 4, 3, 2, 15})
	// Shapes whose logs-side join must keep the shuffle join: a key a UDF
	// computes, an aggregate under users, a join under users.
	f.Add([]byte{1, 123, 1, 15, 1, 4, 0, 0, 15})
	f.Add([]byte{1, 163, 1, 15, 2, 4, 1, 7, 15, 5, 2, 76, 13})
	f.Add([]byte{1, 203, 17, 15, 2, 4, 1, 7, 15, 5, 2, 76, 13})
	f.Fuzz(func(t *testing.T, raw []byte) {
		p := &fuzzProg{raw: raw}
		q := fuzzMaintPlan(p)
		appends := fuzzAppends(p)
		if q.Kind == plan.KindScan {
			return
		}
		inc, ref := joinDemo(t, 30), joinDemo(t, 30)
		if _, err := inc.Run(q.Clone(), "fz", ModeOriginal); err != nil {
			t.Fatalf("plan does not run: %v\n%v", err, q)
		}
		listed := func() []string {
			var names []string
			for _, v := range inc.Cat.Views() {
				names = append(names, v.Name)
			}
			return names
		}
		for i, a := range appends {
			if slices.Contains(scanNames(q), a.table) {
				checkProbeVsShuffle(t, inc, q, a)
			}
			before := listed()
			rep, err := inc.AppendRows(a.table, a.rows)
			if err != nil {
				t.Fatal(err)
			}
			checkStoreInvariant(t, inc)
			after := listed()
			for _, name := range before {
				if !slices.Contains(after, name) && rep.Reasons[name] == "" {
					t.Errorf("append %d (%s): %s left the catalog without a recorded reason", i, a.table, name)
				}
			}
			if _, err := ref.AppendRows(a.table, a.rows); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ref.Run(q.Clone(), "fz", ModeOriginal); err != nil {
			t.Fatal(err)
		}
		for _, name := range listed() {
			got, err := inc.Store.Read(name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Store.Read(name)
			if err != nil {
				t.Fatalf("%s: maintained here, but a recompute has no such view: %v", name, err)
			}
			if !got.Equal(want) || got.EncodedSize() != want.EncodedSize() {
				t.Errorf("%s: maintained view differs from a recompute over the grown bases\nplan %v got %v\nwant %v",
					name, q, got.Rows(), want.Rows())
			}
			gi, _ := inc.Cat.Table(name)
			wi, _ := ref.Cat.Table(name)
			if gi.Ann.Canon() != wi.Ann.Canon() {
				t.Errorf("%s: maintained annotation differs from recompute", name)
			}
		}
	})
}

// scanNames is the datasets a plan scans.
func scanNames(p *plan.Node) []string {
	var names []string
	plan.Walk(p, func(n *plan.Node) {
		if n.Kind == plan.KindScan {
			names = append(names, n.Dataset)
		}
	})
	return names
}
