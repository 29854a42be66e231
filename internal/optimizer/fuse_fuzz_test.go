package optimizer

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"opportune/internal/afk"
	"opportune/internal/data"
	"opportune/internal/expr"
	"opportune/internal/plan"
	"opportune/internal/udf"
	"opportune/internal/value"
)

// fuzzChain decodes a byte string into a random but always-valid map chain
// over the fixture's twtr schema: Projects over column subsets, Filters of
// every predicate kind, well-behaved map UDFs, a filtering UDF, a declared-
// single-output UDF that violates its contract at runtime, and an exploding
// UDF — so one input space reaches the fused fast path, explode segments,
// and the contract failure. Returns nil when the bytes decode to a
// bare scan (nothing to test).
func fuzzChain(raw []byte) *plan.Node {
	p, _ := fuzzChainCols(raw)
	return p
}

// fuzzChainCols is fuzzChain plus the column set left in scope after the
// chain — what the agg fuzzer needs to pick valid group keys and agg inputs.
func fuzzChainCols(raw []byte) (*plan.Node, []string) {
	p := plan.Scan("twtr")
	cols := []string{"tweet_id", "user_id", "text"}
	nOps := 0
	has := func(name string) bool {
		for _, c := range cols {
			if c == name {
				return true
			}
		}
		return false
	}
	for i := 0; i+1 < len(raw) && nOps < 6; i += 2 {
		op, sel := raw[i], raw[i+1]
		pick := func() string { return cols[int(sel)%len(cols)] }
		// A UDF output column that is still in scope blocks re-applying
		// that UDF (duplicate attribute); remap those ops to a filter.
		if out, ok := map[byte]string{4: "fz_len", 5: "fz_keep", 6: "fz_v", 7: "fz_tok"}[op%8]; ok && has(out) {
			op = 3
		}
		switch op % 8 {
		case 0: // Project a non-empty column subset, no duplicates
			var keep []string
			for j, c := range cols {
				if sel&(1<<(j%8)) != 0 {
					keep = append(keep, c)
				}
			}
			if len(keep) == 0 {
				keep = []string{pick()}
			}
			p = plan.Project(p, keep...)
			cols = keep
		case 1: // numeric / string comparison filter
			c := pick()
			ops := []expr.CmpOp{expr.Eq, expr.Ne, expr.Lt, expr.Le, expr.Gt, expr.Ge}
			cmp := ops[int(sel/8)%len(ops)]
			var lit value.V
			switch sel % 3 {
			case 0:
				lit = value.NewInt(int64(sel) % 10)
			case 1:
				lit = value.NewFloat(float64(sel%20) / 4)
			default:
				lit = value.NewStr("good wine")
			}
			p = plan.Filter(p, expr.NewCmp(c, cmp, lit))
		case 2: // attribute equality
			p = plan.Filter(p, expr.NewAttrEq(pick(), cols[int(sel/16)%len(cols)]))
		case 3: // opaque predicate
			p = plan.Filter(p, expr.NewOpaque("fz_sel", pick()))
		case 4: // well-behaved map UDF
			p = plan.Apply(p, "UDF_FZ_LEN", []string{pick()})
			cols = append(append([]string{}, cols...), "fz_len")
		case 5: // filtering map UDF (0-or-1 output rows)
			p = plan.Apply(p, "UDF_FZ_MAYBE", []string{pick()})
			cols = append(append([]string{}, cols...), "fz_keep")
		case 6: // contract violator: declared single-output, multi-emits
			p = plan.Apply(p, "UDF_FZ_VIOLATOR", []string{pick()})
			cols = append(append([]string{}, cols...), "fz_v")
		default: // exploding UDF — an explode segment
			p = plan.Apply(p, "UDF_FZ_SPLIT", []string{pick()})
			cols = append(append([]string{}, cols...), "fz_tok")
		}
		nOps++
	}
	if nOps == 0 {
		return nil, nil
	}
	return p, cols
}

// probeMark, as a first byte, makes fuzzAggChain join the decoded chain
// under withDelta's marked ~delta~users (probeMark+1: with the delta on the
// right), so the chain becomes a probe's indexed side.
const probeMark = 0xde

// fuzzAggChain decodes a map chain plus a trailing GroupAgg: the last three
// bytes choose the group keys and two aggregates over whatever columns the
// chain left in scope (SUM/AVG restricted to numeric columns — a mistyped
// aggregate is a compile- or run-time error on both arms, not a fusion
// difference worth fuzzing). Every group-by reaches the cross-boundary
// kernel, through explode segments too; violator ops in the chain reach
// the contract failure under a grouped boundary. Behind probeMark the
// chain is a delta join's indexed side: an index probe when it keeps
// user_id and is record-local.
func fuzzAggChain(raw []byte) *plan.Node {
	if len(raw) < 3 {
		return nil
	}
	probe := len(raw) > 3 && raw[0]&^1 == probeMark
	chain := raw[:len(raw)-3]
	if probe {
		chain = chain[1:]
	}
	p, cols := fuzzChainCols(chain)
	if p == nil {
		p, cols = plan.Scan("twtr"), []string{"tweet_id", "user_id", "text"}
	}
	if probe && slices.Contains(cols, "user_id") {
		delta, dcols := plan.Scan("~delta~users"), []string{"uid", "name"}
		if raw[0] == probeMark {
			p, cols = plan.JoinNodes(delta, p, "uid", "user_id"), append(dcols, cols...)
		} else {
			p, cols = plan.JoinNodes(p, delta, "user_id", "uid"), append(slices.Clone(cols), dcols...)
		}
	}
	tail := raw[len(raw)-3:]
	numeric := map[string]bool{"tweet_id": true, "user_id": true, "uid": true, "fz_len": true, "fz_keep": true, "fz_v": true}
	keys := []string{cols[int(tail[0])%len(cols)]}
	if tail[0] >= 128 && len(cols) > 1 {
		if second := cols[int(tail[0]/8)%len(cols)]; second != keys[0] {
			keys = append(keys, second)
		}
	}
	var aggs []plan.AggSpec
	for ai, b := range tail[1:] {
		as := fmt.Sprintf("za%d", ai)
		col := cols[int(b/8)%len(cols)]
		switch b % 5 {
		case 0:
			aggs = append(aggs, plan.AggSpec{Func: plan.AggCount, As: as})
		case 1:
			if numeric[col] {
				aggs = append(aggs, plan.AggSpec{Func: plan.AggSum, Col: col, As: as})
			} else {
				aggs = append(aggs, plan.AggSpec{Func: plan.AggMin, Col: col, As: as})
			}
		case 2:
			if numeric[col] {
				aggs = append(aggs, plan.AggSpec{Func: plan.AggAvg, Col: col, As: as})
			} else {
				aggs = append(aggs, plan.AggSpec{Func: plan.AggMax, Col: col, As: as})
			}
		case 3:
			aggs = append(aggs, plan.AggSpec{Func: plan.AggMin, Col: col, As: as})
		default:
			aggs = append(aggs, plan.AggSpec{Func: plan.AggMax, Col: col, As: as})
		}
	}
	return plan.GroupAgg(p, keys, aggs...)
}

// fuzzFixture registers the fuzz UDF/predicate set, and withDelta's marked
// delta, on a fresh fixture arm. Every function is deterministic in its
// arguments: the differential oracle depends on it.
func fuzzFixture(t testing.TB) *fixture {
	f := newFixture(t, 200)
	withDelta(t, f, true)
	for _, d := range []*udf.Descriptor{
		{Name: "UDF_FZ_LEN", NArgs: 1, Kind: udf.KindMap, OutNames: []string{"fz_len"},
			Map: func(args, _ []value.V) [][]value.V {
				return [][]value.V{{value.NewInt(int64(len(args[0].String())))}}
			}, TrueScalar: 2},
		{Name: "UDF_FZ_MAYBE", NArgs: 1, Kind: udf.KindMap, OutNames: []string{"fz_keep"},
			Map: func(args, _ []value.V) [][]value.V {
				if len(args[0].String())%2 == 1 {
					return nil // filtering UDF: drop the row
				}
				return [][]value.V{{value.NewInt(1)}}
			}, TrueScalar: 2},
		{Name: "UDF_FZ_VIOLATOR", NArgs: 1, Kind: udf.KindMap, OutNames: []string{"fz_v"},
			Map: func(args, _ []value.V) [][]value.V {
				if strings.Contains(args[0].String(), "wine") {
					return [][]value.V{{value.NewInt(1)}, {value.NewInt(2)}}
				}
				return [][]value.V{{value.NewInt(0)}}
			}, TrueScalar: 2},
		{Name: "UDF_FZ_SPLIT", NArgs: 1, Kind: udf.KindMap, OutNames: []string{"fz_tok"}, Explode: true,
			Map: func(args, _ []value.V) [][]value.V {
				var out [][]value.V
				for _, w := range strings.Fields(args[0].String()) {
					out = append(out, []value.V{value.NewStr(w)})
				}
				return out
			}, TrueScalar: 2},
	} {
		if err := f.cat.UDFs.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	f.opt.Eval.RegisterOpaque("fz_sel", func(args []value.V) bool {
		return len(args[0].String())%3 != 0
	})
	// Hash layout on twtr(user_id): grouped chains keyed by user_id become
	// partition-local, putting the cross-boundary kernel in the fuzz space.
	sig := afk.BaseSig("twtr", "user_id").ID()
	f.cat.SetPartitioning("twtr", afk.Partitioning{Sigs: []string{sig}, Parts: 4})
	f.eng.Params.SplitRows = 32 // several map splits per run
	return f
}

// fuzzOutcome is what one arm made of a decoded chain: whether it compiled,
// whether the run failed on udf.ErrContract, and otherwise its output rows.
type fuzzOutcome struct {
	compiled, contract bool
	rows               []data.Row
}

// runFuzzChain compiles and executes one decoded chain on one arm (interp:
// the compiled jobs with their kernels stripped). A run may fail only on the
// UDF contract; any other run error fails the test.
func runFuzzChain(t testing.TB, interp bool, p *plan.Node) fuzzOutcome {
	f := fuzzFixture(t)
	w, err := f.opt.Compile(p)
	if err != nil {
		return fuzzOutcome{}
	}
	jobs, err := f.opt.Executable(w, "fz_res")
	if err != nil {
		return fuzzOutcome{}
	}
	if _, err := runArm(t, f, w, jobs, interp); errors.Is(err, udf.ErrContract) {
		return fuzzOutcome{compiled: true, contract: true}
	} else if err != nil {
		t.Fatalf("interp=%v: run: %v", interp, err)
	}
	rel, err := f.store.Read("fz_res")
	if err != nil {
		t.Fatalf("interp=%v: read: %v", interp, err)
	}
	return fuzzOutcome{compiled: true, rows: rel.Rows()}
}

// checkFuzzArms fails unless the two arms agree: both fail to compile, both
// fail on the UDF contract, or both return the same rows in the same order.
func checkFuzzArms(t *testing.T, fused, interp fuzzOutcome) {
	t.Helper()
	if fused.compiled != interp.compiled || fused.contract != interp.contract {
		t.Fatalf("arms disagree: fused compiled=%v contract=%v, interp compiled=%v contract=%v",
			fused.compiled, fused.contract, interp.compiled, interp.contract)
	}
	if !data.RowsEqual(fused.rows, interp.rows) {
		t.Fatalf("fused and interpreted outputs diverge\nfused:  %v\ninterp: %v", fused.rows, interp.rows)
	}
}

// FuzzFusedPipeline is the fusion differential fuzzer: for every generated
// chain, fused execution must equal interpreted execution row for row — in
// order, since map tasks are deterministic — including chains that open
// explode segments; a chain whose violator meets a "wine" row must fail
// with udf.ErrContract on both arms.
func FuzzFusedPipeline(f *testing.F) {
	// Seeds cover each op code, a mixed chain, an explode segment and the
	// contract failure.
	f.Add([]byte{0x00, 0x07})                                     // project
	f.Add([]byte{0x01, 0x21, 0x02, 0x35, 0x03, 0x02})             // cmp, attr-eq, opaque
	f.Add([]byte{0x04, 0x02, 0x01, 0x49, 0x00, 0x05})             // udf, filter, project
	f.Add([]byte{0x05, 0x02, 0x06, 0x02})                         // maybe, violator
	f.Add([]byte{0x07, 0x02, 0x01, 0x12})                         // explode then filter
	f.Add([]byte{0x04, 0x00, 0x04, 0x01, 0x04, 0x02, 0x01, 0x60}) // stacked udfs
	f.Fuzz(func(t *testing.T, raw []byte) {
		p := fuzzChain(raw)
		if p == nil {
			return
		}
		checkFuzzArms(t, runFuzzChain(t, false, p), runFuzzChain(t, true, p))
	})
}

// FuzzFusedAgg extends the differential fuzzer through the reduce side:
// every generated chain ends in a GroupAgg, so the combine and reduce
// kernels — and, when the group key matches the twtr layout, the
// cross-boundary kernel — must reproduce the row-fold reference's grouped
// output row for row, in ascending key order, or both fail on the contract.
func FuzzFusedAgg(f *testing.F) {
	// Seeds: bare-scan group by user_id (cross-boundary), group by text,
	// filter then group, UDF chain then group, two-key group, explode and
	// violator chains under a grouped boundary.
	f.Add([]byte{0x01, 0x00, 0x09})                   // scan, key=user_id, count+sum
	f.Add([]byte{0x02, 0x01, 0x14})                   // scan, key=text, sum+avg-ish
	f.Add([]byte{0x01, 0x21, 0x01, 0x05, 0x11})       // cmp filter, key=user_id
	f.Add([]byte{0x04, 0x02, 0x00, 0x1b, 0x0e})       // fz_len UDF then group
	f.Add([]byte{0x00, 0x07, 0x81, 0x02, 0x23})       // project, two group keys
	f.Add([]byte{0x07, 0x02, 0x01, 0x00, 0x07})       // explode then group
	f.Add([]byte{0x06, 0x02, 0x01, 0x0a, 0x18})       // violator then group
	f.Add([]byte{0x03, 0x02, 0x05, 0x01, 0x01, 0x12}) // opaque, maybe-UDF, group
	// Probe chains: the decoded chain is a delta join's indexed side.
	f.Add([]byte{probeMark, 0x01, 0x09, 0x0a})                         // delta ⋈ twtr, key=name
	f.Add([]byte{probeMark + 1, 0x01, 0x21, 0x03, 0x0a, 0x11})         // twtr filtered ⋈ delta
	f.Add([]byte{probeMark, 0x04, 0x02, 0x01, 0x49, 0x01, 0x39, 0x29}) // UDF, filter: SUM/AVG of fz_len
	f.Add([]byte{probeMark, 0x05, 0x00, 0x00, 0x0d, 0x2e})             // filtering UDF, project
	f.Add([]byte{probeMark + 1, 0x06, 0x02, 0x09, 0x0a, 0x18})         // violator on the indexed side
	f.Add([]byte{probeMark, 0x07, 0x02, 0x01, 0x00, 0x07})             // explode: a shuffle join
	f.Fuzz(func(t *testing.T, raw []byte) {
		p := fuzzAggChain(raw)
		if p == nil {
			return
		}
		checkFuzzArms(t, runFuzzChain(t, false, p), runFuzzChain(t, true, p))
	})
}
