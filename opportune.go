// Package opportune is a from-scratch reproduction of "Opportunistic
// Physical Design for Big Data Analytics" (LeFevre et al., SIGMOD 2014).
//
// It bundles a simulated MapReduce analytics stack — HDFS-like storage, an
// MR execution engine, a HiveQL-flavoured query language, an optimizer, a
// UDF framework with the paper's gray-box (A,F,K) semantic model — and the
// paper's contribution on top: every job output is retained as an
// opportunistic materialized view, and new queries are rewritten against
// those views by the BFREWRITE best-first algorithm.
//
// Quick start:
//
//	sys := opportune.New()
//	sys.CreateTable("logs", "id", []string{"id", "user", "text"}, rows)
//	sys.RegisterMapUDF(opportune.MapUDF{
//	    Name: "SCORE", Args: 1, Outputs: []string{"score"}, Weight: 10,
//	    Fn: func(args, params []any) [][]any { ... },
//	})
//	res, _ := sys.ExecOne(`SELECT user, SUM(score) AS s FROM logs
//	                       APPLY SCORE(text) GROUP BY user HAVING s > 1`)
//	// run a revised query: it is rewritten against the first run's views
//	res2, _ := sys.ExecOne(`... HAVING s > 5`)
//	for i := 0; i < res2.Len(); i++ {
//	    fmt.Println(res2.Row(i))
//	}
//
// A query's answer is a stored relation, as in the paper, so a Result is a
// snapshot handle on that relation rather than a copy of it: Exec
// converts no cell into a Go value. Row boxes one row when it is called;
// Rows boxes them all, afresh on every call.
package opportune

import (
	"fmt"
	"slices"

	"opportune/internal/afk"
	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/hiveql"
	"opportune/internal/persist"
	"opportune/internal/session"
	"opportune/internal/storage"
	"opportune/internal/udf"
	"opportune/internal/value"
)

// RewriteMode selects how queries are optimized against existing views.
type RewriteMode uint8

const (
	// RewriteBFR uses the paper's BFREWRITE best-first algorithm (default).
	RewriteBFR RewriteMode = iota
	// RewriteOff executes queries as written.
	RewriteOff
	// RewriteDP uses the exhaustive dynamic-programming baseline.
	RewriteDP
	// RewriteSyntactic reuses only syntactically identical sub-plans
	// (caching-style systems such as ReStore).
	RewriteSyntactic
)

func (m RewriteMode) mode() session.Mode {
	switch m {
	case RewriteOff:
		return session.ModeOriginal
	case RewriteDP:
		return session.ModeDP
	case RewriteSyntactic:
		return session.ModeSyntactic
	default:
		return session.ModeBFR
	}
}

// System is one analytics system instance. A System is not safe for
// concurrent use: queries must run one at a time (the paper's system, like
// Hive's CLI, is likewise session-oriented); create one System per
// concurrent session if needed — they share nothing.
type System struct {
	s      *session.Session
	mode   RewriteMode
	nQuery int
	nCalib int64
	saved  *persist.Saved
}

// New creates a system with default cost-model parameters and BFREWRITE
// enabled.
func New() *System {
	return &System{s: session.New(cost.DefaultParams())}
}

// SetRewriteMode switches the rewriting strategy for subsequent Exec calls.
func (sys *System) SetRewriteMode(m RewriteMode) { sys.mode = m }

// Session exposes the underlying session for advanced (module-internal)
// use: experiments, benchmarks, and tests.
func (sys *System) Session() *session.Session { return sys.s }

// toValue converts a public scalar to the engine's value type.
func toValue(v any) (value.V, error) {
	switch x := v.(type) {
	case nil:
		return value.NullV, nil
	case int:
		return value.NewInt(int64(x)), nil
	case int64:
		return value.NewInt(x), nil
	case float64:
		return value.NewFloat(x), nil
	case string:
		return value.NewStr(x), nil
	case bool:
		return value.NewBool(x), nil
	case value.V:
		return x, nil
	default:
		return value.NullV, fmt.Errorf("opportune: unsupported value type %T", v)
	}
}

// fromValue converts an engine value to a public scalar.
func fromValue(v value.V) any {
	switch v.Kind() {
	case value.Null:
		return nil
	case value.Int:
		return v.Int()
	case value.Float:
		return v.Float()
	case value.Str:
		return v.Str()
	case value.Bool:
		return v.Bool()
	default:
		return nil
	}
}

func toValues(in []any) ([]value.V, error) {
	out := make([]value.V, len(in))
	for i, v := range in {
		x, err := toValue(v)
		if err != nil {
			return nil, err
		}
		out[i] = x
	}
	return out, nil
}

func fromValues(in []value.V) []any {
	out := make([]any, len(in))
	for i, v := range in {
		out[i] = fromValue(v)
	}
	return out
}

// CreateTable loads a base log into the system. keyColumn names the
// record-key column ("" if none); its functional dependencies are
// registered so the rewriter can reason about grouping refinement.
func (sys *System) CreateTable(name, keyColumn string, columns []string, rows [][]any) error {
	rel := data.NewRelation(data.NewSchema(columns...))
	for i, r := range rows {
		if len(r) != len(columns) {
			return fmt.Errorf("opportune: row %d has %d values, %q has %d columns", i, len(r), name, len(columns))
		}
		vr, err := toValues(r)
		if err != nil {
			return err
		}
		rel.Append(data.Row(vr))
	}
	sys.s.Store.Put(name, storage.Base, rel)
	distinct := make(map[string]int64, len(columns))
	for _, c := range columns {
		distinct[c] = int64(rel.DistinctCount(c))
	}
	sys.s.Cat.RegisterBase(name, columns, keyColumn,
		cost.Stats{Rows: int64(rel.Len()), Bytes: rel.EncodedSize()}, distinct)
	return nil
}

// ClusterTable declares a base table's physical layout: its rows are
// hash-distributed into buckets by the given key columns (in order), the
// CLUSTERED BY of the ingest pipeline that wrote them. The optimizer then
// compiles any job whose shuffle key starts with those columns — a GROUP
// BY on them, or a join against a table clustered the same way with the
// same bucket count — without moving data, and prices the eliminated
// transfer into every rewrite decision. The claim is the caller's: declare
// only layouts the bytes actually satisfy. View layouts are not declarable
// — retention records what each job wrote.
func (sys *System) ClusterTable(table string, columns []string, buckets int) error {
	info, ok := sys.s.Cat.Table(table)
	if !ok || info.IsView {
		return fmt.Errorf("opportune: %q is not a base table", table)
	}
	if len(columns) == 0 || buckets <= 0 {
		return fmt.Errorf("opportune: clustering needs key columns and a positive bucket count")
	}
	sigs := make([]string, len(columns))
	for i, c := range columns {
		if !slices.Contains(info.Cols, c) {
			return fmt.Errorf("opportune: table %q has no column %q", table, c)
		}
		sigs[i] = afk.BaseSig(table, c).ID()
	}
	sys.s.Cat.SetPartitioning(table, afk.Partitioning{Sigs: sigs, Parts: buckets})
	return nil
}

// ErrUDFContract is the error a query fails with when a UDF breaks its
// declaration: a MapUDF not declared Explode returns two or more rows for
// one input, or no row without being declared Filters, any returned row's
// width differs from len(Outputs), or a UDF returns a value of a type the
// system does not store. Calibration fails with it too. Test for it with
// errors.Is.
var ErrUDFContract = udf.ErrContract

// MapUDF declares a per-tuple UDF (model operation types 1 and 2): it adds
// Outputs columns computed from Args argument columns, may drop tuples
// (Filters), and may emit several rows per input (Explode). Fn keeps that
// declaration: without Explode it returns at most one row, and at least one
// unless it is declared Filters, and every row it returns has len(Outputs)
// values; otherwise the query fails with ErrUDFContract.
//
// Ownership: the args and params slices Fn receives are valid only for the
// call — read them, do not keep or modify them; keep the values in them if
// you like. The rows Fn returns are copied before Fn is called again, so it
// may return a buffer it reuses.
type MapUDF struct {
	Name    string
	Args    int
	Params  int
	Outputs []string
	Filters bool
	Explode bool
	// Weight is the UDF's intrinsic computational cost relative to a basic
	// relational operation (>= 1); calibration recovers it from a sample
	// run (§4.2 of the paper).
	Weight float64
	Fn     func(args, params []any) [][]any
}

// RegisterMapUDF installs a per-tuple UDF. Fn may be called from several map
// tasks at once; the slices it is handed are valid for the call only (see
// MapUDF).
func (sys *System) RegisterMapUDF(m MapUDF) error {
	if m.Weight < 1 {
		m.Weight = 1
	}
	fn := m.Fn
	d := &udf.Descriptor{
		Name: m.Name, NArgs: m.Args, NParams: m.Params,
		Kind: udf.KindMap, OutNames: m.Outputs,
		Filters: m.Filters, Explode: m.Explode,
		TrueScalar: m.Weight,
		Map: func(args, params []value.V) [][]value.V {
			rows := fn(fromValues(args), fromValues(params))
			out := make([][]value.V, 0, len(rows))
			for _, r := range rows {
				vr, err := toValues(r)
				if err != nil {
					panic(fmt.Errorf("%w: UDF %s emitted %v", ErrUDFContract, m.Name, err))
				}
				out = append(out, vr)
			}
			return out
		},
	}
	return sys.s.Cat.UDFs.Register(d)
}

// AggUDF declares a grouping UDF (operation type 3): tuples are grouped by
// the KeyArgs argument columns (or by keys a custom PreMap derives) and
// Reduce computes the Outputs per group. The same ownership rule as MapUDF
// applies: key, groupRows (and each row in it) and params are valid only for
// the call, and the returned slice is copied before the next group.
type AggUDF struct {
	Name    string
	Args    int
	Params  int
	Keys    []string
	KeyArgs []int
	Outputs []string
	Weight  float64
	Reduce  func(key []any, groupRows [][]any, params []any) []any
}

// RegisterAggUDF installs a grouping UDF. Reduce may be called from several
// reduce tasks at once; the slices it is handed are valid for the call only
// (see AggUDF).
func (sys *System) RegisterAggUDF(a AggUDF) error {
	if a.Weight < 1 {
		a.Weight = 1
	}
	reduce := a.Reduce
	d := &udf.Descriptor{
		Name: a.Name, NArgs: a.Args, NParams: a.Params,
		Kind: udf.KindAgg, KeyNames: a.Keys, KeyArgs: a.KeyArgs,
		OutNames:   a.Outputs,
		TrueScalar: a.Weight,
		Reduce: func(key []value.V, payloads [][]value.V, params []value.V) []value.V {
			rows := make([][]any, len(payloads))
			for i, p := range payloads {
				rows[i] = fromValues(p)
			}
			out := reduce(fromValues(key), rows, fromValues(params))
			if out == nil {
				return nil
			}
			vr, err := toValues(out)
			if err != nil {
				panic(fmt.Errorf("%w: UDF %s emitted %v", ErrUDFContract, a.Name, err))
			}
			return vr
		},
	}
	return sys.s.Cat.UDFs.Register(d)
}

// CalibrateUDF runs the one-time sample calibration of a UDF's cost scalar
// (§4.2) against a stored dataset, returning the calibrated scalar.
func (sys *System) CalibrateUDF(udfName, dataset string, argColumns []string, params ...any) (float64, error) {
	d, ok := sys.s.Cat.UDFs.Get(udfName)
	if !ok {
		return 0, fmt.Errorf("opportune: unknown UDF %q", udfName)
	}
	vp, err := toValues(params)
	if err != nil {
		return 0, err
	}
	sys.nCalib++
	res, err := sys.s.Cat.UDFs.Calibrate(sys.s.Eng, dataset, d, argColumns, vp, 7000+sys.nCalib)
	if err != nil {
		return 0, err
	}
	return res.Scalar, nil
}

// Result reports one executed statement. It is a handle on the stored
// relation the statement produced, not a copy of it: Exec boxes no cell,
// and Row and Rows box cells only when called. The handle is a snapshot.
// Stored relations are never mutated — a later AppendRows, DropViews,
// eviction or re-run of the same CREATE TABLE installs a new relation or
// drops the old one — so a Result reads the same rows for as long as it is
// held. A zero Result has no rows.
type Result struct {
	Table   string   // result table name
	Columns []string // the caller's copy of the result's column names

	// ExecSeconds is the simulated cluster execution time (including the
	// per-view statistics jobs); RewriteSeconds is the real runtime of the
	// rewrite search; Rewritten reports whether a cheaper rewrite was used.
	ExecSeconds    float64
	RewriteSeconds float64
	Rewritten      bool
	Jobs           int
	DataMovedBytes int64

	rel *data.Relation
}

// Len returns the result's row count.
func (r *Result) Len() int {
	if r.rel == nil {
		return 0
	}
	return r.rel.Len()
}

// Row returns row i, 0 <= i < Len(), as a fresh slice the caller owns.
func (r *Result) Row(i int) []any { return fromValues(r.rel.Row(i)) }

// Rows returns every row, nil for none, converted afresh on each call: the
// caller owns what it gets and may modify it. Read a large result with Len
// and Row instead to box one row at a time.
func (r *Result) Rows() [][]any {
	if r.rel == nil {
		return nil
	}
	return resultRows(r.rel.Rows())
}

// Exec parses and runs a script (one or more ';'-separated statements)
// under the current rewrite mode, returning one result per statement.
// Statements without CREATE TABLE get a generated result name.
func (sys *System) Exec(script string) ([]*Result, error) {
	stmts, err := hiveql.Parse(script)
	if err != nil {
		return nil, err
	}
	var out []*Result
	for _, st := range stmts {
		r, err := sys.run(st)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ExecOne runs a script expected to hold exactly one statement. A script
// with any other number is rejected before anything runs.
func (sys *System) ExecOne(script string) (*Result, error) {
	stmts, err := hiveql.Parse(script)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("opportune: expected one statement, got %d", len(stmts))
	}
	return sys.run(stmts[0])
}

// run executes one parsed statement and returns a handle on its stored
// result.
func (sys *System) run(st *hiveql.Statement) (*Result, error) {
	name := st.Table
	if name == "" {
		sys.nQuery++
		name = fmt.Sprintf("_q%d", sys.nQuery)
	}
	m, err := sys.s.Run(st.Plan, name, sys.mode.mode())
	if err != nil {
		return nil, err
	}
	rel := m.Result
	if rel == nil { // a bare scan of a view evicted while it ran
		return nil, fmt.Errorf("opportune: result %q: %w", m.ResultName, storage.ErrNotFound)
	}
	return &Result{
		Table:          m.ResultName,
		Columns:        slices.Clone(rel.Schema().Cols()),
		ExecSeconds:    m.ExecSeconds + m.StatsSeconds,
		RewriteSeconds: m.RewriteSeconds,
		Rewritten:      m.Rewrite != nil && m.Rewrite.Improved,
		Jobs:           m.Jobs,
		DataMovedBytes: m.DataMovedBytes,
		rel:            rel,
	}, nil
}

// resultRows converts stored rows into boxed rows, nil for none. All rows
// are carved from one backing array; each is a full slice expression, so
// an append to one row reallocates it instead of overwriting the next.
func resultRows(rows []data.Row) [][]any {
	if len(rows) == 0 {
		return nil
	}
	n := 0
	for _, row := range rows {
		n += len(row)
	}
	cells := make([]any, n)
	out := make([][]any, len(rows))
	for i, row := range rows {
		out[i], cells = cells[:len(row):len(row)], cells[len(row):]
		for j, v := range row {
			out[i][j] = fromValue(v)
		}
	}
	return out
}

// ViewInfo describes one opportunistic materialized view.
type ViewInfo struct {
	Name      string
	Columns   []string
	Rows      int64
	SizeBytes int64
}

// Views lists the opportunistic physical design accumulated so far.
func (sys *System) Views() []ViewInfo {
	var out []ViewInfo
	for _, v := range sys.s.Cat.Views() {
		out = append(out, ViewInfo{
			Name: v.Name, Columns: append([]string(nil), v.Cols...),
			Rows: v.Stats.Rows, SizeBytes: v.Stats.Bytes,
		})
	}
	return out
}

// DropViews discards every opportunistic view (base tables stay).
func (sys *System) DropViews() { sys.s.DropViews() }

// AppendReport describes how one AppendRows affected the opportunistic
// physical design: which dependent views (decided exactly via attribute-
// signature provenance) were incrementally maintained from the appended
// delta, which were invalidated and why, and the simulated maintenance
// cost.
type AppendReport struct {
	Table string
	Rows  int

	Maintained  []string          // views refreshed in place from the delta
	Invalidated []string          // views dropped
	Reasons     map[string]string // view -> why it could not be maintained

	SimSeconds float64 // simulated maintenance + statistics cost
}

// AppendRows adds records to a base table. Dependent opportunistic views
// are maintained incrementally when their provenance admits it (a plan
// linear in the appended table — joins with other tables included — under
// distributive aggregates) and invalidated otherwise.
func (sys *System) AppendRows(table string, rows [][]any) (*AppendReport, error) {
	drows := make([]data.Row, len(rows))
	for i, r := range rows {
		vr, err := toValues(r)
		if err != nil {
			return nil, err
		}
		drows[i] = data.Row(vr)
	}
	rep, err := sys.s.AppendRows(table, drows)
	if err != nil {
		return nil, err
	}
	return &AppendReport{
		Table: rep.Table, Rows: rep.Rows,
		Maintained:  rep.Maintained,
		Invalidated: rep.Invalidated,
		Reasons:     rep.Reasons,
		SimSeconds:  rep.MaintainSeconds + rep.StatsSeconds,
	}, nil
}

// Save persists the system — base logs, opportunistic views, and the
// catalog metadata that makes them reusable — under dir. A save that fails
// or is cut off part-way leaves the one dir held before it readable. UDF
// code is not persisted; re-register UDFs after Open.
func (sys *System) Save(dir string) error {
	return persist.Save(sys.s, dir)
}

// Open restores a saved system. Re-register your UDF library afterwards:
// saved calibration scalars are applied automatically to matching names on
// the next RegisterMapUDF/RegisterAggUDF calls via ApplySavedCalibrations.
// Restored views keep their producing plans, so AppendRows maintains them
// incrementally exactly as the never-closed session would.
func Open(dir string) (*System, error) {
	s, saved, err := persist.Open(dir, cost.DefaultParams())
	if err != nil {
		return nil, err
	}
	return &System{s: s, saved: saved}, nil
}

// ApplySavedCalibrations re-applies persisted UDF calibration scalars to
// currently registered UDFs, returning the names applied. Call it after
// re-registering your UDF library on a restored system; UDFs without a
// saved scalar still need CalibrateUDF.
func (sys *System) ApplySavedCalibrations() []string {
	if sys.saved == nil {
		return nil
	}
	return sys.saved.ApplyScalars(sys.s)
}

// SetViewStorageBudget bounds the bytes opportunistic views may occupy;
// exceeding it evicts views by the given policy ("lru", "lfu",
// "cost-benefit", or "fifo"). A zero budget means unlimited.
func (sys *System) SetViewStorageBudget(bytes int64, policy string) error {
	sys.s.Store.ViewCapacityBytes = bytes
	switch policy {
	case "", "lru":
		sys.s.Store.Policy = storage.PolicyLRU
	case "lfu":
		sys.s.Store.Policy = storage.PolicyLFU
	case "cost-benefit":
		sys.s.Store.Policy = storage.PolicyCostBenefit
	case "fifo":
		sys.s.Store.Policy = storage.PolicyFIFO
	default:
		return fmt.Errorf("opportune: unknown reclamation policy %q", policy)
	}
	return nil
}
