// Package udf is the UDF framework: descriptors pair executable local
// functions (real Go code standing in for the paper's Java/Perl/Python MR
// scripts) with the gray-box model annotations of §3, so the rest of the
// system can treat UDFs semantically without seeing their code.
//
// Two shapes cover the model's expressible UDFs:
//
//   - KindMap: a per-tuple local function (operation types 1 and 2) — adds
//     derived attributes and/or drops tuples; may explode one row into many
//     (e.g. a sentence tokenizer).
//   - KindAgg: a map+reduce pair (operation types 1,2,3) — an optional
//     per-tuple pre-map followed by grouping and a per-group reduce.
//
// Thresholds are deliberately *not* baked into UDFs: workload queries apply
// them as relational filters over UDF outputs, which lets the rewriter
// reason about them with predicate implication (a view computed at
// threshold 0.3 answers a query at 0.5). This matches the paper's model,
// where FOODIES' threshold surfaces in F′ as the comparison sent_sum > t.
package udf

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"opportune/internal/afk"
	"opportune/internal/cost"
	"opportune/internal/expr"
	"opportune/internal/value"
)

// Kind discriminates the two executable shapes.
type Kind uint8

const (
	// KindMap is a per-tuple (map-only) UDF.
	KindMap Kind = iota
	// KindAgg is a grouping (map+reduce) UDF.
	KindAgg
)

// Ownership, for all three local-function shapes below (DESIGN.md §5.14):
// every slice the engine passes in — args, key, payloads and each payload
// row — belongs to the engine, is valid only until the function returns, and
// is reused for the next tuple or group; read it, do not keep or write it.
// Values (value.V) are immutable and may be kept and returned freely. What
// the function returns is copied out before the engine calls it again, so it
// may alias the arguments or be a buffer the UDF reuses itself; the engine
// never writes through it. params is shared by every call: read-only.

// MapFn is the per-tuple local function of a KindMap UDF: it receives the
// bound argument values and literal parameters and returns zero or more
// output-value rows (each of width len(OutNames)). Returning no rows drops
// the tuple (a filter), which only a UDF declared Filters or Explode may do;
// returning several explodes it, which only a UDF declared Explode may do
// (CheckMap).
type MapFn func(args, params []value.V) [][]value.V

// ErrContract is the error a UDF fails its query with when what it returns
// contradicts its declaration: the (A,F,K) annotation the rewriter reasons
// with is only as true as the shape the UDF keeps.
var ErrContract = errors.New("udf contract violated")

// CheckMap enforces a KindMap UDF's declared output shape on one Map result:
// a UDF not declared Explode returns at most one row, and at least one
// unless it is declared Filters, and every row has len(OutNames) values.
// (Whether a zero-row Explode is a filter under the annotation is still
// open; it passes.) The fused map kernel, and the row interpreter the
// tests compare it with, run it after every call. A violation panics
// with an error wrapping ErrContract: the engine's path for failing user
// code, which fails the map task and with it the job.
func (d *Descriptor) CheckMap(outs [][]value.V) {
	if len(outs) > 1 && !d.Explode {
		panic(fmt.Errorf("%w: %s returned %d rows for one input but is not declared Explode",
			ErrContract, d.Name, len(outs)))
	}
	if len(outs) == 0 && !d.Filters && !d.Explode {
		panic(fmt.Errorf("%w: %s returned no row for one input but is not declared Filters",
			ErrContract, d.Name))
	}
	for _, row := range outs {
		if len(row) != len(d.OutNames) {
			panic(fmt.Errorf("%w: %s returned a row of %d values, it declares %d outputs",
				ErrContract, d.Name, len(row), len(d.OutNames)))
		}
	}
}

// CheckPreMap is CheckMap for a KindAgg UDF's PreMap: the key it returns
// has exactly len(KeyNames) values and the payload at most PayloadCols. A
// violation panics with an error wrapping ErrContract, so the query fails
// typed instead of shifting payload values into the group key.
func (d *Descriptor) CheckPreMap(key, payload []value.V) {
	if len(key) != len(d.KeyNames) {
		panic(fmt.Errorf("%w: %s PreMap returned a key of %d values, it declares %d key columns",
			ErrContract, d.Name, len(key), len(d.KeyNames)))
	}
	if len(payload) > d.PayloadCols {
		panic(fmt.Errorf("%w: %s PreMap returned a payload of %d values, it declares %d",
			ErrContract, d.Name, len(payload), d.PayloadCols))
	}
}

// CheckReduce is CheckMap for a KindAgg UDF's Reduce: a non-nil result has
// exactly len(OutNames) values (nil drops the group). A violation panics
// with an error wrapping ErrContract, so the query fails typed instead of
// materializing a row of the wrong width.
func (d *Descriptor) CheckReduce(out []value.V) {
	if out != nil && len(out) != len(d.OutNames) {
		panic(fmt.Errorf("%w: %s Reduce returned %d values, it declares %d outputs",
			ErrContract, d.Name, len(out), len(d.OutNames)))
	}
}

// PreMapFn is the optional map-side local function of a KindAgg UDF: it
// turns one input tuple into a (group key, payload) pair, or drops it. The
// pair is written straight into the shuffle record: len(key) is
// len(KeyNames) and len(payload) at most PayloadCols (shorter is Null-padded);
// anything else fails the query with ErrContract (CheckPreMap).
type PreMapFn func(args, params []value.V) (key, payload []value.V, keep bool)

// ReduceFn is the per-group local function of a KindAgg UDF: it receives
// the group key and all payload rows and returns the aggregate output
// values (width len(OutNames)), or nil to drop the group; any other width
// fails the query with ErrContract (CheckReduce).
type ReduceFn func(key []value.V, payloads [][]value.V, params []value.V) []value.V

// Descriptor declares one UDF: executable code plus its model annotation.
type Descriptor struct {
	Name    string
	NArgs   int // number of attribute (column) arguments
	NParams int // number of literal parameters

	Kind Kind

	// OutNames are the new attributes this UDF produces. For KindAgg they
	// are the aggregate outputs (the key columns are listed in KeyNames).
	OutNames []string

	// KindMap fields. Map, PreMap and Reduce share one ownership rule, stated
	// above MapFn: argument slices are the engine's and valid for the call.
	Map MapFn
	// Filters marks that Map may drop tuples; the model records an opaque
	// predicate named "<Name>.filter" over the argument signatures.
	Filters bool
	// Explode marks that Map may emit several rows per input; the model
	// re-keys the output on a derived per-row signature.
	Explode bool

	// KindAgg fields.
	KeyNames []string // output names of the group-key columns
	// KeyArgs are indexes into the arguments whose values (and signatures)
	// form the group key when PreMap is nil or passes keys through.
	KeyArgs []int
	// DerivedKeys marks that PreMap computes new key attributes rather than
	// passing argument columns through; their signatures are derived.
	DerivedKeys bool
	PreMap      PreMapFn
	Reduce      ReduceFn
	// FiltersGroups marks that Reduce may drop groups; recorded like Filters.
	FiltersGroups bool
	// PayloadCols is the width of the payload PreMap emits per tuple; it
	// defaults to the number of non-key arguments when PreMap is nil.
	PayloadCols int

	// Op types per side, for costing (defaulted by Register if empty).
	MapOps    []cost.OpType
	ReduceOps []cost.OpType

	// TrueScalar is the UDF's intrinsic computational weight relative to
	// the relational baseline; the execution engine charges it. The
	// optimizer must instead use the calibrated Scalar (§4.2).
	TrueScalar float64
	// Scalar is the calibrated multiplier; zero means uncalibrated (treated
	// as 1 by the optimizer, which underestimates until calibration runs).
	Scalar float64
}

// EffectiveScalar is the calibrated scalar the optimizer should use.
func (d *Descriptor) EffectiveScalar() float64 {
	if d.Scalar > 0 {
		return d.Scalar
	}
	return 1
}

// paramFP fingerprints literal parameters for signature identity.
func paramFP(params []value.V) string {
	if len(params) == 0 {
		return ""
	}
	parts := make([]string, len(params))
	for i, p := range params {
		parts[i] = p.String()
	}
	return strings.Join(parts, ",")
}

// Validate checks structural consistency at registration time.
func (d *Descriptor) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("udf: empty name")
	}
	switch d.Kind {
	case KindMap:
		if d.Map == nil {
			return fmt.Errorf("udf %s: KindMap without Map", d.Name)
		}
		if len(d.OutNames) == 0 && !d.Filters {
			return fmt.Errorf("udf %s: map UDF with no outputs and no filtering is a no-op", d.Name)
		}
	case KindAgg:
		if d.Reduce == nil {
			return fmt.Errorf("udf %s: KindAgg without Reduce", d.Name)
		}
		if len(d.KeyNames) == 0 {
			return fmt.Errorf("udf %s: KindAgg without key columns", d.Name)
		}
		if !d.DerivedKeys && len(d.KeyArgs) != len(d.KeyNames) {
			return fmt.Errorf("udf %s: KeyArgs/KeyNames length mismatch", d.Name)
		}
		for _, ka := range d.KeyArgs {
			if ka < 0 || ka >= d.NArgs {
				return fmt.Errorf("udf %s: KeyArgs index %d out of range", d.Name, ka)
			}
		}
	default:
		return fmt.Errorf("udf %s: unknown kind %d", d.Name, d.Kind)
	}
	if d.TrueScalar < 1 {
		return fmt.Errorf("udf %s: TrueScalar must be >= 1", d.Name)
	}
	if d.Kind == KindAgg && d.PreMap != nil && d.PayloadCols <= 0 {
		return fmt.Errorf("udf %s: custom PreMap requires PayloadCols", d.Name)
	}
	return nil
}

// PayloadWidth returns the per-tuple payload width the shuffle carries.
func (d *Descriptor) PayloadWidth() int {
	if d.PreMap != nil {
		return d.PayloadCols
	}
	return d.NArgs - len(d.KeyArgs)
}

// OutSig returns the signature of the named output attribute for an
// application with the given argument signatures and parameters.
func (d *Descriptor) OutSig(out string, argSigs []*afk.Sig, params []value.V, ctxF string) *afk.Sig {
	qual := d.Name + "#" + out
	if d.Kind == KindMap {
		return afk.DerivedSig(qual, paramFP(params), argSigs)
	}
	keySigs := d.keySigs(argSigs, params)
	// Aggregate inputs: the non-key arguments.
	var inputs []*afk.Sig
	isKeyArg := make(map[int]bool, len(d.KeyArgs))
	if !d.DerivedKeys {
		for _, ka := range d.KeyArgs {
			isKeyArg[ka] = true
		}
	}
	for i, s := range argSigs {
		if !isKeyArg[i] {
			inputs = append(inputs, s)
		}
	}
	if len(inputs) == 0 {
		inputs = argSigs
	}
	return afk.AggSig(qual, paramFP(params), inputs, ctxF, keySigs)
}

// KeySigs returns the signatures of the group-key output columns for an
// application with the given argument signatures and parameters. The
// rewriter uses it to reconstruct an application's grouping from a
// signature it must re-derive.
func (d *Descriptor) KeySigs(argSigs []*afk.Sig, params []value.V) []*afk.Sig {
	return d.keySigs(argSigs, params)
}

// keySigs returns the signatures of the group-key output columns.
func (d *Descriptor) keySigs(argSigs []*afk.Sig, params []value.V) []*afk.Sig {
	if d.DerivedKeys {
		sigs := make([]*afk.Sig, len(d.KeyNames))
		for i, kn := range d.KeyNames {
			sigs[i] = afk.DerivedSig(d.Name+"#"+kn, paramFP(params), argSigs)
		}
		return sigs
	}
	sigs := make([]*afk.Sig, len(d.KeyArgs))
	for i, ka := range d.KeyArgs {
		sigs[i] = argSigs[ka]
	}
	return sigs
}

// Annotate computes the output annotation of applying this UDF to an input
// annotated in, with argument columns argCols and parameters params. New
// derived attributes register functional dependencies in fds.
//
// KindMap keeps every input column and appends the outputs (queries project
// afterwards); KindAgg outputs exactly the key columns plus the aggregate
// outputs, re-keyed on the keys.
func (d *Descriptor) Annotate(in afk.Annotation, argCols []string, params []value.V, fds *afk.FDSet) (afk.Annotation, error) {
	if len(argCols) != d.NArgs {
		return afk.Annotation{}, fmt.Errorf("udf %s: got %d args, want %d", d.Name, len(argCols), d.NArgs)
	}
	if len(params) != d.NParams {
		return afk.Annotation{}, fmt.Errorf("udf %s: got %d params, want %d", d.Name, len(params), d.NParams)
	}
	argSigs := make([]*afk.Sig, len(argCols))
	for i, c := range argCols {
		s := in.SigOf(c)
		if s == nil {
			return afk.Annotation{}, fmt.Errorf("udf %s: argument column %q not in input %v", d.Name, c, in.Names())
		}
		argSigs[i] = s
	}
	argIDs := make([]string, len(argSigs))
	for i, s := range argSigs {
		argIDs[i] = s.ID()
	}

	switch d.Kind {
	case KindMap:
		out := in
		for _, on := range d.OutNames {
			sig := d.OutSig(on, argSigs, params, "")
			out = out.WithAttr(on, sig)
			fds.Add(argIDs, sig.ID())
		}
		if d.Filters {
			out = withOpaqueFilter(out, d.Name+"."+paramFP(params)+".filter", argIDs)
		}
		if d.Explode {
			rowSig := afk.DerivedSig(d.Name+"#_row", paramFP(params), argSigs)
			out = out.WithAttr("_"+strings.ToLower(d.Name)+"_row", rowSig)
			k := afk.NewSigSet(rowSig)
			// The exploded row key determines every output attribute.
			for _, at := range out.Attrs() {
				fds.Add([]string{rowSig.ID()}, at.Sig.ID())
			}
			out = out.Rekey(k, false)
		}
		return out, nil

	case KindAgg:
		ctxF := in.F.Canon()
		keySigs := d.keySigs(argSigs, params)
		keyAttrs := make([]afk.Attr, len(d.KeyNames))
		keyIDs := make([]string, len(keySigs))
		for i, kn := range d.KeyNames {
			keyAttrs[i] = afk.Attr{Name: kn, Sig: keySigs[i]}
			keyIDs[i] = keySigs[i].ID()
			if d.DerivedKeys {
				fds.Add(argIDs, keySigs[i].ID())
			}
		}
		aggAttrs := make([]afk.Attr, len(d.OutNames))
		for i, on := range d.OutNames {
			sig := d.OutSig(on, argSigs, params, ctxF)
			aggAttrs[i] = afk.Attr{Name: on, Sig: sig}
			fds.Add(keyIDs, sig.ID())
		}
		out := groupTo(in, keyAttrs, aggAttrs)
		if d.FiltersGroups {
			out = withOpaqueFilter(out, d.Name+"."+paramFP(params)+".gfilter", argIDs)
		}
		return out, nil
	}
	return afk.Annotation{}, fmt.Errorf("udf %s: unknown kind", d.Name)
}

// Registry holds the system's UDFs.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*Descriptor
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Descriptor)}
}

// Register validates and installs a descriptor. Re-registering a name
// replaces the previous descriptor.
func (r *Registry) Register(d *Descriptor) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if len(d.MapOps) == 0 {
		d.MapOps = defaultMapOps(d)
	}
	if len(d.ReduceOps) == 0 && d.Kind == KindAgg {
		d.ReduceOps = []cost.OpType{cost.OpGroup}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byName[d.Name] = d
	return nil
}

// SetScalar installs a calibrated cost scalar on a descriptor (Calibrate,
// or a restored session's saved calibration).
func (r *Registry) SetScalar(d *Descriptor, scalar float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d.Scalar = scalar
}

func defaultMapOps(d *Descriptor) []cost.OpType {
	var ops []cost.OpType
	if len(d.OutNames) > 0 || d.Kind == KindAgg {
		ops = append(ops, cost.OpAttr)
	}
	if d.Filters {
		ops = append(ops, cost.OpFilter)
	}
	return ops
}

// Get returns a descriptor by name.
func (r *Registry) Get(name string) (*Descriptor, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.byName[name]
	return d, ok
}

// Names returns all registered UDF names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ForOutput resolves a derived signature's qualified UDF name
// ("UDF_X#col") back to the descriptor and output column.
func (r *Registry) ForOutput(qualified string) (*Descriptor, string, bool) {
	i := strings.LastIndex(qualified, "#")
	if i < 0 {
		return nil, "", false
	}
	d, ok := r.Get(qualified[:i])
	if !ok {
		return nil, "", false
	}
	return d, qualified[i+1:], true
}

// --- small annotation helpers kept here to avoid widening afk's API ---

// withOpaqueFilter records an opaque user-code predicate in F.
func withOpaqueFilter(a afk.Annotation, name string, argIDs []string) afk.Annotation {
	out := a.Clone()
	out.F = out.F.Clone().Add(expr.NewOpaque(name, argIDs...))
	return out
}

// groupTo re-keys via the annotation algebra using attribute names already
// present (keys) plus new aggregate attributes.
func groupTo(in afk.Annotation, keyAttrs, aggAttrs []afk.Attr) afk.Annotation {
	// Keys that are existing columns group directly; derived keys are added
	// first so GroupBy can reference them by name.
	work := in
	keyNames := make([]string, len(keyAttrs))
	for i, ka := range keyAttrs {
		keyNames[i] = ka.Name
		if work.SigOf(ka.Name) == nil {
			work = work.WithAttr(ka.Name, ka.Sig)
		} else if work.SigOf(ka.Name).ID() != ka.Sig.ID() {
			// The key output name collides with a different input column:
			// rebind under the new name.
			work = work.WithAttr(ka.Name+"_key", ka.Sig)
			keyNames[i] = ka.Name + "_key"
		}
	}
	out := work.GroupBy(keyNames, aggAttrs)
	// Restore intended key names.
	for i, ka := range keyAttrs {
		if keyNames[i] != ka.Name {
			out = out.Rename(keyNames[i], ka.Name)
		}
	}
	return out
}
