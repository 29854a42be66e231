// Package persist saves and restores a system's state — base logs,
// opportunistic views, and the catalog metadata that makes them reusable
// (annotations, statistics, plan fingerprints, functional dependencies, UDF
// calibration scalars) — so the physical design survives process restarts.
//
// Layout under the target directory:
//
//	catalog.json            — tables, annotations, stats, FDs, UDF scalars
//	tables/<name>.g<n>.tbl  — binary relation data (see data.Relation.Write)
//
// A save is crash-atomic: catalog.json is the commit record. Save writes
// every table to a file the catalog in place does not name, syncs it,
// then replaces catalog.json through a synced temporary file and a
// rename, and only then removes the files the replaced catalog named. A
// save that stops at any point leaves the previous one readable.
//
// UDF code cannot be persisted; callers re-register the same UDF library
// after Open, and the saved calibration scalars are re-applied to matching
// names (skipping the sample runs).
package persist

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"opportune/internal/afk"
	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/expr"
	"opportune/internal/meta"
	"opportune/internal/plan"
	"opportune/internal/session"
	"opportune/internal/storage"
	"opportune/internal/value"
)

// --- JSON DTOs ---

type sigDTO struct {
	Dataset string   `json:"dataset,omitempty"`
	Column  string   `json:"column,omitempty"`
	UDF     string   `json:"udf,omitempty"`
	Params  string   `json:"params,omitempty"`
	Inputs  []sigDTO `json:"inputs,omitempty"`
	Agg     bool     `json:"agg,omitempty"`
	CtxF    string   `json:"ctxF,omitempty"`
	GroupBy []sigDTO `json:"groupBy,omitempty"`
}

type predDTO struct {
	Kind    int      `json:"kind"`
	Attr    string   `json:"attr,omitempty"`
	Op      int      `json:"op,omitempty"`
	LitKind int      `json:"litKind,omitempty"`
	Lit     string   `json:"lit,omitempty"`
	Attr2   string   `json:"attr2,omitempty"`
	Name    string   `json:"name,omitempty"`
	Args    []string `json:"args,omitempty"`
}

type attrDTO struct {
	Name string `json:"name"`
	Sig  sigDTO `json:"sig"`
}

type annDTO struct {
	Attrs   []attrDTO `json:"attrs"`
	F       []predDTO `json:"f,omitempty"`
	K       []sigDTO  `json:"k,omitempty"`
	Grouped bool      `json:"grouped,omitempty"`
	Limited bool      `json:"limited,omitempty"`
}

type tableDTO struct {
	Name     string           `json:"name"`
	Cols     []string         `json:"cols"`
	KeyCol   string           `json:"keyCol,omitempty"`
	IsView   bool             `json:"isView,omitempty"`
	PlanFP   string           `json:"planFP,omitempty"`
	Rows     int64            `json:"rows"`
	Bytes    int64            `json:"bytes"`
	Distinct map[string]int64 `json:"distinct,omitempty"`
	Ann      annDTO           `json:"ann"`
	// PartSigs/PartParts persist the relation's physical hash-layout
	// property (partitioning is metadata about the stored bytes, which the
	// .tbl file preserves verbatim). Absent in catalogs written before
	// layouts existed: those relations restore with no layout promise.
	PartSigs  []string `json:"partSigs,omitempty"`
	PartParts int      `json:"partParts,omitempty"`
	// Plan is the view's producing logical plan, captured at retention
	// time. Restoring it lets AppendRows maintain the view incrementally
	// after Open instead of falling back to blanket invalidation. Absent
	// for base tables and in catalogs written before plans were persisted
	// (those views invalidate on append, the old behavior).
	Plan *planDTO `json:"plan,omitempty"`
	// File is the table's data file under tables/. Empty in catalogs
	// written before saves were crash-atomic, whose files are <name>.tbl.
	File string `json:"file,omitempty"`
}

// file is the name of the table's data file under tables/.
func (t *tableDTO) file() string {
	if t.File == "" {
		return t.Name + ".tbl"
	}
	return t.File
}

// aggDTO is one aggregate spec of a persisted GroupAgg node.
type aggDTO struct {
	Func string `json:"func"`
	Col  string `json:"col,omitempty"`
	As   string `json:"as,omitempty"`
}

// litDTO is a typed literal (UDF parameters reuse the predicate literal
// encoding).
type litDTO struct {
	Kind int    `json:"kind"`
	Val  string `json:"val"`
}

// planDTO serializes a plan.Node tree structurally; annotations and output
// columns are recomputed by the optimizer on the next compile.
type planDTO struct {
	Kind      int       `json:"kind"`
	Inputs    []planDTO `json:"inputs,omitempty"`
	Dataset   string    `json:"dataset,omitempty"`
	Cols      []string  `json:"cols,omitempty"`
	As        []string  `json:"as,omitempty"`
	Pred      *predDTO  `json:"pred,omitempty"`
	LCol      string    `json:"lcol,omitempty"`
	RCol      string    `json:"rcol,omitempty"`
	Keys      []string  `json:"keys,omitempty"`
	Aggs      []aggDTO  `json:"aggs,omitempty"`
	UDFName   string    `json:"udfName,omitempty"`
	UDFArgs   []string  `json:"udfArgs,omitempty"`
	UDFParams []litDTO  `json:"udfParams,omitempty"`
	SortCols  []string  `json:"sortCols,omitempty"`
	SortDesc  []bool    `json:"sortDesc,omitempty"`
	Limit     int64     `json:"limit,omitempty"`
}

type fdDTO struct {
	From []string `json:"from"`
	To   string   `json:"to"`
}

type catalogDTO struct {
	Version    int                `json:"version"`
	Tables     []tableDTO         `json:"tables"`
	FDs        []fdDTO            `json:"fds"`
	UDFScalars map[string]float64 `json:"udfScalars,omitempty"`
}

// --- encoding ---

func sigToDTO(s *afk.Sig) sigDTO {
	d := sigDTO{Dataset: s.Dataset, Column: s.Column, UDF: s.UDF, Params: s.Params, Agg: s.Agg, CtxF: s.CtxF}
	for _, in := range s.Inputs {
		d.Inputs = append(d.Inputs, sigToDTO(in))
	}
	for _, k := range s.GroupBy {
		d.GroupBy = append(d.GroupBy, sigToDTO(k))
	}
	return d
}

func sigFromDTO(d sigDTO) *afk.Sig {
	if d.UDF == "" {
		return afk.BaseSig(d.Dataset, d.Column)
	}
	inputs := make([]*afk.Sig, len(d.Inputs))
	for i, in := range d.Inputs {
		inputs[i] = sigFromDTO(in)
	}
	if !d.Agg {
		return afk.DerivedSig(d.UDF, d.Params, inputs)
	}
	groupBy := make([]*afk.Sig, len(d.GroupBy))
	for i, k := range d.GroupBy {
		groupBy[i] = sigFromDTO(k)
	}
	return afk.AggSig(d.UDF, d.Params, inputs, d.CtxF, groupBy)
}

func litToDTO(v value.V) (int, string) { return int(v.Kind()), v.String() }

func litFromDTO(kind int, s string) (value.V, error) {
	switch value.Kind(kind) {
	case value.Null:
		return value.NullV, nil
	case value.Str:
		return value.NewStr(s), nil
	default:
		v := value.Parse(s)
		if int(v.Kind()) != kind {
			// e.g. "1" persisted from a Float literal parses as Int.
			switch value.Kind(kind) {
			case value.Float:
				if v.IsNumeric() {
					return value.NewFloat(v.Float()), nil
				}
			case value.Int:
				if v.IsNumeric() {
					return value.NewInt(int64(v.Float())), nil
				}
			}
			return value.NullV, fmt.Errorf("persist: literal %q does not parse as kind %d", s, kind)
		}
		return v, nil
	}
}

func predToDTO(p expr.Pred) predDTO {
	d := predDTO{Kind: int(p.Kind), Attr: p.Attr, Op: int(p.Op), Attr2: p.Attr2, Name: p.Name, Args: p.Args}
	if p.Kind == expr.KindCmp {
		d.LitKind, d.Lit = litToDTO(p.Lit)
	}
	return d
}

func predFromDTO(d predDTO) (expr.Pred, error) {
	switch expr.Kind(d.Kind) {
	case expr.KindCmp:
		lit, err := litFromDTO(d.LitKind, d.Lit)
		if err != nil {
			return expr.Pred{}, err
		}
		return expr.NewCmp(d.Attr, expr.CmpOp(d.Op), lit), nil
	case expr.KindAttrEq:
		return expr.NewAttrEq(d.Attr, d.Attr2), nil
	case expr.KindOpaque:
		return expr.NewOpaque(d.Name, d.Args...), nil
	default:
		return expr.Pred{}, fmt.Errorf("persist: bad predicate kind %d", d.Kind)
	}
}

func annToDTO(a afk.Annotation) annDTO {
	d := annDTO{Grouped: a.Grouped, Limited: a.Limited}
	for _, at := range a.Attrs() {
		d.Attrs = append(d.Attrs, attrDTO{Name: at.Name, Sig: sigToDTO(at.Sig)})
	}
	for _, p := range a.F.Preds() {
		d.F = append(d.F, predToDTO(p))
	}
	for _, s := range a.K.Sigs() {
		d.K = append(d.K, sigToDTO(s))
	}
	return d
}

func annFromDTO(d annDTO) (afk.Annotation, error) {
	attrs := make([]afk.Attr, len(d.Attrs))
	for i, at := range d.Attrs {
		attrs[i] = afk.Attr{Name: at.Name, Sig: sigFromDTO(at.Sig)}
	}
	f := expr.NewSet()
	for _, pd := range d.F {
		p, err := predFromDTO(pd)
		if err != nil {
			return afk.Annotation{}, err
		}
		f.Add(p)
	}
	k := afk.NewSigSet()
	for _, sd := range d.K {
		k.Add(sigFromDTO(sd))
	}
	ann := afk.New(attrs, f, k)
	ann.Grouped = d.Grouped
	if d.Limited {
		ann = ann.WithLimited()
	}
	return ann, nil
}

func planToDTO(n *plan.Node) planDTO {
	d := planDTO{Kind: int(n.Kind), Dataset: n.Dataset, Cols: n.Cols, As: n.As,
		LCol: n.LCol, RCol: n.RCol, Keys: n.Keys, UDFName: n.UDFName,
		UDFArgs: n.UDFArgs, SortCols: n.SortCols, SortDesc: n.SortDesc, Limit: n.Limit}
	if n.Kind == plan.KindFilter {
		pd := predToDTO(n.Pred)
		d.Pred = &pd
	}
	for _, a := range n.Aggs {
		d.Aggs = append(d.Aggs, aggDTO{Func: string(a.Func), Col: a.Col, As: a.As})
	}
	for _, v := range n.UDFParams {
		k, s := litToDTO(v)
		d.UDFParams = append(d.UDFParams, litDTO{Kind: k, Val: s})
	}
	for _, in := range n.Inputs {
		d.Inputs = append(d.Inputs, planToDTO(in))
	}
	return d
}

func planFromDTO(d planDTO) (*plan.Node, error) {
	n := &plan.Node{Kind: plan.Kind(d.Kind), Dataset: d.Dataset, Cols: d.Cols,
		As: d.As, LCol: d.LCol, RCol: d.RCol, Keys: d.Keys, UDFName: d.UDFName,
		UDFArgs: d.UDFArgs, SortCols: d.SortCols, SortDesc: d.SortDesc, Limit: d.Limit}
	if d.Pred != nil {
		p, err := predFromDTO(*d.Pred)
		if err != nil {
			return nil, err
		}
		n.Pred = p
	}
	for _, a := range d.Aggs {
		n.Aggs = append(n.Aggs, plan.AggSpec{Func: plan.AggFunc(a.Func), Col: a.Col, As: a.As})
	}
	for _, p := range d.UDFParams {
		v, err := litFromDTO(p.Kind, p.Val)
		if err != nil {
			return nil, err
		}
		n.UDFParams = append(n.UDFParams, v)
	}
	for _, in := range d.Inputs {
		child, err := planFromDTO(in)
		if err != nil {
			return nil, err
		}
		n.Inputs = append(n.Inputs, child)
	}
	return n, nil
}

// Save writes the session's datasets and catalog under dir (created if
// needed). UDF calibration scalars are saved by name. If Save fails, the
// save dir held before (if any) still opens as it was.
func Save(s *session.Session, dir string) error {
	tables := filepath.Join(dir, "tables")
	if err := os.MkdirAll(tables, 0o755); err != nil {
		return err
	}
	old := savedFiles(dir)
	cat := catalogDTO{Version: 1, UDFScalars: map[string]float64{}}
	for _, name := range s.Cat.UDFs.Names() {
		if d, ok := s.Cat.UDFs.Get(name); ok && d.Scalar > 0 {
			cat.UDFScalars[name] = d.Scalar
		}
	}
	s.Cat.FDs.Each(func(from []string, to string) {
		cat.FDs = append(cat.FDs, fdDTO{From: from, To: to})
	})
	var rels []*data.Relation
	for _, kind := range []storage.Kind{storage.Base, storage.View} {
		for _, name := range s.Store.List(kind) {
			info, ok := s.Cat.Table(name)
			if !ok {
				continue // stored but never cataloged (scratch data)
			}
			ds, _ := s.Store.Meta(name)
			dto := tableDTO{
				Name: name, Cols: info.Cols, KeyCol: info.KeyCol,
				IsView: info.IsView, PlanFP: info.PlanFP,
				Rows: info.Stats.Rows, Bytes: info.Stats.Bytes,
				Distinct: info.Distinct, Ann: annToDTO(info.Ann),
			}
			// The catalog entry is the one record of the stored layout.
			if info.Part.IsPartitioned() {
				dto.PartSigs, dto.PartParts = info.Part.Sigs, info.Part.Parts
			}
			if info.Plan != nil {
				pd := planToDTO(info.Plan)
				dto.Plan = &pd
			}
			cat.Tables = append(cat.Tables, dto)
			rels = append(rels, ds.Relation())
		}
	}
	// Generation g names every file of this save <name>.g<g>.tbl; take the
	// first g none of whose names the catalog in place references.
	for g := 1; ; g++ {
		clash := false
		for i := range cat.Tables {
			cat.Tables[i].File = cat.Tables[i].Name + ".g" + strconv.Itoa(g) + ".tbl"
			clash = clash || old[cat.Tables[i].File]
		}
		if !clash {
			break
		}
	}
	for i, t := range cat.Tables {
		if err := writeSynced(filepath.Join(tables, t.File), rels[i].Write); err != nil {
			return fmt.Errorf("persist: writing %s: %w", t.Name, err)
		}
	}
	if err := syncDir(tables); err != nil {
		return err
	}
	b, err := json.MarshalIndent(cat, "", " ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, "catalog.json.tmp")
	if err := writeSynced(tmp, func(w io.Writer) error { _, err := w.Write(b); return err }); err != nil {
		return fmt.Errorf("persist: writing catalog: %w", err)
	}
	if err := commit(tmp, filepath.Join(dir, "catalog.json")); err != nil {
		return fmt.Errorf("persist: committing catalog: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	// Committed. A file the replaced catalog named and this one does not
	// is garbage now; one left behind by a failed removal costs only space.
	for f := range old {
		if !slices.ContainsFunc(cat.Tables, func(t tableDTO) bool { return t.File == f }) {
			_ = os.Remove(filepath.Join(tables, f))
		}
	}
	return nil
}

// failWrite is a test seam: when set, it runs before each step of Save
// that writes (each table file, the catalog's temporary file, its rename),
// and a non-nil result fails the step as a crash there would stop it.
var failWrite func(path string) error

// writeSynced creates path, fills it with write, and syncs and closes it.
func writeSynced(path string, write func(io.Writer) error) error {
	if failWrite != nil {
		if err := failWrite(path); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// commit renames the synced catalog into place: the save's commit point.
func commit(tmp, path string) error {
	if failWrite != nil {
		if err := failWrite(path); err != nil {
			return err
		}
	}
	return os.Rename(tmp, path)
}

// syncDir makes the directory entries created or renamed in dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// savedFiles is the set of data files the catalog in dir references: none
// when there is no catalog, or one Open could not read either.
func savedFiles(dir string) map[string]bool {
	files := map[string]bool{}
	b, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
	if err != nil {
		return files
	}
	var cat catalogDTO
	if json.Unmarshal(b, &cat) != nil {
		return files
	}
	for _, t := range cat.Tables {
		if f := t.file(); filepath.Base(f) == f {
			files[f] = true
		}
	}
	return files
}

// Open restores a session from dir. UDFs must be re-registered by the
// caller afterwards; ApplyScalars re-applies saved calibrations.
func Open(dir string, params cost.Params) (*session.Session, *Saved, error) {
	b, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
	if err != nil {
		return nil, nil, err
	}
	var cat catalogDTO
	if err := json.Unmarshal(b, &cat); err != nil {
		return nil, nil, fmt.Errorf("persist: catalog: %w", err)
	}
	if cat.Version != 1 {
		return nil, nil, fmt.Errorf("persist: unsupported catalog version %d", cat.Version)
	}
	s := session.New(params)
	for _, t := range cat.Tables {
		name := t.file()
		if filepath.Base(name) != name {
			return nil, nil, fmt.Errorf("persist: %s: data file %q is not a name under tables/", t.Name, name)
		}
		f, err := os.Open(filepath.Join(dir, "tables", name))
		if err != nil {
			return nil, nil, err
		}
		rel, err := data.ReadRelation(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, nil, fmt.Errorf("persist: reading %s: %w", t.Name, err)
		}
		kind := storage.Base
		if t.IsView {
			kind = storage.View
		}
		s.Store.Put(t.Name, kind, rel)
		ann, err := annFromDTO(t.Ann)
		if err != nil {
			return nil, nil, fmt.Errorf("persist: %s: %w", t.Name, err)
		}
		stats := cost.Stats{Rows: t.Rows, Bytes: t.Bytes}
		var part afk.Partitioning
		if t.PartParts > 0 && len(t.PartSigs) > 0 {
			part = afk.Partitioning{Sigs: t.PartSigs, Parts: t.PartParts}
		}
		if t.IsView {
			info := meta.TableInfo{Name: t.Name, Cols: t.Cols, Ann: ann, Stats: stats,
				PlanFP: t.PlanFP, Distinct: t.Distinct, Part: part}
			if t.Plan != nil {
				if info.Plan, err = planFromDTO(*t.Plan); err != nil {
					return nil, nil, fmt.Errorf("persist: %s plan: %w", t.Name, err)
				}
			}
			s.Cat.RegisterView(info, s.Cat.Epoch())
		} else {
			// RegisterBase would rebuild a fresh base annotation (identical
			// by construction) and reinstall key FDs; FDs are restored
			// explicitly below, so duplicates are deduplicated there.
			s.Cat.RegisterBase(t.Name, t.Cols, t.KeyCol, stats, t.Distinct)
			s.Cat.SetPartitioning(t.Name, part)
		}
	}
	for _, fd := range cat.FDs {
		s.Cat.FDs.Add(fd.From, fd.To)
	}
	s.Store.ResetCounters() // loading is not query I/O
	return s, &Saved{UDFScalars: cat.UDFScalars}, nil
}

// Saved carries restored metadata the caller applies after re-registering
// UDFs.
type Saved struct {
	UDFScalars map[string]float64
}

// ApplyScalars installs saved calibration scalars onto registered UDFs,
// returning the names that were applied. UDFs without a saved scalar still
// need a Calibrate run.
func (sv *Saved) ApplyScalars(s *session.Session) []string {
	var applied []string
	for name, scalar := range sv.UDFScalars {
		if d, ok := s.Cat.UDFs.Get(name); ok {
			s.Cat.UDFs.SetScalar(d, scalar)
			applied = append(applied, name)
		}
	}
	return applied
}
