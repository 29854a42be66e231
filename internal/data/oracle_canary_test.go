package data

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"opportune/internal/value"
)

// TestEqualSeparatesWhatAnOracleMustSeparate pins the identity the
// differential oracles compare with: Row.Equal / RowsEqual / Relation.Equal
// tell apart every pair a byte-identity check has to, including the ones a
// structural comparison of the value cell would merge (strings that share a
// first byte and a length) or split (a NaN and itself).
func TestEqualSeparatesWhatAnOracleMustSeparate(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000abc)
	differ := []struct {
		name string
		a, b value.V
	}{
		{"abc/abd", value.NewStr("abc"), value.NewStr("abd")},
		{"abc/abcd", value.NewStr("abc"), value.NewStr("abcd")},
		{"empty string/null", value.NewStr(""), value.NullV},
		{"Int(1)/Float(1)", value.NewInt(1), value.NewFloat(1)},
		{"Int(1)/Bool(true)", value.NewInt(1), value.NewBool(true)},
		{"Int(0)/null", value.NewInt(0), value.NullV},
		{"+0/-0", value.NewFloat(0), value.NewFloat(math.Copysign(0, -1))},
		{"NaN payloads", value.NewFloat(nan), value.NewFloat(math.NaN())},
		{"Str(1)/Int(1)", value.NewStr("1"), value.NewInt(1)},
	}
	schema := NewSchema("k", "v")
	relOf := func(v value.V) *Relation {
		rel := NewRelation(schema)
		rel.Append(Row{value.NewInt(7), v})
		return rel
	}
	for _, tc := range differ {
		ra, rb := Row{value.NewInt(7), tc.a}, Row{value.NewInt(7), tc.b}
		if ra.Equal(rb) || rb.Equal(ra) {
			t.Errorf("%s: Row.Equal cannot tell them apart", tc.name)
		}
		if RowsEqual([]Row{ra}, []Row{rb}) {
			t.Errorf("%s: RowsEqual cannot tell them apart", tc.name)
		}
		if relOf(tc.a).Equal(relOf(tc.b)) {
			t.Errorf("%s: Relation.Equal cannot tell them apart", tc.name)
		}
	}
	// Equal values built independently (distinct string backing arrays, a
	// NaN against itself) are equal.
	same := []struct{ a, b value.V }{
		{value.NewStr(strings.Repeat("ab", 3)), value.NewStr("ab" + strings.Repeat("ab", 2))},
		{value.NewStr(""), value.NewStr(strings.Repeat("x", 0))},
		{value.NewFloat(nan), value.NewFloat(nan)},
		{value.NewInt(math.MinInt64), value.NewInt(math.MinInt64)},
		{value.NullV, value.V{}},
		{value.NewBool(true), value.NewBool(true)},
	}
	for _, tc := range same {
		if !(Row{tc.a}).Equal(Row{tc.b}) || !relOf(tc.a).Equal(relOf(tc.b)) {
			t.Errorf("%v and %v should be equal", tc.a, tc.b)
		}
	}
	if (Row{value.NewInt(1)}).Equal(Row{value.NewInt(1), value.NullV}) {
		t.Error("rows of different width are equal")
	}
	if RowsEqual([]Row{{value.NewInt(1)}}, nil) {
		t.Error("row lists of different length are equal")
	}
	other := NewRelation(NewSchema("k", "w"))
	other.Append(Row{value.NewInt(7), value.NewInt(1)})
	if relOf(value.NewInt(1)).Equal(other) {
		t.Error("relations with different schemas are equal")
	}
}

// TestNoDeepEqualOverValues is the canary for the blind spot itself:
// reflect.DeepEqual on anything that contains a value.V compares the cell's
// data pointer, not the string it points to, so an oracle written that way
// passes on rows that differ. It type-checks every package of this module
// together with its tests and fails on a reflect.DeepEqual call one of
// whose operands has a type that can reach value.V.
func TestNoDeepEqualOverValues(t *testing.T) {
	root := moduleRoot(t)
	imp := &moduleImporter{
		fset: token.NewFileSet(),
		root: root,
		pkgs: map[string]*types.Package{},
	}
	imp.std = importer.ForCompiler(imp.fset, "source", nil)
	calls := 0
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
			return filepath.SkipDir // a nested module (bench/) is not this suite
		}
		calls += imp.checkDir(t, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls < 10 {
		t.Fatalf("inspected only %d reflect.DeepEqual calls: the walk is not seeing the suite", calls)
	}
}

func moduleRoot(t *testing.T) string {
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

const modulePath = "opportune"

// moduleImporter resolves this module's packages from their source
// directories and everything else through the standard source importer.
type moduleImporter struct {
	fset *token.FileSet
	root string
	std  types.Importer
	pkgs map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return m.std.Import(path)
	}
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	files, err := m.parse(filepath.Join(m.root, strings.TrimPrefix(path, modulePath)), func(name string) bool {
		return !strings.HasSuffix(name, "_test.go")
	})
	if err != nil {
		return nil, err
	}
	var all []*ast.File
	for _, fs := range files {
		all = append(all, fs...)
	}
	conf := types.Config{Importer: m, Error: func(error) {}}
	p, _ := conf.Check(path, m.fset, all, nil)
	m.pkgs[path] = p
	return p, nil
}

// parse returns the directory's Go files that pass keep, grouped by package
// clause.
func (m *moduleImporter) parse(dir string, keep func(name string) bool) (map[string][]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string][]*ast.File{}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || !keep(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		out[f.Name.Name] = append(out[f.Name.Name], f)
	}
	return out, nil
}

// checkDir type-checks each package in dir (tests included) and reports
// every reflect.DeepEqual operand that can reach a value.V. It returns the
// number of DeepEqual calls it looked at.
func (m *moduleImporter) checkDir(t *testing.T, dir string) int {
	byPkg, err := m.parse(dir, func(string) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	for _, files := range byPkg {
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: m, Error: func(error) {}}
		conf.Check(dir, m.fset, files, info) // errors tolerated: only operand types matter
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "DeepEqual" {
					return true
				}
				x, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pn, ok := info.Uses[x].(*types.PkgName)
				if !ok || pn.Imported().Path() != "reflect" {
					return true
				}
				calls++
				for _, arg := range call.Args {
					typ := info.TypeOf(arg)
					switch {
					case typ == nil || typ == types.Typ[types.Invalid]:
						t.Errorf("%s: cannot type reflect.DeepEqual operand", m.fset.Position(arg.Pos()))
					case reachesValue(typ, map[types.Type]bool{}):
						t.Errorf("%s: reflect.DeepEqual over %s, which contains value.V — use data.Row.Equal / data.RowsEqual / (*data.Relation).Equal",
							m.fset.Position(arg.Pos()), typ)
					}
				}
				return true
			})
		}
	}
	return calls
}

// reachesValue reports whether a value of type t can hold a value.V
// (interfaces are opaque: what they hold is not a property of the type).
func reachesValue(t types.Type, seen map[types.Type]bool) bool {
	t = types.Unalias(t)
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if o := t.Obj(); o.Pkg() != nil && o.Pkg().Path() == modulePath+"/internal/value" && o.Name() == "V" {
			return true
		}
		return reachesValue(t.Underlying(), seen)
	case *types.Pointer:
		return reachesValue(t.Elem(), seen)
	case *types.Slice:
		return reachesValue(t.Elem(), seen)
	case *types.Array:
		return reachesValue(t.Elem(), seen)
	case *types.Chan:
		return reachesValue(t.Elem(), seen)
	case *types.Map:
		return reachesValue(t.Key(), seen) || reachesValue(t.Elem(), seen)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if reachesValue(t.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}
