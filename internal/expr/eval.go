package expr

import (
	"fmt"

	"opportune/internal/data"
	"opportune/internal/value"
)

// OpaqueFn is the executable form of an opaque (user-code) predicate: it
// receives the argument values in declaration order and decides whether the
// row passes.
type OpaqueFn func(args []value.V) bool

// Evaluator compiles predicates against a schema and evaluates them on rows.
// Opaque predicates resolve through the registry; evaluating an unregistered
// opaque predicate is an error at compile time.
type Evaluator struct {
	opaque map[string]OpaqueFn
}

// NewEvaluator creates an evaluator with an empty opaque-predicate registry.
func NewEvaluator() *Evaluator {
	return &Evaluator{opaque: make(map[string]OpaqueFn)}
}

// RegisterOpaque installs the executable implementation of a named opaque
// predicate.
func (e *Evaluator) RegisterOpaque(name string, fn OpaqueFn) {
	e.opaque[name] = fn
}

// Opaque resolves a registered opaque predicate by name. The optimizer's
// fused compiler uses it to bind user-code predicates directly into a
// specialized batch kernel with the same resolution rule Compile applies.
func (e *Evaluator) Opaque(name string) (OpaqueFn, bool) {
	fn, ok := e.opaque[name]
	return fn, ok
}

// Compiled is a predicate bound to a schema, ready to evaluate on rows.
type Compiled func(r data.Row) bool

// Compile binds a predicate to a schema. Column names in the predicate must
// exist in the schema.
func (e *Evaluator) Compile(p Pred, schema *data.Schema) (Compiled, error) {
	switch p.Kind {
	case KindCmp:
		ix, ok := schema.Index(p.Attr)
		if !ok {
			return nil, fmt.Errorf("expr: column %q not in schema %s", p.Attr, schema)
		}
		op, lit := p.Op, p.Lit
		return func(r data.Row) bool {
			v := r[ix]
			if v.IsNull() {
				return false // SQL-ish: comparisons with NULL are not true
			}
			return holds(sign(value.Compare(v, lit)), op)
		}, nil
	case KindAttrEq:
		i1, ok1 := schema.Index(p.Attr)
		i2, ok2 := schema.Index(p.Attr2)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("expr: columns %q,%q not both in schema %s", p.Attr, p.Attr2, schema)
		}
		return func(r data.Row) bool {
			if r[i1].IsNull() || r[i2].IsNull() {
				return false
			}
			return value.Equal(r[i1], r[i2])
		}, nil
	case KindOpaque:
		fn, ok := e.opaque[p.Name]
		if !ok {
			return nil, fmt.Errorf("expr: opaque predicate %q not registered", p.Name)
		}
		idxs := make([]int, len(p.Args))
		for i, a := range p.Args {
			ix, ok := schema.Index(a)
			if !ok {
				return nil, fmt.Errorf("expr: column %q not in schema %s", a, schema)
			}
			idxs[i] = ix
		}
		return func(r data.Row) bool {
			args := make([]value.V, len(idxs))
			for i, ix := range idxs {
				args[i] = r[ix]
			}
			return fn(args)
		}, nil
	default:
		return nil, fmt.Errorf("expr: invalid predicate kind %d", p.Kind)
	}
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	default:
		return 0
	}
}
