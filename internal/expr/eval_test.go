package expr

import (
	"strings"
	"testing"

	"opportune/internal/data"
	"opportune/internal/value"
)

func testSchemaRows() (*data.Schema, []data.Row) {
	s := data.NewSchema("id", "score", "text")
	rows := []data.Row{
		{value.NewInt(1), value.NewFloat(0.9), value.NewStr("great wine")},
		{value.NewInt(2), value.NewFloat(0.1), value.NewStr("bad coffee")},
		{value.NewInt(3), value.NullV, value.NewStr("wine again")},
	}
	return s, rows
}

func TestCompileCmp(t *testing.T) {
	s, rows := testSchemaRows()
	e := NewEvaluator()
	c, err := e.Compile(NewCmp("score", Gt, value.NewFloat(0.5)), s)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, false} // NULL comparison is false
	for i, r := range rows {
		if got := c(r); got != want[i] {
			t.Errorf("row %d: got %v", i, got)
		}
	}
}

func TestCompileAttrEq(t *testing.T) {
	s := data.NewSchema("a", "b")
	e := NewEvaluator()
	c, err := e.Compile(NewAttrEq("a", "b"), s)
	if err != nil {
		t.Fatal(err)
	}
	if !c(data.Row{value.NewInt(2), value.NewInt(2)}) {
		t.Error("equal values rejected")
	}
	if c(data.Row{value.NewInt(2), value.NewInt(3)}) {
		t.Error("unequal values accepted")
	}
	if c(data.Row{value.NullV, value.NullV}) {
		t.Error("NULL = NULL should be false")
	}
}

func TestCompileOpaque(t *testing.T) {
	s, rows := testSchemaRows()
	e := NewEvaluator()
	e.RegisterOpaque("mentions_wine", func(args []value.V) bool {
		return strings.Contains(args[0].Str(), "wine")
	})
	c, err := e.Compile(NewOpaque("mentions_wine", "text"), s)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true}
	for i, r := range rows {
		if got := c(r); got != want[i] {
			t.Errorf("row %d: got %v", i, got)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	s, _ := testSchemaRows()
	e := NewEvaluator()
	if _, err := e.Compile(NewCmp("missing", Eq, value.NewInt(1)), s); err == nil {
		t.Error("missing column accepted")
	}
	if _, err := e.Compile(NewAttrEq("id", "missing"), s); err == nil {
		t.Error("missing attr-eq column accepted")
	}
	if _, err := e.Compile(NewOpaque("unregistered", "id"), s); err == nil {
		t.Error("unregistered opaque accepted")
	}
	e.RegisterOpaque("f", func([]value.V) bool { return true })
	if _, err := e.Compile(NewOpaque("f", "missing"), s); err == nil {
		t.Error("opaque with missing column accepted")
	}
}
