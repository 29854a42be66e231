package opportune

import (
	"reflect"
	"testing"

	"opportune/internal/data"
	"opportune/internal/value"
)

// TestResultRowsAllocs: converting a stored result into Result.Rows
// allocates its two backing arrays — the row headers and the cells —
// whatever its row count. The cells here box without allocating (small
// ints, bools, nulls), so the count is the conversion's own.
func TestResultRowsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	rows := make([]data.Row, 1000)
	for i := range rows {
		rows[i] = data.Row{value.NewInt(int64(i % 200)), value.NewBool(i%2 == 0), value.NullV}
	}
	got := testing.AllocsPerRun(20, func() { resultRows(rows) })
	if got > 2 {
		t.Errorf("converting %d rows allocates %.0f times, want 2", len(rows), got)
	}
}

// TestExecResultRowsAppendDoesNotClobber: Exec's rows share one backing
// array, so each must be capped at its own length — an append to one row
// reallocates it and never overwrites the row after it.
func TestExecResultRowsAppendDoesNotClobber(t *testing.T) {
	sys := demoSystem(t)
	r, err := sys.ExecOne(`SELECT id, user FROM logs WHERE id < 10`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 2 {
		t.Fatalf("want at least two rows, got %d", len(r.Rows))
	}
	want := make([][]any, len(r.Rows))
	for i, row := range r.Rows {
		want[i] = append([]any(nil), row...)
	}
	for i := range r.Rows {
		r.Rows[i] = append(r.Rows[i], "appended")
	}
	for i, row := range r.Rows {
		if !reflect.DeepEqual(row[:len(row)-1], want[i]) {
			t.Fatalf("row %d is %v after appending to every row, was %v", i, row, want[i])
		}
	}
}
