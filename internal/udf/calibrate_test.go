package udf

import (
	"strings"
	"testing"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/mr"
	"opportune/internal/storage"
	"opportune/internal/value"
)

func calibEngine(t *testing.T, rows int) *mr.Engine {
	t.Helper()
	st := storage.NewStore()
	rel := data.NewRelation(data.NewSchema("id", "text"))
	for i := 0; i < rows; i++ {
		rel.Append(data.Row{value.NewInt(int64(i)), value.NewStr("good food and good wine")})
	}
	st.Put("twtr", storage.Base, rel)
	return mr.New(st, cost.DefaultParams())
}

func TestCalibrateRecoversScalar(t *testing.T) {
	e := calibEngine(t, 2000)
	d := sentimentUDF()
	reg := NewRegistry()
	if err := reg.Register(d); err != nil {
		t.Fatal(err)
	}
	res, err := reg.Calibrate(e, "twtr", d, []string{"text"}, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.SampleRows == 0 {
		t.Fatal("empty sample")
	}
	// The engine charges TrueScalar; calibration must recover ~it.
	if d.Scalar < d.TrueScalar*0.99 || d.Scalar > d.TrueScalar*1.01 {
		t.Errorf("calibrated Scalar = %g, want ≈ %g", d.Scalar, d.TrueScalar)
	}
	if res.OverheadSec <= 0 {
		t.Error("no calibration overhead recorded")
	}
	// scratch datasets cleaned up
	if e.Store.Has("_calib_UDF_SENT_in") || e.Store.Has("_calib_UDF_SENT_out") {
		t.Error("calibration scratch not cleaned")
	}
	// sample should be ~1% of rows
	if res.SampleRows > 200 {
		t.Errorf("sample too large: %d", res.SampleRows)
	}
}

func TestCalibrateAggUDF(t *testing.T) {
	st := storage.NewStore()
	rel := data.NewRelation(data.NewSchema("user_id", "reply_to"))
	for i := 0; i < 1000; i++ {
		rel.Append(data.Row{value.NewInt(int64(i % 50)), value.NewInt(int64(i % 7))})
	}
	st.Put("twtr", storage.Base, rel)
	e := mr.New(st, cost.DefaultParams())
	d := pairsUDF()
	reg := NewRegistry()
	if err := reg.Register(d); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRegistry().Calibrate(e, "twtr", d, []string{"user_id", "reply_to"}, nil, 3); err != nil {
		t.Fatal(err)
	}
	if d.Scalar < 1 {
		t.Errorf("Scalar = %g", d.Scalar)
	}
}

func TestCalibrateErrors(t *testing.T) {
	e := calibEngine(t, 100)
	d := sentimentUDF()
	if _, err := NewRegistry().Calibrate(e, "missing", d, []string{"text"}, nil, 1); err == nil {
		t.Error("missing dataset accepted")
	}
	if _, err := NewRegistry().Calibrate(e, "twtr", d, []string{"nope"}, nil, 1); err == nil {
		t.Error("missing column accepted")
	}
}

func TestProbeExecutesRealCode(t *testing.T) {
	// probe must call through to the real map code: a broken UDF fails
	// its calibration run (the engine converts user-code panics into job
	// failures), surfacing the bug before any query uses it.
	e := calibEngine(t, 500)
	d := sentimentUDF()
	d.Map = func(args, _ []value.V) [][]value.V {
		if strings.Contains(args[0].Str(), "good") {
			panic("boom")
		}
		return nil
	}
	if _, err := NewRegistry().Calibrate(e, "twtr", d, []string{"text"}, nil, 1); err == nil || !strings.Contains(err.Error(), "failed") {
		t.Errorf("broken UDF calibrated without error: %v", err)
	}
}
