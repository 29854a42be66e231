package udf

import (
	"fmt"
	"time"

	"opportune/internal/cost"
	"opportune/internal/data"
	"opportune/internal/mr"
	"opportune/internal/storage"
	"opportune/internal/value"
)

// CalibrationResult reports what a calibration run measured and charged.
type CalibrationResult struct {
	UDF         string
	SampleRows  int64
	Scalar      float64
	OverheadSec float64 // simulated seconds spent running the sample job
}

// Calibrate estimates the UDF's cost scalar empirically (§4.2): the first
// time a UDF is added, it executes on a 1% uniform random sample of the
// given dataset and the measured per-tuple CPU cost is divided by the
// baseline of its cheapest operation type. The descriptor's Scalar is set
// through the registry (SetScalar) and the (small) simulated overhead is
// reported so callers can charge it.
func (r *Registry) Calibrate(engine *mr.Engine, dataset string, d *Descriptor, argCols []string, params []value.V, seed int64) (*CalibrationResult, error) {
	const frac = 0.01
	ds, ok := engine.Store.Meta(dataset)
	if !ok {
		return nil, fmt.Errorf("udf: calibrate %s: dataset %q %w", d.Name, dataset, storage.ErrNotFound)
	}
	sample, err := engine.Store.Sample(ds, frac, seed)
	if err != nil {
		return nil, fmt.Errorf("udf: calibrate %s: %w", d.Name, err)
	}
	sampleName, outName := fmt.Sprintf("_calib_%s_in", d.Name), fmt.Sprintf("_calib_%s_out", d.Name)
	in := engine.Store.Put(sampleName, storage.View, sample)
	// Calibration scratch datasets are not physical design: remove them
	// however the run ends.
	defer engine.Store.Delete(sampleName)
	defer engine.Store.Delete(outName)

	idxs := make([]int, len(argCols))
	for i, c := range argCols {
		ix, ok := sample.Schema().Index(c)
		if !ok {
			return nil, fmt.Errorf("udf: calibrate %s: column %q not in %s", d.Name, c, sample.Schema())
		}
		idxs[i] = ix
	}

	outSchema := data.NewSchema("_probe")
	job := &mr.Job{
		Name:    "calibrate-" + d.Name,
		Inputs:  []string{sampleName},
		Sources: []*storage.Dataset{in},
		BatchMapFactory: func(mr.TaskCtx) mr.BatchMapFunc {
			args := make([]value.V, len(idxs))
			return func(_ int, rows []data.Row, emit mr.Emit) mr.BatchReport {
				for _, r := range rows {
					for i, ix := range idxs {
						args[i] = r[ix]
					}
					d.probe(args, params)
					emit("", data.Row{value.NewInt(1)})
				}
				return mr.BatchReport{}
			}
		},
		MapOutSchema: outSchema,
		OutputSchema: outSchema,
		Output:       outName,
		MapCost:      []cost.LocalFn{{Ops: d.MapOps, Scalar: d.TrueScalar}},
	}
	start := time.Now()
	_, run, err := engine.Run(job)
	if run != nil {
		engine.RecordJob(run.Results[0], err, time.Since(start).Seconds())
	}
	if err != nil {
		return nil, fmt.Errorf("udf: calibrate %s: %w", d.Name, err)
	}
	res := run.Results[0]

	// Measured CPU seconds = Cm minus the data-read portion.
	readSec := float64(res.InputBytes) / engine.Params.ReadRate
	cpuSec := res.Breakdown.Cm - readSec
	baseline := engine.Params.CPUSecondsPerTuple(cost.LocalFn{Ops: d.MapOps, Scalar: 1})
	scalar := 1.0
	if res.InputRows > 0 && baseline > 0 {
		scalar = cpuSec / (float64(res.InputRows) * baseline)
	}
	if scalar < 1 {
		scalar = 1
	}
	r.SetScalar(d, scalar)
	return &CalibrationResult{
		UDF:         d.Name,
		SampleRows:  res.InputRows,
		Scalar:      scalar,
		OverheadSec: res.SimSeconds,
	}, nil
}

// probe exercises the UDF's executable map-side path on one tuple (the
// engine charges simulated CPU per tuple regardless; probe keeps the real
// code on the calibration path so panics surface here, not mid-query) and
// checks what it returns against the declaration, so a UDF that breaks its
// contract on the sample fails calibration with ErrContract.
func (d *Descriptor) probe(args, params []value.V) {
	switch d.Kind {
	case KindMap:
		d.CheckMap(d.Map(args, params))
	case KindAgg:
		if d.PreMap != nil {
			if key, payload, keep := d.PreMap(args, params); keep {
				d.CheckPreMap(key, payload)
			}
		}
	}
}
