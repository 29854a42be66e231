package main

import (
	"time"

	"opportune/internal/obs"
)

// span is one timed region. Harness spans are stamped here, around the
// harness's own calls into a layer, and carry start and end. Spans folded in
// from the program's obs.Registry carry only a duration — that is all the
// registry exports — and "result" spans are a duration the call returned
// (the rewrite search's runtime). A layer's self time is its span's
// duration minus its children's.
type span struct {
	Name    string   `json:"name"`
	StartMS *float64 `json:"start_ms,omitempty"`
	EndMS   *float64 `json:"end_ms,omitempty"`
	DurMS   float64  `json:"dur_ms"`
	Parent  int      `json:"parent"` // index into the span list, -1 for a root
	Query   string   `json:"query_id,omitempty"`
	Source  string   `json:"source"` // harness, registry or result
}

// markPhase tags the registry root span the harness ends after each of its
// operations; the program's own roots between two marks belong to the
// operation the second mark names.
const markPhase = "bench.mark"

// tracer records the traced run. A nil *tracer is the untraced run: every
// method is a no-op, so workload code never branches on tracing.
type tracer struct {
	t0    time.Time
	reg   *obs.Registry
	spans []span

	seen     int                // registry roots already folded in
	anchors  map[string]int     // operation id -> harness span its registry spans hang under
	searchMS map[string]float64 // operation id -> rewrite search runtime
}

func newTracer() *tracer {
	reg := obs.NewRegistry()
	reg.MaxSpans = 1 << 20 // a run ends tens of thousands of spans; drop none
	return &tracer{
		t0: time.Now(), reg: reg,
		anchors: make(map[string]int), searchMS: make(map[string]float64),
	}
}

func (t *tracer) sinceMS() float64 { return ms(time.Since(t.t0)) }

// start opens a harness span and returns its index.
func (t *tracer) start(name string, parent int, query string) int {
	if t == nil {
		return -1
	}
	at := t.sinceMS()
	t.spans = append(t.spans, span{Name: name, StartMS: &at, Parent: parent, Query: query, Source: "harness"})
	i := len(t.spans) - 1
	if name == "session.run" || name == "session.append" {
		t.anchors[query] = i
	}
	return i
}

// end closes a harness span and returns its duration in ms.
func (t *tracer) end(i int) float64 {
	if t == nil {
		return 0
	}
	at := t.sinceMS()
	sp := &t.spans[i]
	sp.EndMS = &at
	sp.DurMS = at - *sp.StartMS
	return sp.DurMS
}

// mark closes operation id in the registry's span stream.
func (t *tracer) mark(id string) {
	if t == nil {
		return
	}
	t.reg.StartSpan(id, markPhase).End()
}

// search records the rewrite-search runtime operation id's call returned.
func (t *tracer) search(id string, seconds float64) {
	if t == nil {
		return
	}
	t.searchMS[id] = seconds * 1e3
}

func (t *tracer) add(name string, durMS float64, parent int, query, source string) int {
	t.spans = append(t.spans, span{Name: name, DurMS: durMS, Parent: parent, Query: query, Source: source})
	return len(t.spans) - 1
}

// fold hangs the registry spans ended since the last fold under the harness
// span of the operation that caused them: the session's plan and execute
// spans under session.run, engine job spans (with their phases) under
// session.execute or session.append.
func (t *tracer) fold() {
	roots := t.reg.Spans()
	var open []obs.SpanExport
	for _, r := range roots[t.seen:] {
		if r.Phase != markPhase {
			open = append(open, r)
			continue
		}
		if anchor, ok := t.anchors[r.Job]; ok {
			t.hang(open, anchor, r.Job)
		}
		open = open[:0]
	}
	t.seen = len(roots)
}

func (t *tracer) hang(roots []obs.SpanExport, anchor int, id string) {
	jobsUnder := anchor
	for _, r := range roots {
		if r.Phase != "query" {
			continue
		}
		for _, c := range r.Children {
			switch c.Phase {
			case "plan":
				pl := t.add("session.plan", c.WallSeconds*1e3, anchor, id, "registry")
				if s, ok := t.searchMS[id]; ok {
					t.add("rewrite.search", s, pl, id, "result")
				}
			case "execute":
				jobsUnder = t.add("session.execute", c.WallSeconds*1e3, anchor, id, "registry")
			}
		}
	}
	for _, r := range roots {
		if r.Phase != "job" {
			continue
		}
		job := t.add("mr.job", r.WallSeconds*1e3, jobsUnder, id, "registry")
		for _, attempt := range r.Children {
			t.phases(attempt.Children, job, id)
		}
	}
}

func (t *tracer) phases(children []obs.SpanExport, parent int, id string) {
	for _, c := range children {
		i := t.add("mr."+c.Phase, c.WallSeconds*1e3, parent, id, "registry")
		t.phases(c.Children, i, id)
	}
}

// layerTimes sums, per span name, inclusive and self milliseconds.
func (t *tracer) layerTimes() (total, self map[string]float64) {
	total = make(map[string]float64)
	self = make(map[string]float64)
	children := make([]float64, len(t.spans))
	for _, sp := range t.spans {
		if sp.Parent >= 0 {
			children[sp.Parent] += sp.DurMS
		}
	}
	for i, sp := range t.spans {
		total[sp.Name] += sp.DurMS
		self[sp.Name] += sp.DurMS - children[i]
	}
	return total, self
}
