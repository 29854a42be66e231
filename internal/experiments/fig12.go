package experiments

import (
	"fmt"
	"strings"

	"opportune/internal/session"
	"opportune/internal/workload"
)

// Fig12Entry compares BFR and BFR-SYNTACTIC on one query version.
type Fig12Entry struct {
	Query                  string
	OrigSec                float64
	BFRSec, SyntacticSec   float64
	BFRImprove, SynImprove float64
}

// Fig12Result is the caching-comparison experiment (§8.3.4, Fig 12): the
// query-evolution scenario for analyst 1, rewritten by BFR and by the
// syntactic-matching-only variant. Both tie on v2 (identical sub-plans
// exist); the syntactic variant degrades on v3/v4 where reuse requires
// semantic compensation.
type Fig12Result struct {
	Entries []Fig12Entry
}

// Fig12 runs the caching comparison.
func Fig12(c Config) (*Fig12Result, error) {
	bfrS, err := newSession(c)
	if err != nil {
		return nil, err
	}
	synS, err := newSession(c)
	if err != nil {
		return nil, err
	}
	origS, err := newSession(c)
	if err != nil {
		return nil, err
	}
	res := &Fig12Result{}
	for v := 1; v <= 4; v++ {
		q := workload.QueryFor(1, v)
		mo, err := run(origS, q, session.ModeOriginal)
		if err != nil {
			return nil, err
		}
		mb, err := run(bfrS, q, session.ModeBFR)
		if err != nil {
			return nil, err
		}
		ms, err := run(synS, q, session.ModeSyntactic)
		if err != nil {
			return nil, err
		}
		if v == 1 {
			continue // improvement is zero by construction
		}
		res.Entries = append(res.Entries, Fig12Entry{
			Query:        fmt.Sprintf("A1v%d", v),
			OrigSec:      repSeconds(mo),
			BFRSec:       repSeconds(mb),
			SyntacticSec: repSeconds(ms),
			BFRImprove:   pctImprove(repSeconds(mo), repSeconds(mb)),
			SynImprove:   pctImprove(repSeconds(mo), repSeconds(ms)),
		})
	}
	return res, nil
}

// Render prints Fig 12.
func (r *Fig12Result) Render() string {
	var rows [][]string
	for _, e := range r.Entries {
		rows = append(rows, []string{
			e.Query, f3(e.OrigSec), f3(e.BFRSec), f3(e.SyntacticSec),
			f1(e.BFRImprove), f1(e.SynImprove),
		})
	}
	var sb strings.Builder
	sb.WriteString("Figure 12: BFR vs BFR-SYNTACTIC — query evolution for Analyst 1\n")
	sb.WriteString(table([]string{"query", "ORIG(s)", "BFR(s)", "SYN(s)", "BFR improve(%)", "SYN improve(%)"}, rows))
	sb.WriteString("\npaper shape: tie on v2; syntactic falls behind on v3/v4\n")
	return sb.String()
}

// Table2Entry is one holdout analyst of the no-identical-views experiment.
type Table2Entry struct {
	Analyst               int
	BFRImprove            float64
	SyntacticImprove      float64
	IdenticalViewsDropped int
}

// Table2Result is the identical-views-removed experiment (§8.3.4, Table 2):
// the user-evolution scenario after discarding every view identical to a
// target of the holdout query. Syntactic matching finds nothing (0%);
// BFR keeps finding low-cost rewrites via compensation.
type Table2Result struct {
	Entries []Table2Entry
}

// Table2 runs the no-identical-views experiment.
func Table2(c Config) (*Table2Result, error) {
	res := &Table2Result{}
	for holdout := 1; holdout <= 8; holdout++ {
		entry := Table2Entry{Analyst: holdout}
		for _, mode := range []session.Mode{session.ModeBFR, session.ModeSyntactic} {
			s, err := newSession(c)
			if err != nil {
				return nil, err
			}
			for a := 1; a <= 8; a++ {
				if a == holdout {
					continue
				}
				if _, err := run(s, workload.QueryFor(a, 1), session.ModeOriginal); err != nil {
					return nil, err
				}
			}
			q := workload.QueryFor(holdout, 1)
			w, err := compileQuery(s, q)
			if err != nil {
				return nil, err
			}
			// Discard every view identical (semantically or syntactically)
			// to a target of the holdout query.
			targets := make(map[string]bool)
			fps := make(map[string]bool)
			for _, jn := range w.Nodes {
				targets[jn.Ann.Canon()] = true
				fps[jn.PlanFP] = true
			}
			dropped := 0
			for _, v := range s.Cat.Views() {
				if targets[v.Canon()] || fps[v.PlanFP] {
					s.Store.Delete(v.Name)
					dropped++
				}
			}
			mr, err := run(s, q, mode)
			if err != nil {
				return nil, err
			}
			orig, err := newSession(c)
			if err != nil {
				return nil, err
			}
			mo, err := run(orig, q, session.ModeOriginal)
			if err != nil {
				return nil, err
			}
			imp := pctImprove(repSeconds(mo), repSeconds(mr))
			if mode == session.ModeBFR {
				entry.BFRImprove = imp
				entry.IdenticalViewsDropped = dropped
			} else {
				entry.SyntacticImprove = imp
			}
		}
		res.Entries = append(res.Entries, entry)
	}
	return res, nil
}

// Render prints Table 2.
func (r *Table2Result) Render() string {
	header := []string{"method"}
	bfrRow := []string{"BFR"}
	synRow := []string{"BFR-SYNTACTIC"}
	dropRow := []string{"identical views dropped"}
	for _, e := range r.Entries {
		header = append(header, fmt.Sprintf("A%d", e.Analyst))
		bfrRow = append(bfrRow, f1(e.BFRImprove))
		synRow = append(synRow, f1(e.SyntacticImprove))
		dropRow = append(dropRow, fmt.Sprintf("%d", e.IdenticalViewsDropped))
	}
	var sb strings.Builder
	sb.WriteString("Table 2: execution-time improvement with identical views removed\n")
	sb.WriteString(table(header, [][]string{bfrRow, synRow, dropRow}))
	sb.WriteString("\npaper shape: syntactic row all zeros; BFR row remains 51-96%\n")
	return sb.String()
}
