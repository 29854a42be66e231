package afk_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"opportune"
	"opportune/internal/afk"
	"opportune/internal/hiveql"
	"opportune/internal/session"
)

// TestGuessCompleteNecessityEndToEnd is the execution-grounded necessity
// property for the §4.1 containment guess: build random view/query pairs
// where the query is, by construction, a compensation (extra filter,
// re-grouping, projection) of the view; execute both the direct plan over
// the base log and the compensation over the materialized view; whenever
// the two outputs agree — i.e. a rewrite demonstrably exists —
// GuessComplete over the compiled plan annotations must have accepted the
// pair. A rejection here is a false negative the paper's guarantee forbids.
//
// Unlike TestGuessCompleteNeverFalseNegative (which fabricates annotations
// directly), this goes through the full parse → plan → annotate pipeline,
// so it also catches annotation-propagation bugs that would starve the
// rewriter of valid candidates.
func TestGuessCompleteNecessityEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	for trial := 0; trial < 25; trial++ {
		viewCut := 20 + rng.Intn(70)  // view keeps val < viewCut
		compCut := 5 + rng.Intn(90)   // extra compensation filter
		doFilter := rng.Intn(2) == 0  // apply the extra filter?
		doGroup := rng.Intn(2) == 0   // re-aggregate by user?
		doProject := rng.Intn(2) == 0 // otherwise maybe project val away
		nRows := 30 + rng.Intn(40)

		sys := opportune.New()
		sys.SetRewriteMode(opportune.RewriteOff)
		rows := make([][]any, nRows)
		for i := range rows {
			rows[i] = []any{i, fmt.Sprintf("u%d", rng.Intn(5)), rng.Intn(7), rng.Intn(100)}
		}
		if err := sys.CreateTable("logs", "id", []string{"id", "user", "day", "val"}, rows); err != nil {
			t.Fatal(err)
		}

		// The view keeps the record key so re-grouping stays refinable.
		viewSQL := fmt.Sprintf("SELECT id, user, day, val FROM logs WHERE val < %d", viewCut)
		if _, err := sys.ExecOne("CREATE TABLE vw AS " + viewSQL); err != nil {
			t.Fatal(err)
		}

		// Assemble q over the base log and the same compensation over vw.
		where := fmt.Sprintf("WHERE val < %d", viewCut)
		compWhere := ""
		if doFilter {
			where += fmt.Sprintf(" AND val < %d", compCut)
			compWhere = fmt.Sprintf(" WHERE val < %d", compCut)
		}
		var qSQL, compSQL string
		switch {
		case doGroup:
			qSQL = fmt.Sprintf("SELECT user, SUM(val) AS s FROM logs %s GROUP BY user", where)
			compSQL = fmt.Sprintf("SELECT user, SUM(val) AS s FROM vw%s GROUP BY user", compWhere)
		case doProject:
			qSQL = fmt.Sprintf("SELECT user, val FROM logs %s", where)
			compSQL = fmt.Sprintf("SELECT user, val FROM vw%s", compWhere)
		default:
			qSQL = fmt.Sprintf("SELECT id, user, day, val FROM logs %s", where)
			compSQL = fmt.Sprintf("SELECT id, user, day, val FROM vw%s", compWhere)
		}

		direct, err := sys.ExecOne(qSQL)
		if err != nil {
			t.Fatalf("trial %d: direct %q: %v", trial, qSQL, err)
		}
		viaView, err := sys.ExecOne(compSQL)
		if err != nil {
			t.Fatalf("trial %d: compensated %q: %v", trial, compSQL, err)
		}
		if !sameRows(direct.Rows(), viaView.Rows()) {
			// The pair does not actually admit this rewrite — the
			// implication is vacuous (and our construction is broken).
			t.Fatalf("trial %d: compensation over view diverged from direct run\n q: %s\n comp: %s",
				trial, qSQL, compSQL)
		}

		// A rewrite exists; the guess must not reject the pair.
		s := sys.Session()
		qAnn, err := annotate(s, qSQL)
		if err != nil {
			t.Fatal(err)
		}
		vAnn, err := annotate(s, viewSQL)
		if err != nil {
			t.Fatal(err)
		}
		if !afk.GuessComplete(qAnn, vAnn, s.Cat.FDs) {
			t.Errorf("trial %d: false negative — rewrite exists but GuessComplete rejected\n q: %s\n v: %s",
				trial, qSQL, viewSQL)
		}
	}
}

// annotate parses and compiles one statement, returning the annotation of
// its final job — exactly what the rewriter hands to GuessComplete.
func annotate(s *session.Session, sql string) (afk.Annotation, error) {
	stmts, err := hiveql.Parse(sql)
	if err != nil {
		return afk.Annotation{}, err
	}
	w, err := s.Opt.Compile(stmts[0].Plan)
	if err != nil {
		return afk.Annotation{}, err
	}
	return w.Sink().Ann, nil
}

// sameRows compares two result row sets ignoring order.
func sameRows(a, b [][]any) bool {
	if len(a) != len(b) {
		return false
	}
	ka, kb := make([]string, len(a)), make([]string, len(b))
	for i := range a {
		ka[i] = fmt.Sprint(a[i])
	}
	for i := range b {
		kb[i] = fmt.Sprint(b[i])
	}
	sort.Strings(ka)
	sort.Strings(kb)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}
