package rewrite_test

import (
	"slices"
	"sort"
	"testing"

	"opportune/internal/hiveql"
	"opportune/internal/meta"
	"opportune/internal/rewrite"
	"opportune/internal/session"
	"opportune/internal/workload"
)

// TestMergedCandidatesCanonical is the prefix-reuse oracle: every merged
// candidate a search builds — the sets it returned and the prefixes it
// built them from — must equal the canonical tree built from scratch with
// an empty memo (plan fingerprint, annotation, output columns, read
// statistics, signature list), and merging a set's views again must hand
// out that same template.
func TestMergedCandidatesCanonical(t *testing.T) {
	t.Run("probe_state", func(t *testing.T) {
		s, w := probeState(t, 4)
		s.Opt.ClearEstimates()
		_, search := rewrite.BFRewriteSearch(s.Rew, w, s.Cat.Views())
		n, deep := checkMergedTemplates(t, s.Rew, search)
		if n == 0 || deep == 0 {
			t.Fatalf("search left %d merged templates, %d of them over 3+ views: oracle is vacuous", n, deep)
		}
		checkMergeShared(t, s.Rew, search)

		// Largest sets first into an empty search: every prefix is now built
		// and stored by buildMerged itself, not found there.
		var sets [][]*meta.TableInfo
		for _, tm := range rewrite.MergedTemplates(search) {
			sets = append(sets, tm.Views)
		}
		sort.Slice(sets, func(i, j int) bool { return len(sets[i]) > len(sets[j]) })
		empty := rewrite.NewSearch(s.Rew)
		for _, views := range sets {
			if _, err := rewrite.BuildMerged(empty, views); err != nil {
				t.Fatal(err)
			}
		}
		checkMergedTemplates(t, s.Rew, empty)
	})
	t.Run("bfr_script", func(t *testing.T) {
		// Before each query of the script runs, search for it on the catalog
		// as it stands, through the session's warm rewriter.
		s, err := workload.NewSession(workload.SmallScale())
		if err != nil {
			t.Fatal(err)
		}
		total, deep := 0, 0
		for _, q := range workload.AllQueries() {
			st, err := hiveql.ParseOne(q.SQL)
			if err != nil {
				t.Fatal(err)
			}
			s.Opt.ClearEstimates()
			w, err := s.Opt.Compile(st.Plan)
			if err != nil {
				t.Fatal(err)
			}
			_, search := rewrite.BFRewriteSearch(s.Rew, w, s.Cat.Views())
			n, d := checkMergedTemplates(t, s.Rew, search)
			total, deep = total+n, deep+d
			if _, err := workload.Exec(s, q, session.ModeBFR); err != nil {
				t.Fatal(err)
			}
		}
		if total == 0 || deep == 0 {
			t.Fatalf("script left %d merged templates, %d of them over 3+ views: oracle is vacuous", total, deep)
		}
		t.Logf("%d merged templates checked, %d over 3+ views", total, deep)
	})
}

// checkMergedTemplates compares every merged template search built with a
// from-scratch build of its view set and returns how many it checked and
// how many span three or more views (the ones built on a reused prefix).
func checkMergedTemplates(t *testing.T, r *rewrite.Rewriter, search *rewrite.Search) (n, deep int) {
	t.Helper()
	templates := rewrite.MergedTemplates(search)
	keys := make([]string, 0, len(templates))
	for k := range templates {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		tm := templates[key]
		want, err := rewrite.BuildMergedFresh(r, tm.Views)
		if err != nil {
			t.Errorf("%s: from-scratch build failed: %v", key, err)
			continue
		}
		switch {
		case tm.Key() != key || want.Key() != key:
			t.Errorf("memo key %q holds template %q, from scratch %q", key, tm.Key(), want.Key())
		case tm.Plan.Fingerprint() != want.Plan.Fingerprint():
			t.Errorf("%s: plan\n%s\nfrom scratch\n%s", tm.Key(), tm.Plan, want.Plan)
		case tm.Ann.Canon() != want.Ann.Canon():
			t.Errorf("%s: annotation %s, from scratch %s", tm.Key(), tm.Ann.Canon(), want.Ann.Canon())
		case !slices.Equal(tm.Plan.OutCols, want.Plan.OutCols):
			t.Errorf("%s: output columns %v, from scratch %v", tm.Key(), tm.Plan.OutCols, want.Plan.OutCols)
		case tm.Stats != want.Stats:
			t.Errorf("%s: stats %+v, from scratch %+v", tm.Key(), tm.Stats, want.Stats)
		case !slices.Equal(rewrite.SigIDs(tm), rewrite.SigIDs(want)):
			t.Errorf("%s: signatures %v, from scratch %v", tm.Key(), rewrite.SigIDs(tm), rewrite.SigIDs(want))
		}
		n++
		if len(tm.Views) >= 3 {
			deep++
		}
	}
	return n, deep
}

// checkMergeShared re-merges every two-view template's views: the search
// must hand out the template it holds, not a new build or a copy.
func checkMergeShared(t *testing.T, r *rewrite.Rewriter, search *rewrite.Search) {
	t.Helper()
	checked := 0
	for _, tm := range rewrite.MergedTemplates(search) {
		if len(tm.Views) != 2 {
			continue
		}
		a, err := rewrite.Single(r, tm.Views[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := rewrite.Single(r, tm.Views[1])
		if err != nil {
			t.Fatal(err)
		}
		if got := rewrite.Merge(search, a, b); got != tm {
			t.Fatalf("Merge(%s, %s) = %p, want the search's template %s (%p)", a.Key(), b.Key(), got, tm.Key(), tm)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no two-view template to re-merge")
	}
}
