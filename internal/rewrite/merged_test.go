package rewrite_test

import (
	"slices"
	"sort"
	"testing"

	"opportune/internal/meta"
	"opportune/internal/rewrite"
	"opportune/internal/session"
	"opportune/internal/workload"
)

// benchExcluded are the workload queries the repository benchmark leaves
// out of its timed scripts (their rewrites are wrong; see ROADMAP); the
// rest is the 27-query script the benchmark's evolve workload runs.
var benchExcluded = map[string]bool{
	"a2v1": true, "a2v2": true, "a2v3": true, "a2v4": true, "a7v1": true,
}

// TestMergedCandidatesCanonical is the prefix-reuse oracle: every merged
// candidate a search leaves in the memo — the sets it returned and the
// prefixes it built them from — must equal the canonical tree built from
// scratch with an empty memo (plan fingerprint, annotation, output
// columns, read statistics, signature list), and no caller may reach a
// template through the copy Merge hands out.
func TestMergedCandidatesCanonical(t *testing.T) {
	t.Run("probe_state", func(t *testing.T) {
		s, w := probeState(t, 4)
		s.Opt.ClearEstimates()
		s.Rew.BFRewrite(w, s.Cat.Views())
		n, deep := checkMergedTemplates(t, s.Rew)
		if n == 0 || deep == 0 {
			t.Fatalf("search left %d merged templates, %d of them over 3+ views: oracle is vacuous", n, deep)
		}
		checkMergeCopies(t, s.Rew)

		// Largest sets first into an empty memo: every prefix is now built
		// and stored by buildMerged itself, not found there.
		var sets [][]*meta.TableInfo
		for _, tm := range rewrite.MergedTemplates(s.Rew) {
			sets = append(sets, tm.Views)
		}
		sort.Slice(sets, func(i, j int) bool { return len(sets[i]) > len(sets[j]) })
		s.Opt.ClearEstimates()
		for _, views := range sets {
			if _, err := rewrite.BuildMerged(s.Rew, views); err != nil {
				t.Fatal(err)
			}
		}
		checkMergedTemplates(t, s.Rew)
	})
	t.Run("bfr_script", func(t *testing.T) {
		s, err := workload.NewSession(workload.SmallScale())
		if err != nil {
			t.Fatal(err)
		}
		total, deep := 0, 0
		for _, q := range workload.AllQueries() {
			if benchExcluded[q.Name] {
				continue
			}
			if _, err := workload.Exec(s, q, session.ModeBFR); err != nil {
				t.Fatal(err)
			}
			n, d := checkMergedTemplates(t, s.Rew)
			total, deep = total+n, deep+d
		}
		if total == 0 || deep == 0 {
			t.Fatalf("script left %d merged templates, %d of them over 3+ views: oracle is vacuous", total, deep)
		}
		t.Logf("%d merged templates checked, %d over 3+ views", total, deep)
	})
}

// checkMergedTemplates compares every merged template in r's memo with a
// from-scratch build of its view set and returns how many it checked and
// how many span three or more views (the ones built on a reused prefix).
func checkMergedTemplates(t *testing.T, r *rewrite.Rewriter) (n, deep int) {
	t.Helper()
	templates := rewrite.MergedTemplates(r)
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
		case tm.OptCost != 0:
			t.Errorf("%s: template carries OptCost %v: a search scored the shared template, not its copy", tm.Key(), tm.OptCost)
		}
		n++
		if len(tm.Views) >= 3 {
			deep++
		}
	}
	return n, deep
}

// checkMergeCopies re-merges every two-view template's views and mutates
// what Merge returns: the memo's template must not change.
func checkMergeCopies(t *testing.T, r *rewrite.Rewriter) {
	t.Helper()
	checked := 0
	for _, tm := range rewrite.MergedTemplates(r) {
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
		got := r.Merge(a, b, nil)
		if len(got) != 1 || got[0].Key() != tm.Key() {
			t.Fatalf("Merge(%s, %s) = %d candidates, want the memoized %s", a.Key(), b.Key(), len(got), tm.Key())
		}
		key := tm.Key()
		got[0].OptCost = 42
		rewrite.SetKey(got[0], "mutated")
		if tm.OptCost != 0 || tm.Key() != key {
			t.Fatalf("mutating Merge's result changed the memo template: OptCost %v, key %q", tm.OptCost, tm.Key())
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no two-view template to re-merge")
	}
}
