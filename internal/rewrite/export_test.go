package rewrite

import "opportune/internal/meta"

// MergedTemplates returns the merged-candidate templates the memo of the
// rewriter's last search generation holds, by the view-set key they are
// stored under (sets with no canonical tree left out). They are the shared
// originals, not copies.
func MergedTemplates(r *Rewriter) map[string]*Candidate {
	out := make(map[string]*Candidate)
	if r.memo != nil {
		for k, t := range r.memo.merges {
			if t != nil {
				out[k] = t
			}
		}
	}
	return out
}

// BuildMergedFresh builds the canonical merged candidate of a view set the
// way a rewriter with an empty memo does: every join from scratch.
func BuildMergedFresh(r *Rewriter, views []*meta.TableInfo) (*Candidate, error) {
	fresh := &Rewriter{Cat: r.Cat, Opt: r.Opt, MaxViews: r.MaxViews, MaxOpRepeat: r.MaxOpRepeat}
	return fresh.buildMerged(views)
}

// BuildMerged builds the canonical merged candidate of a view set through
// r's own memo, reusing and storing prefixes.
func BuildMerged(r *Rewriter, views []*meta.TableInfo) (*Candidate, error) {
	return r.buildMerged(views)
}

// Single is the single-view candidate of v.
func Single(r *Rewriter, v *meta.TableInfo) (*Candidate, error) { return r.single(v) }

// SetKey overwrites a candidate's dedup key.
func SetKey(c *Candidate, key string) { c.key = key }

// SigIDs is the candidate's sorted attribute signature list.
func SigIDs(c *Candidate) []string { return c.sigs }
