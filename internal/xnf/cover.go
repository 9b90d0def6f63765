package xnf

import (
	"sort"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/implication"
	"xmlnorm/internal/xfd"
)

// MinimalCover computes an equivalent, smaller FD set over the DTD: FDs
// are split to single right-hand sides, DTD-trivial FDs are dropped,
// extraneous left-hand-side paths are removed (a path is extraneous
// when the FD still follows from the full Σ without it), and FDs
// implied by the remaining ones are dropped. The result implies, and is
// implied by, the original Σ over the same DTD — the XML analogue of
// the relational minimal cover, decided with the Section 7 implication
// engine instead of Armstrong's axioms (which are unsound here; see the
// transitivity-with-nulls test in internal/implication).
//
// The result is a canonical cover: singleton right-hand sides, reduced
// left-hand sides, no duplicates, and a canonical order — FDs sorted by
// xfd.Compare — so the rendering is byte-stable across runs and across
// engine configurations. (The cover's *content* can still depend on the
// order Σ lists its FDs, as in the relational algorithm: reduction
// keeps the first of two interchangeable members.)
//
// One closure engine is built for (D, Σ); it answers the (D, ∅)
// questions itself (implication.Engine.Trivial), and the engine of
// every reduced Σ tested is derived from it
// (implication.Engine.WithSigma), so the skeleton, the compiled content
// models and the branch assignments are built once per call.
func MinimalCover(s Spec) ([]xfd.FD, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	fullEng, err := implication.NewEngine(s.DTD, s.FDs)
	if err != nil {
		return nil, err
	}
	// Split and drop trivial FDs.
	var work []xfd.FD
	for _, f := range s.FDs {
		for _, single := range f.SingleRHS() {
			triv, err := fullEng.Trivial(single)
			if err != nil {
				return nil, err
			}
			if triv {
				continue
			}
			work = append(work, single.Clone())
		}
	}
	// Remove extraneous LHS paths: shrinking is sound when the shrunk FD
	// still follows from the original Σ.
	for i := range work {
		for len(work[i].LHS) > 1 {
			removed := false
			for j := range work[i].LHS {
				smaller := xfd.FD{RHS: work[i].RHS}
				smaller.LHS = append(append([]dtd.Path{}, work[i].LHS[:j]...), work[i].LHS[j+1:]...)
				ans, err := fullEng.Implies(smaller)
				if err != nil {
					return nil, err
				}
				if ans.Implied {
					work[i] = smaller
					removed = true
					break
				}
			}
			if !removed {
				break
			}
		}
	}
	// Remove FDs implied by the rest (including duplicates).
	var out []xfd.FD
	for i := range work {
		rest := append(append([]xfd.FD{}, out...), work[i+1:]...)
		eng, err := fullEng.WithSigma(rest)
		if err != nil {
			return nil, err
		}
		ans, err := eng.Implies(work[i])
		if err != nil {
			return nil, err
		}
		if !ans.Implied {
			out = append(out, work[i])
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return xfd.Compare(out[i], out[j]) < 0 })
	return out, nil
}
