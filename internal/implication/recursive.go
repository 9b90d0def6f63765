package implication

import (
	"fmt"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/xfd"
)

// The PODS paper develops Section 6 for non-recursive DTDs and remarks
// that "the recursive case can be handled in a very similar fashion":
// although paths(D) is infinite, any FD set and query mention finitely
// many paths, and the closure reasoning only ever touches a bounded
// neighbourhood of those. ImpliesBounded makes that concrete: the one
// skeleton builder, buildSkeleton(d, maxDepth), unfolds the DTD's path
// tree in pre-order with element children cut at maxDepth steps, and
// the same closure runs over that unfolding, named by the IDs
// paths.ForQuery interns it with. At a non-recursive DTD's depth the
// cut removes nothing: the unfolding renders exactly as the unbounded
// one and answers exactly as Implies does (recursive_test.go).
//
// Soundness contract: a negative answer is definitive — the
// counterexample is realized and verified semantically, exactly as in
// the non-recursive case. A positive answer means "no counterexample
// whose witness pair stays within the unfolded depth"; callers choose
// the depth: at least the deepest path mentioned, plus slack for the
// crossover rules.

// ImpliesBounded decides (D, Σ) ⊢ q for a (possibly recursive)
// disjunctive DTD by unfolding paths to maxDepth steps.
func ImpliesBounded(d *dtd.DTD, sigma []xfd.FD, q xfd.FD, maxDepth int) (Answer, error) {
	need := deepestPath(sigma, q)
	if maxDepth < need {
		return Answer{}, fmt.Errorf("implication: maxDepth %d is shallower than a mentioned path (%d steps)", maxDepth, need)
	}
	sk, err := buildSkeleton(d, maxDepth)
	if err != nil {
		return Answer{}, err
	}
	return impliesSk(sk, sigma, q)
}

func deepestPath(sigma []xfd.FD, q xfd.FD) int {
	max := 0
	consider := func(f xfd.FD) {
		for _, p := range f.Paths() {
			if len(p) > max {
				max = len(p)
			}
		}
	}
	for _, f := range sigma {
		consider(f)
	}
	consider(q)
	return max
}
