package xnf

import (
	"fmt"
	"sort"
	"strings"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/engine"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/xfd"
)

// StepKind identifies which transformation a normalization step applied.
type StepKind uint8

// Step kinds.
const (
	StepMoveAttribute StepKind = iota
	StepCreateElement
)

func (k StepKind) String() string {
	if k == StepMoveAttribute {
		return "move-attribute"
	}
	return "create-element"
}

// Step records one application of a transformation during
// normalization.
type Step struct {
	Kind    StepKind
	FD      xfd.FD   // the anomalous FD that triggered the step
	Detail  string   // human-readable description of the rewrite
	Dropped []xfd.FD // FDs that could not be carried to the new schema
	// Renames maps old dotted paths to their replacements in this step.
	Renames map[string]string
	// Doc transforms documents across this step (and back).
	Doc DocStep
}

// Options configures Normalize.
type Options struct {
	// Names controls the fresh element-type and attribute names.
	Names Names
	// MaxSteps caps the number of transformations (default 10·|Σ| + 10;
	// Proposition 6 guarantees each step reduces the anomalous paths, so
	// the cap only guards against bugs).
	MaxSteps int
	// Simplified selects the implication-free variant of Proposition 7:
	// only "creating element types" is applied, to anomalous members of
	// Σ, with no minimization. It still terminates with an XNF result
	// but may produce a less economical schema.
	Simplified bool
	// VerifySteps re-checks Proposition 6 at every step: the new spec
	// must validate and its anomalous-path count must strictly decrease.
	// Costs one extra XNF analysis per step; intended for tests and
	// paranoid pipelines.
	VerifySteps bool
	// Engine configures the implication engine (the worker count)
	// shared by the anomaly scan, minimization and move search of each
	// iteration. The zero value uses GOMAXPROCS workers.
	Engine engine.Options
}

// Normalize converts (D, Σ) into a specification in XNF by repeatedly
// applying the two transformations, following the decomposition
// algorithm of Figure 4: prefer moving an attribute when some element
// path q ∈ S determines the whole left-hand side, otherwise create a
// new element type for a (D, Σ)-minimal anomalous FD.
func Normalize(s Spec, opts Options) (Spec, []Step, error) {
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 10*len(s.FDs) + 10
	}
	cur := s.Clone()
	var steps []Step
	for iter := 0; ; iter++ {
		if iter >= opts.MaxSteps {
			return Spec{}, steps, fmt.Errorf("xnf: normalization did not converge in %d steps", opts.MaxSteps)
		}
		if err := cur.Validate(); err != nil {
			return Spec{}, steps, err
		}
		// One engine serves this whole iteration: the anomaly scan,
		// every minimization probe, and the move search all query the
		// same (D, Σ), so its closure engines are built once.
		eng, err := engine.New(cur.DTD, cur.FDs, opts.Engine)
		if err != nil {
			return Spec{}, steps, err
		}
		anomalies, err := AnomaliesWith(eng, cur.FDs)
		if err != nil {
			return Spec{}, steps, err
		}
		if len(anomalies) == 0 {
			return cur, steps, nil
		}
		// Figure 4 searches anomalous FDs in the *closure*; minimizing
		// each Σ anomaly first surfaces forms like {q} → p.@l on which
		// the cheaper move-attribute step applies (a shipment/lane
		// pattern reduces to the DBLP-style move this way).
		candidates := make([]Anomaly, len(anomalies))
		copy(candidates, anomalies)
		if !opts.Simplified {
			for i := range candidates {
				min, err := MinimizeAnomaly(eng, candidates[i].FD)
				if err != nil {
					return Spec{}, steps, err
				}
				candidates[i] = Anomaly{FD: min, Target: min.RHS[0].Parent()}
			}
		}
		var step Step
		var res TransformResult
		applied := false
		if !opts.Simplified {
			res, step, applied, err = tryMove(cur, eng, candidates, opts.Names)
			if err != nil {
				return Spec{}, steps, err
			}
		}
		if !applied {
			anomaly := candidates[0].FD
			if err := normalFormOK(anomaly); err != nil {
				return Spec{}, steps, err
			}
			res, err = CreateElement(cur, anomaly, opts.Names)
			if err != nil {
				return Spec{}, steps, err
			}
			step = Step{
				Kind:   StepCreateElement,
				FD:     anomaly,
				Detail: fmt.Sprintf("created element type for %s: %s", anomaly.RHS[0], renameSummary(res.Renames)),
			}
		}
		step.Dropped = res.Dropped
		step.Renames = res.Renames
		step.Doc = res.Doc
		if opts.VerifySteps {
			if err := res.Spec.Validate(); err != nil {
				return Spec{}, steps, fmt.Errorf("xnf: step %d produced an invalid spec: %v", iter+1, err)
			}
			before, err := AnomalousPathsOpts(cur, opts.Engine)
			if err != nil {
				return Spec{}, steps, err
			}
			after, err := AnomalousPathsOpts(res.Spec, opts.Engine)
			if err != nil {
				return Spec{}, steps, err
			}
			if len(after) >= len(before) {
				return Spec{}, steps, fmt.Errorf("xnf: step %d did not reduce anomalous paths (%d → %d); Proposition 6 violated",
					iter+1, len(before), len(after))
			}
		}
		steps = append(steps, step)
		cur = res.Spec
	}
}

// tryMove looks for an anomalous FD S → p.@l with an element path q ∈ S
// such that q → S is implied, and applies the attribute move. Text
// right-hand sides are left to the create-element transformation.
func tryMove(s Spec, eng *engine.Engine, anomalies []Anomaly, names Names) (TransformResult, Step, bool, error) {
	for _, a := range anomalies {
		rhs := a.FD.RHS[0]
		if !rhs.IsAttr() {
			continue
		}
		for _, q := range lhsElemPaths(a.FD) {
			ans, err := eng.Implies(xfd.FD{LHS: []dtd.Path{q}, RHS: a.FD.LHS})
			if err != nil {
				return TransformResult{}, Step{}, false, err
			}
			if !ans.Implied {
				continue
			}
			l := strings.TrimPrefix(rhs.Last(), "@")
			qElem := s.DTD.Element(q.Last())
			m := names.fresh(func(n string) bool { return qElem.HasAttr(n) }, "attr:"+rhs.String(), l)
			res, err := MoveAttribute(s, rhs, q, m)
			if err != nil {
				return TransformResult{}, Step{}, false, err
			}
			step := Step{
				Kind:   StepMoveAttribute,
				FD:     a.FD,
				Detail: fmt.Sprintf("moved %s to %s.@%s", rhs, q, m),
			}
			return res, step, true, nil
		}
	}
	return TransformResult{}, Step{}, false, nil
}

// MinimizeAnomaly refines an anomalous FD to a (D, Σ)-minimal one —
// the refinement Normalize applies before choosing a transformation —
// without performing any rewrite: while some strictly smaller
// anomalous FD exists over the definition's candidate paths, it
// switches to it (Section 6). The analysis subsystem uses it to name
// the repair step an anomaly would trigger (minimal forms like
// {q} → p.@l are what make the cheaper move-attribute step apply). An
// FD naming a path outside the engine's DTD fails with the engine's
// error.
func MinimizeAnomaly(eng *engine.Engine, f xfd.FD) (xfd.FD, error) {
	if _, _, err := eng.Resolve(f); err != nil {
		return xfd.FD{}, err
	}
	cur := f
	for depth := 0; depth < 20; depth++ {
		smaller, found := findSmallerAnomalous(eng, cur)
		if !found {
			return cur, nil
		}
		cur = smaller
	}
	return cur, nil
}

// findSmallerAnomalous searches the candidate space of the minimality
// definition: subsets S' of {q, p1, ..., pn, p0.@l0, ..., pn.@ln} with
// |S'| ≤ n and at most one element path, targeting any pᵢ.@lᵢ. The
// candidates are interned into the engine's path universe up front;
// the enumeration then manipulates integer IDs, tests membership on
// bitsets and asks the engine by ID, rendering a subset back to paths
// only when it is the answer. The enumeration order is identical to
// the historical path-slice recursion.
func findSmallerAnomalous(eng *engine.Engine, f xfd.FD) (xfd.FD, bool) {
	u := eng.Universe()
	rhs := u.MustLookup(f.RHS[0])
	attrs := []paths.ID{rhs} // p0.@l0 (the RHS), then the LHS attribute paths
	var candidates []paths.ID
	for _, q := range lhsElemPaths(f) {
		candidates = append(candidates, u.MustLookup(q))
	}
	for _, p := range f.LHS {
		if !p.IsElem() {
			attrs = append(attrs, u.MustLookup(p))
			candidates = append(candidates, u.MustLookup(p.Parent())) // pᵢ
		}
	}
	candidates = append(candidates, attrs...)
	candidates = dedupIDs(u, candidates)
	n := len(attrs) - 1 // number of LHS attribute paths
	if n < 1 {
		return xfd.FD{}, false
	}
	// f's sides as ID sets, to skip f itself among the candidates.
	fLHS, fRHS := u.NewSet(), u.NewSet()
	for _, p := range f.LHS {
		fLHS.Add(u.MustLookup(p))
	}
	for _, p := range f.RHS {
		fRHS.Add(u.MustLookup(p))
	}
	// Enumerate subsets of size ≤ n with ≤ 1 element path.
	var subsets [][]paths.ID
	var rec func(i int, cur []paths.ID, epaths int)
	rec = func(i int, cur []paths.ID, epaths int) {
		if len(cur) > 0 {
			subsets = append(subsets, append([]paths.ID(nil), cur...))
		}
		if i == len(candidates) || len(cur) == n {
			return
		}
		for j := i; j < len(candidates); j++ {
			e := epaths
			if u.KindOf(candidates[j]) == paths.ElemKind {
				e++
				if e > 1 {
					continue
				}
			}
			next := make([]paths.ID, len(cur)+1)
			copy(next, cur)
			next[len(cur)] = candidates[j]
			rec(j+1, next, e)
		}
	}
	rec(0, nil, 0)
	for _, sp := range subsets {
		spSet := u.SetOf(sp...)
		for _, target := range attrs {
			if spSet.Has(target) || fRHS.Count() == 1 && fRHS.Has(target) && spSet.Equal(fLHS) {
				continue // trivial, or f itself
			}
			if !eng.ImpliesIDs(spSet, target).Implied || eng.TrivialIDs(spSet, target) {
				continue
			}
			// Anomalous: S' must not determine the parent element.
			if eng.ImpliesIDs(spSet, u.ParentOf(target)).Implied {
				continue
			}
			return xfd.FD{LHS: idPaths(u, sp), RHS: []dtd.Path{u.PathOf(target)}}, true
		}
	}
	return xfd.FD{}, false
}

// dedupIDs keeps the first occurrence of each interned path, tracking
// seen IDs in a bitset.
func dedupIDs(u *paths.Universe, ids []paths.ID) []paths.ID {
	seen := u.NewSet()
	var out []paths.ID
	for _, id := range ids {
		if seen.Has(id) {
			continue
		}
		seen.Add(id)
		out = append(out, id)
	}
	return out
}

// idPaths renders interned IDs back to paths.
func idPaths(u *paths.Universe, ids []paths.ID) []dtd.Path {
	out := make([]dtd.Path, len(ids))
	for i, id := range ids {
		out[i] = u.PathOf(id)
	}
	return out
}

func renameSummary(renames map[string]string) string {
	var parts []string
	for from, to := range renames {
		parts = append(parts, fmt.Sprintf("%s → %s", from, to))
	}
	sort.Strings(parts) // deterministic order for logs
	return strings.Join(parts, ", ")
}
