// Package xnf implements the XML normal form of Arenas & Libkin (PODS
// 2002): the XNF test (Definition 8, via Proposition 10), anomalous
// functional dependencies and paths, the two schema transformations of
// Section 6 ("moving attributes" and "creating new element types"), the
// XNF decomposition algorithm of Figure 4, the implication-free variant
// of Proposition 7, the corresponding document transformations, and
// losslessness verification (Proposition 8).
package xnf

import (
	"fmt"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/engine"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

// Spec is a specification (D, Σ): a DTD together with a set of
// functional dependencies over its paths.
type Spec struct {
	DTD *dtd.DTD
	FDs []xfd.FD
}

// Clone deep-copies the specification.
func (s Spec) Clone() Spec {
	c := Spec{DTD: s.DTD.Clone()}
	for _, f := range s.FDs {
		c.FDs = append(c.FDs, f.Clone())
	}
	return c
}

// Validate checks that every FD ranges over paths of the DTD.
func (s Spec) Validate() error {
	for _, f := range s.FDs {
		if err := f.Validate(s.DTD); err != nil {
			return err
		}
	}
	return nil
}

// Anomaly is an anomalous functional dependency: a non-trivial
// S → p.@l (or S → p.S) in (D, Σ)⁺ with S → p not in (D, Σ)⁺. Its RHS
// is an anomalous path (Section 6).
type Anomaly struct {
	FD     xfd.FD   // single-RHS form, RHS an attribute or text path
	Target dtd.Path // the element path p that S fails to determine
	// Witness is a concrete document exhibiting the redundancy: it
	// conforms to the DTD, satisfies Σ, and stores the determined value
	// on two distinct Target nodes for one left-hand side. It is the
	// verified counterexample of the failed S → Target implication.
	Witness *xmltree.Tree
}

// Check decides whether (D, Σ) is in XNF and returns the anomalies
// found. Per Proposition 10, for a relational DTD (every disjunctive
// DTD is one, Proposition 9) it suffices to examine the FDs of Σ rather
// than the full closure, which is what makes the test effective; the
// DTD must be non-recursive and disjunctive, as required by the
// implication engine.
func Check(s Spec) (bool, []Anomaly, error) {
	return CheckOpts(s, engine.Options{})
}

// CheckOpts is Check with explicit engine options (worker count,
// caching) for the underlying implication engine.
func CheckOpts(s Spec, eo engine.Options) (bool, []Anomaly, error) {
	anomalies, err := AnomaliesOpts(s, eo)
	if err != nil {
		return false, nil, err
	}
	return len(anomalies) == 0, anomalies, nil
}

// Anomalies lists the anomalous FDs among (the single-RHS splits of) Σ.
func Anomalies(s Spec) ([]Anomaly, error) {
	return AnomaliesOpts(s, engine.Options{})
}

// AnomaliesOpts is Anomalies with explicit engine options.
func AnomaliesOpts(s Spec, eo engine.Options) ([]Anomaly, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	eng, err := engine.New(s.DTD, s.FDs, eo)
	if err != nil {
		return nil, err
	}
	return anomaliesWith(eng, s.FDs)
}

// AnomaliesWith lists the anomalous FDs among (the single-RHS splits
// of) fds, answering through a caller-supplied engine. The analysis
// subsystem uses it to share one cached engine between the anomaly
// scan, anomaly minimization and the repair-step search; the engine
// must be built over the spec the FDs belong to.
func AnomaliesWith(eng *engine.Engine, fds []xfd.FD) ([]Anomaly, error) {
	return anomaliesWith(eng, fds)
}

// anomaliesWith scans the single-RHS splits of fds for anomalies across
// the engine's worker pool. Results keep the sequential order: each
// goroutine writes only its own index, and the fan-out engine answers
// identically to the sequential path.
func anomaliesWith(eng *engine.Engine, fds []xfd.FD) ([]Anomaly, error) {
	var singles []xfd.FD
	for _, f := range fds {
		singles = append(singles, f.SingleRHS()...)
	}
	found := make([]*Anomaly, len(singles))
	err := eng.ForEach(len(singles), func(i int) error {
		a, ok, err := anomalous(eng, singles[i])
		if err != nil {
			return err
		}
		if ok {
			found[i] = &a
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var anomalies []Anomaly
	for _, a := range found {
		if a != nil {
			anomalies = append(anomalies, *a)
		}
	}
	return anomalies, nil
}

// anomalous decides whether a single-RHS FD is anomalous over (D, Σ);
// the engine answers both the (D, Σ) query and the triviality query
// (D, ∅) from its cache.
func anomalous(eng *engine.Engine, single xfd.FD) (Anomaly, bool, error) {
	rhs := single.RHS[0]
	if rhs.IsElem() {
		return Anomaly{}, false, nil // XNF constrains only attribute/text RHS
	}
	trivial, err := eng.Trivial(single)
	if err != nil {
		return Anomaly{}, false, err
	}
	if trivial {
		return Anomaly{}, false, nil
	}
	target := rhs.Parent()
	ans, err := eng.Implies(xfd.FD{LHS: single.LHS, RHS: []dtd.Path{target}})
	if err != nil {
		return Anomaly{}, false, err
	}
	if ans.Implied {
		return Anomaly{}, false, nil
	}
	return Anomaly{FD: single, Target: target, Witness: ans.Counterexample}, true, nil
}

// AnomalousPaths returns the set of anomalous paths AP(D, Σ) restricted
// to right-hand sides of Σ (sufficient for relational DTDs by
// Proposition 10), as dotted strings.
func AnomalousPaths(s Spec) (map[string]bool, error) {
	return AnomalousPathsOpts(s, engine.Options{})
}

// AnomalousPathsOpts is AnomalousPaths with explicit engine options.
func AnomalousPathsOpts(s Spec, eo engine.Options) (map[string]bool, error) {
	anomalies, err := AnomaliesOpts(s, eo)
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for _, a := range anomalies {
		out[a.FD.RHS[0].String()] = true
	}
	return out, nil
}

// lhsElemPaths returns the element paths of an FD's LHS.
func lhsElemPaths(f xfd.FD) []dtd.Path {
	var out []dtd.Path
	for _, p := range f.LHS {
		if p.IsElem() {
			out = append(out, p)
		}
	}
	return out
}

// normalForm checks the assumptions of Section 6 on an anomalous FD:
// at most one element path on the left-hand side.
func normalFormOK(f xfd.FD) error {
	if len(lhsElemPaths(f)) > 1 {
		return fmt.Errorf("xnf: FD %s has more than one element path on the left-hand side; "+
			"split it by introducing a key attribute first (Section 6)", f)
	}
	return nil
}
