package nested

import (
	"xmlnorm/internal/dtd"
	"xmlnorm/internal/implication"
	"xmlnorm/internal/relational"
	"xmlnorm/internal/xfd"
)

// NNFViolation is a non-trivial implied FD X → A whose left-hand side
// fails to determine ancestor(A).
type NNFViolation struct {
	X        relational.AttrSet
	A        string
	Ancestor relational.AttrSet
}

// IsNNF checks the nested normal form in the paper's FD-only
// presentation: for each non-trivial X → A in (G, FD)⁺ (over atomic
// attributes), X → ancestor(A) must be in (G, FD)⁺ as well. The paper
// defines FDs over nested relations *through the XML representation*,
// so implication here is XML implication over the encoding (D_G, Σ_FD);
// the test enumerates all attribute subsets X, which is feasible for
// design-sized schemas.
func IsNNF(s *Schema, fds []relational.FD) (bool, []NNFViolation, error) {
	d, sigma, err := EncodeXML(s, fds)
	if err != nil {
		return false, nil, err
	}
	eng, err := implication.NewEngine(d, sigma)
	if err != nil {
		return false, nil, err
	}
	// (D, ∅) over the same skeleton decides triviality.
	triv, err := eng.WithSigma(nil)
	if err != nil {
		return false, nil, err
	}
	attrs := s.AtomicAttrs()
	var viols []NNFViolation
	// Enumerate all non-empty X ⊆ attrs and each A ∉ X.
	for mask := 1; mask < 1<<len(attrs); mask++ {
		x := relational.AttrSet{}
		for i, a := range attrs {
			if mask&(1<<i) != 0 {
				x[a] = true
			}
		}
		xPaths, err := attrPaths(s, x)
		if err != nil {
			return false, nil, err
		}
		for _, a := range attrs {
			if x[a] {
				continue
			}
			aPath, err := s.AttrPath(a)
			if err != nil {
				return false, nil, err
			}
			q := xfd.FD{LHS: xPaths, RHS: []dtd.Path{aPath}}
			// Non-trivial: not implied by the DTD alone.
			trivial, err := triv.Implies(q)
			if err != nil {
				return false, nil, err
			}
			if trivial.Implied {
				continue
			}
			ans, err := eng.Implies(q)
			if err != nil {
				return false, nil, err
			}
			if !ans.Implied {
				continue
			}
			// X → A holds; check X → ancestor(A).
			anc, err := s.Ancestor(a)
			if err != nil {
				return false, nil, err
			}
			ancOK := true
			for _, b := range anc.Sorted() {
				bPath, err := s.AttrPath(b)
				if err != nil {
					return false, nil, err
				}
				ab, err := eng.Implies(xfd.FD{LHS: xPaths, RHS: []dtd.Path{bPath}})
				if err != nil {
					return false, nil, err
				}
				if !ab.Implied {
					ancOK = false
					break
				}
			}
			if !ancOK {
				viols = append(viols, NNFViolation{X: x, A: a, Ancestor: anc})
			}
		}
	}
	return len(viols) == 0, viols, nil
}

func attrPaths(s *Schema, x relational.AttrSet) ([]dtd.Path, error) {
	var out []dtd.Path
	for _, a := range x.Sorted() {
		p, err := s.AttrPath(a)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
