package xnf

import (
	"xmlnorm/internal/implication"
	"xmlnorm/internal/xfd"
)

// Dependency preservation: after a decomposition, which of the original
// constraints can still be stated (after rewriting paths along the
// transformations) and are enforced by the new specification? This is
// the XML analogue of relational dependency preservation. BCNF-style
// decompositions do not guarantee it in the relational world; the
// paper's transformations do carry the anomalous FD's information into
// structure (where it becomes trivial) or into the new element's keys,
// so on well-behaved inputs everything is preserved — the report makes
// this checkable instead of assumed.

// PreservedFD pairs an original FD with its rewriting over the new DTD.
type PreservedFD struct {
	Original  xfd.FD
	Rewritten xfd.FD
	// Trivial is set when the rewritten FD follows from the new DTD
	// alone (like issue → issue.@year after the DBLP move).
	Trivial bool
}

// Preservation is the report of CheckPreservation.
type Preservation struct {
	Preserved []PreservedFD
	// Lost are original FDs whose rewriting is not a valid FD over the
	// new DTD, or is not implied by the new specification.
	Lost []xfd.FD
}

// OK reports full preservation.
func (p Preservation) OK() bool { return len(p.Lost) == 0 }

// CheckPreservation rewrites each original FD through the steps'
// accumulated path renames and tests whether the new specification
// implies it; the new specification's engine also decides, through its
// (D, ∅) engine, which preserved FDs the new DTD implies alone.
func CheckPreservation(orig, norm Spec, steps []Step) (Preservation, error) {
	renames := composeRenames(steps)
	eng, err := implication.NewEngine(norm.DTD, norm.FDs)
	if err != nil {
		return Preservation{}, err
	}
	var rep Preservation
	for _, f := range orig.FDs {
		// A transformation's rename map covers every path it *relates*
		// to the new schema, including paths that also survive verbatim
		// (the pᵢ of the create-element construction). Try the FD
		// unchanged first; only paths that actually disappeared need
		// their rewriting.
		candidates := []xfd.FD{f, rewriteFD(f, renames)}
		found := false
		for _, rw := range candidates {
			if err := rw.Validate(norm.DTD); err != nil {
				continue
			}
			ans, err := eng.Implies(rw)
			if err != nil {
				return Preservation{}, err
			}
			if !ans.Implied {
				continue
			}
			triv, err := eng.Trivial(rw)
			if err != nil {
				return Preservation{}, err
			}
			rep.Preserved = append(rep.Preserved, PreservedFD{
				Original: f, Rewritten: rw, Trivial: triv,
			})
			found = true
			break
		}
		if !found {
			rep.Lost = append(rep.Lost, f)
		}
	}
	return rep, nil
}

// composeRenames chains the per-step rename maps: a path renamed by step
// i may be renamed again by step j > i.
func composeRenames(steps []Step) map[string]string {
	composed := map[string]string{}
	for _, st := range steps {
		if st.Renames == nil {
			continue
		}
		// Update existing targets first.
		for from, to := range composed {
			if next, ok := st.Renames[to]; ok {
				composed[from] = next
			}
		}
		// Then add this step's fresh renames.
		for from, to := range st.Renames {
			if _, ok := composed[from]; !ok {
				composed[from] = to
			}
		}
	}
	return composed
}
