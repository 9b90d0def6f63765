package xnf

import (
	"xmlnorm/internal/dtd"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

// FDRedundancy quantifies the redundancy one anomalous FD causes in a
// document: the value determined by the left-hand side is stored once
// per carrier node, but only one copy per distinct LHS value is
// information.
type FDRedundancy struct {
	FD          string // the anomalous FD
	Occurrences int    // carrier nodes storing the determined value
	Groups      int    // distinct LHS value combinations
	Redundant   int    // Occurrences - Groups
}

// RedundancyReport aggregates FDRedundancy over all anomalies of a
// specification, reproducing the paper's motivation: "the name Deere
// for student st1 is stored twice".
type RedundancyReport struct {
	PerFD     []FDRedundancy
	Redundant int // total redundant stored values
}

// MeasureRedundancy counts, for each anomalous FD of the specification,
// how many stored copies of the determined value the document carries
// beyond one per distinct left-hand side. Each anomaly compiles its
// path set into a query-local universe once; the per-tuple work is then
// integer lookups and an allocation-free binary group key.
func MeasureRedundancy(s Spec, t *xmltree.Tree) (RedundancyReport, error) {
	anomalies, err := Anomalies(s)
	if err != nil {
		return RedundancyReport{}, err
	}
	var rep RedundancyReport
	for _, a := range anomalies {
		rhs := a.FD.RHS[0]
		carrier := rhs.Parent() // the node storing the value
		ps := append(append([]dtd.Path{}, a.FD.LHS...), rhs, carrier)
		u := paths.ForQuery(ps)
		pr, err := tuples.NewProjector(u, ps)
		if err != nil {
			return RedundancyReport{}, err
		}
		rhsID, carrierID := u.MustLookup(rhs), u.MustLookup(carrier)
		lhsIDs := make([]paths.ID, len(a.FD.LHS))
		for i, p := range a.FD.LHS {
			lhsIDs[i] = u.MustLookup(p)
		}
		carriers := map[xmltree.NodeID]bool{}
		groups := map[string]bool{}
		var buf []byte
		// Stream the projections instead of materializing them: the
		// aggregation is two set inserts per tuple, so the stream's
		// (harmless) duplicates cost nothing and the tuple product is
		// never built.
		pr.Stream(t, func(tup tuples.Tuple) bool {
			cv, ok := tup.GetID(carrierID)
			if !ok {
				return true
			}
			if _, ok := tup.GetID(rhsID); !ok {
				return true
			}
			key, ok := xfd.AppendKey(buf[:0], tup, lhsIDs)
			buf = key
			if !ok {
				return true
			}
			carriers[cv.Node()] = true
			groups[string(key)] = true
			return true
		})
		r := FDRedundancy{
			FD:          a.FD.String(),
			Occurrences: len(carriers),
			Groups:      len(groups),
		}
		if r.Occurrences > r.Groups {
			r.Redundant = r.Occurrences - r.Groups
		}
		rep.PerFD = append(rep.PerFD, r)
		rep.Redundant += r.Redundant
	}
	return rep, nil
}
