package xfd

// Exported fold hooks for the incremental checking engine
// (internal/incremental). The Session keeps a third accumulator beside
// the witness fold and FoldState: NodeID-keyed reference counts per
// (LHS key, RHS key) pair, maintained across edits. It keys by NodeID
// rather than by positional address because deleting a sibling shifts
// the ordinals of every later sibling, which would re-key tuples the
// edit never touched. It needs the cluster layout, the projectors (to
// run pinned delta streams) and the key encoder — exposed here so its
// maps are keyed exactly as a from-scratch fold keys them — and turns
// its verdicts into reports through WitnessReportGroups, restricted to
// the LHS groups its refcounts hold as conflicted, which is what makes
// them bit-identical to Violations.

import (
	"context"

	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xmltree"
)

// NumClusters returns the number of FD clusters the set compiled to.
func (cs *CheckerSet) NumClusters() int { return len(cs.clusters) }

// ClusterLabel returns the root label cluster ci applies to: on
// documents with any other root label, all of the cluster's FDs are
// vacuously satisfied.
func (cs *CheckerSet) ClusterLabel(ci int) string { return cs.clusters[ci].label }

// ClusterFDs returns the indices (into Σ order, as FDAt addresses
// them) of the FDs decided by cluster ci's stream. The slice is
// shared; do not mutate it.
func (cs *CheckerSet) ClusterFDs(ci int) []int { return cs.clusters[ci].fds }

// ClusterProjector returns the union projector feeding cluster ci —
// the one whose Stream (and StreamPinned) enumerates the tuples every
// FD of the cluster is folded over.
func (cs *CheckerSet) ClusterProjector(ci int) *tuples.Projector { return cs.clusters[ci].pr }

// AppendFoldKeys computes the group keys of one projected tuple
// under FD fi (Σ index) with the fold's key encoder, vertices as
// NodeIDs: the LHS key the fold groups by and an RHS key that is equal
// between two tuples of a group exactly when their RHS values agree —
// i.e. grouping refcounts by (lhsKey, rhsKey) counts RHS equivalence
// classes, and an LHS group violates the FD iff it holds two distinct
// RHS keys. applies is false when some LHS value is ⊥ (the FD does not
// constrain the tuple; key contents are then unspecified). Keys are
// appended to the dst slices (pass buf[:0] to reuse); the returned
// slices alias them.
func (cs *CheckerSet) AppendFoldKeys(tup tuples.Tuple, fi int, lhsDst, rhsDst []byte) (lhsK, rhsK []byte, applies bool) {
	return cs.fds[fi].appendFoldKeys(tup, nil, lhsDst, rhsDst)
}

// WitnessReport re-derives the violation report for a known verdict:
// given the set of violated FD indices, it runs the witness fold over
// one sequential stream per applicable cluster, restricted to those
// FDs, and returns the same []Violated — first-conflict witnesses in Σ
// order — that Violations would produce on the document. This is how
// the sharded checker and the distributed coordinator turn a cheap
// verdict into the canonical report; a nil/empty bad set returns nil
// without walking anything.
func (cs *CheckerSet) WitnessReport(t *xmltree.Tree, bad map[int]bool) []Violated {
	return cs.WitnessReportGroups(t, allGroups(bad))
}

// WitnessReportGroups is WitnessReport for a caller that also knows
// which LHS groups conflict: groups maps each violated FD to a set of
// LHS keys holding all of its conflicted groups (GroupFilter), and the
// witness fold enters only those groups. The report is WitnessReport's
// on the same violated FDs. The incremental Session seals epochs this
// way, with the conflicted keys its refcounts already hold; an empty
// filter returns nil without walking anything.
func (cs *CheckerSet) WitnessReportGroups(t *xmltree.Tree, groups GroupFilter) []Violated {
	if len(groups) == 0 {
		return nil
	}
	out, _ := cs.violations(context.Background(), t, groups) // never cancelled
	return out
}
