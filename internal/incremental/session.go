// Package incremental re-validates documents across edits without
// re-streaming the tree: the delta engine for T ⊨ Σ, structured as a
// single-writer transaction core with lock-free snapshot readers.
//
// A from-scratch pass (xfd.CheckerSet) decides satisfaction by
// streaming every cluster's projected tuples — Definition 6's
// tuples_D(T), restricted to the paths Σ mentions — into per-FD
// LHS-keyed group tables. That cost is paid in full on every call, even
// when the document changed by one attribute. The projection stream,
// however, factorizes at every sibling-group choice point (see
// tuples.StreamPinned): the tuples an edit at node v can touch are
// exactly those whose choices select v's ancestor spine, a sub-
// multiset the pinned node walk enumerates directly, without visiting
// the unaffected regions of the product or building anything for them.
//
// A Session exploits this by keeping the groups ALIVE between edits,
// with reference counts: per cluster, per FD, a two-level map
// lhsKey → rhsKey → count of projected tuples, where the RHS key is
// injective with respect to the checker's RHS-agreement relation
// (xfd.CheckerSet.AppendFoldKeys, the fold's one key encoder). Vertices
// are keyed by NodeID, not by positional address as in a FoldState:
// deleting a sibling shifts the ordinals of every later sibling, which
// would re-key tuples the edit never touched. An FD is violated
// exactly when some LHS group holds two distinct RHS keys, and a
// per-FD set of those "conflicted" LHS keys makes that verdict O(1) to
// read.
//
// Mutations are grouped into transactions (Begin/Commit/Rollback, see
// Txn); the classic per-edit methods are single-edit transactions. A
// transaction maintains per-cluster DIRTY REGIONS — disjoint pinned
// spines whose tuples have been retracted from the fold — so that k
// edits under one region cost one retract and one assert instead of k
// of each, and commits by re-asserting the dirty regions on the final
// tree, with the region endpoints shifted one level up when an edit
// opens or closes a sibling group (first child of a label in, last
// child out), because a closed group contributes ⊥ through the parent
// rather than a choice. Clusters whose projection cannot see an edited
// region at all (Sees/SeesAttr/SeesText) are skipped — their before
// and after streams are identical by construction.
//
// Every commit PUBLISHES an immutable Snapshot — the epoch mechanism
// that makes the Session safe for one writer plus any number of
// concurrent readers: verdict and witness report are computed under
// the writer lock and stored behind one atomic pointer, so Violated,
// Satisfied, Report and Snapshot never block (bar the first Snapshot
// or Report call, below), never observe torn refcounts, and a reader
// that pins a Snapshot mid-transaction keeps reading the pre-commit
// state. The verdict is read off the conflicted
// sets in O(Σ); witness REPORTS are re-derived per epoch by a
// sequential pass restricted to the violated FDs and, within each, to
// the LHS groups its conflicted set holds
// (xfd.CheckerSet.WitnessReportGroups): the first conflict in
// enumeration order always lies in such a group, which is what makes
// Snapshot.Report bit-identical, same FDs, same order, same witness
// tuples, to what a from-scratch CheckerSet.Violations would return on
// the committed tree, while no other group is entered. The pass runs
// only once some caller may ask for a report: the first Snapshot or
// Report call puts the Session in sticky reporting mode, and until
// then commits skip the witness pass entirely, so workloads reading
// only Violated and Satisfied re-validate at pure delta cost. A
// commit that touched no cluster (its edits landed where no
// projection looks, such as text no FD reads) re-derives nothing: it
// CARRIES FORWARD the previous epoch's verdict and sealed report,
// because every projection, and so every witness, is unchanged.
//
// This is layer 5 of the checking spine — ARCHITECTURE.md at the repo
// root — hosted by xnf watch (as a REPL) and xnf serve (over HTTP).
package incremental

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

// fdState is the refcounted group map of one FD: how many projected
// tuples of the current tree fold to each (LHS key, RHS key) pair.
// Zero-count entries are deleted eagerly, so len(groups[lhs]) is the
// number of distinct RHS classes of the group and conflicted holds the
// LHS keys with at least two — the FD is violated iff it is non-empty,
// and a seal's witness fold enters only those groups.
type fdState struct {
	groups     map[string]map[string]int
	conflicted map[string]struct{}
}

// newFDState returns the state of zero tuples.
func newFDState() fdState {
	return fdState{groups: make(map[string]map[string]int), conflicted: make(map[string]struct{})}
}

// add applies one refcount delta. A count driven below zero means a
// retract stream did not match the asserted state — a bug in the delta
// algebra, never a data condition — and panics.
func (st *fdState) add(lhs, rhs string, delta int) {
	g := st.groups[lhs]
	if g == nil {
		g = make(map[string]int)
		st.groups[lhs] = g
	}
	before := len(g)
	n := g[rhs] + delta
	switch {
	case n > 0:
		g[rhs] = n
	case n == 0:
		delete(g, rhs)
	default:
		panic(fmt.Sprintf("incremental: refcount below zero for lhs %q rhs %q", lhs, rhs))
	}
	after := len(g)
	if before < 2 && after >= 2 {
		st.conflicted[lhs] = struct{}{}
	} else if before >= 2 && after < 2 {
		delete(st.conflicted, lhs)
	}
	if after == 0 {
		delete(st.groups, lhs)
	}
}

// clusterState is the live fold of one applicable cluster: its
// projector (for pinned delta streams) and one fdState per cluster FD.
type clusterState struct {
	pr  *tuples.Projector
	fds []int // Σ indices, cluster order
	st  []fdState
}

// Session is a stateful incremental checker for one (CheckerSet,
// document) pair. Build with New; apply every mutation through a Txn
// (Begin) or the single-edit convenience methods — editing the tree
// behind its back leaves the group maps stale (exactly as with
// xmltree.Index).
//
// Concurrency: ONE writer at a time (Begin serializes transactions on
// an internal mutex; the per-edit methods are one-edit transactions),
// while Violated, Satisfied, Report, and Snapshot are safe to call
// from any number of goroutines at any moment — they read the last
// published epoch and never block on, or observe, an in-flight
// transaction. Tree and Node expose the live tree and are writer-side:
// between Begin and Commit they see uncommitted mutations.
type Session struct {
	cs       *xfd.CheckerSet
	ix       *xmltree.Index
	clusters []clusterState

	writeMu sync.Mutex // held from Begin to Commit/Rollback
	seq     uint64     // epoch counter, writer-owned
	snap    atomic.Pointer[Snapshot]

	// reporting flips true (sticky) at the first Snapshot or Report
	// call; from then on every violated epoch's witness report is
	// sealed at publish. Until then publishes stay O(Σ) — verdict-only
	// workloads never pay the witness pass. See Session.Snapshot.
	reporting atomic.Bool
}

// New builds a Session over the checker set and document: one node
// index plus one full fold per cluster whose root label matches —
// the same price as a single CheckerSet.Violations pass, paid once —
// and publishes the initial Snapshot.
func New(cs *xfd.CheckerSet, doc *xmltree.Tree) (*Session, error) {
	ix, err := xmltree.NewIndex(doc)
	if err != nil {
		return nil, err
	}
	s := &Session{cs: cs, ix: ix}
	for ci := 0; ci < cs.NumClusters(); ci++ {
		if cs.ClusterLabel(ci) != doc.Root.Label {
			continue // vacuous on this document, and root labels never change
		}
		fds := cs.ClusterFDs(ci)
		cst := clusterState{pr: cs.ClusterProjector(ci), fds: fds, st: make([]fdState, len(fds))}
		for li := range cst.st {
			cst.st[li] = newFDState()
		}
		s.clusters = append(s.clusters, cst)
	}
	for i := range s.clusters {
		s.fold(&s.clusters[i], []*xmltree.Node{doc.Root}, +1)
	}
	s.publishLocked()
	return s, nil
}

// Tree returns the session's document. Treat it as read-only; between
// Begin and Commit it reflects the transaction's uncommitted edits.
func (s *Session) Tree() *xmltree.Tree { return s.ix.Tree() }

// Node returns the node with the given ID, or an
// xmltree.UnknownNodeError.
func (s *Session) Node(id xmltree.NodeID) (*xmltree.Node, error) { return s.ix.Node(id) }

// fold streams the pinned region into every FD of the cluster with the
// given refcount delta. A spine of just the root folds the full
// cluster stream.
func (s *Session) fold(cst *clusterState, spine []*xmltree.Node, delta int) {
	var lbuf, rbuf []byte
	cst.pr.StreamPinned(s.ix.Tree(), spine, func(tup tuples.Tuple) bool {
		for li, fi := range cst.fds {
			lk, rk, applies := s.cs.AppendFoldKeys(tup, fi, lbuf[:0], rbuf[:0])
			lbuf, rbuf = lk, rk
			if !applies {
				continue
			}
			cst.st[li].add(string(lk), string(rk), delta)
		}
		return true
	})
}

// violatedNow reads the violated FD indices (Σ order) off the live
// conflicted sets. Writer-side: callers hold writeMu or own the
// session exclusively.
func (s *Session) violatedNow() []int {
	var out []int
	for i := range s.clusters {
		cst := &s.clusters[i]
		for li, fi := range cst.fds {
			if len(cst.st[li].conflicted) > 0 {
				out = append(out, fi)
			}
		}
	}
	sort.Ints(out)
	return out
}

// Violated returns the indices (Σ order, as CheckerSet.FDAt addresses
// them) of the FDs violated as of the last committed transaction. Safe
// for concurrent use; never blocks on a writer.
func (s *Session) Violated() []int { return s.snap.Load().Violated() }

// Satisfied reports T ⊨ Σ as of the last committed transaction, in
// O(1). Safe for concurrent use; never blocks on a writer. Like
// Violated, it leaves the Session out of reporting mode.
func (s *Session) Satisfied() bool { return s.snap.Load().Satisfied() }

// Report returns the full violation report as of the last committed
// transaction — bit-identical (FDs, order, witness tuples) to what a
// from-scratch CheckerSet.Violations pass returned on that tree. The
// report is computed at most once per epoch and shared by every
// reader; the first call ever puts the Session in reporting mode (see
// Snapshot). Safe for concurrent use; treat the returned slice
// as read-only.
func (s *Session) Report() []xfd.Violated { return s.Snapshot().Report() }

// labelsOf extracts the label path of a spine.
func labelsOf(spine []*xmltree.Node) []string {
	labels := make([]string, len(spine))
	for i, n := range spine {
		labels[i] = n.Label
	}
	return labels
}

// hasChildLabelled reports whether the node has a child with the
// label — whether that sibling group is open.
func hasChildLabelled(n *xmltree.Node, label string) bool {
	for _, c := range n.Children {
		if c.Label == label {
			return true
		}
	}
	return false
}

// edit1 runs one edit as a single-op transaction: the classic per-edit
// API. A failed op mutates nothing; a successful one commits and
// publishes a fresh Snapshot.
func (s *Session) edit1(op func(t *Txn) error) error {
	t := s.Begin()
	if err := op(t); err != nil {
		_ = t.Rollback()
		return err
	}
	return t.Commit()
}

// SetAttr sets an attribute on the addressed node and re-validates.
// Only clusters whose projection requests that attribute at the node's
// label path re-fold, and only over the node's pinned region.
func (s *Session) SetAttr(id xmltree.NodeID, name, value string) error {
	return s.edit1(func(t *Txn) error { return t.SetAttr(id, name, value) })
}

// SetText replaces the addressed node's string content and
// re-validates. Nodes with element children are rejected, as in
// xmltree.Index.SetText.
func (s *Session) SetText(id xmltree.NodeID, text string) error {
	return s.edit1(func(t *Txn) error { return t.SetText(id, text) })
}

// InsertSubtree appends sub as the last child of the addressed parent
// and re-validates. When the parent already has children of sub's
// label the existing tuples are untouched and only the tuples choosing
// the new child are asserted; when the insert OPENS the group, every
// tuple through the parent changes (the branch was ⊥), so the parent's
// pinned region is retracted first and re-asserted after.
func (s *Session) InsertSubtree(parentID xmltree.NodeID, sub *xmltree.Node) error {
	return s.edit1(func(t *Txn) error { return t.InsertSubtree(parentID, sub) })
}

// DeleteSubtree detaches the addressed node (and everything below it)
// and re-validates. The node's pinned region is retracted; when the
// delete CLOSES its sibling group (last child of the label out), the
// parent's region is re-asserted — the branch contributes ⊥ now, and
// every tuple through the parent changes shape.
func (s *Session) DeleteSubtree(id xmltree.NodeID) error {
	return s.edit1(func(t *Txn) error { return t.DeleteSubtree(id) })
}
