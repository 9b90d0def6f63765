package incremental

import (
	"errors"
	"fmt"

	"xmlnorm/internal/xmltree"
)

// ErrTxnFinished is returned by every Txn method after Commit or
// Rollback has run: a transaction is single-use.
var ErrTxnFinished = errors.New("incremental: transaction already finished")

// undoKind tags one entry of a transaction's undo log.
type undoKind int

const (
	opSetAttr undoKind = iota
	opSetText
	opInsert
	opDelete
)

// undoRec records how to reverse one applied tree mutation. Records
// are applied in reverse order, so each one runs against exactly the
// tree state its mutation produced.
type undoRec struct {
	kind   undoKind
	node   xmltree.NodeID
	parent xmltree.NodeID // opDelete: original parent
	pos    int            // opDelete: original position among the parent's children
	name   string         // opSetAttr: attribute name
	val    string         // opSetAttr/opSetText: prior value
	had    bool           // opSetAttr: attribute existed; opSetText: HasText was set
	sub    *xmltree.Node  // opDelete: the detached subtree
}

// Txn is one open transaction on a Session: a batch of edits folded
// into the group maps as ONE retract/assert pass per touched region
// instead of one per edit. Begin locks out other writers; Commit
// re-asserts the dirty regions on the final tree and publishes a new
// Snapshot; Rollback restores the tree and fold to the prior epoch and
// publishes nothing. Readers pinning Snapshots meanwhile keep seeing
// the last committed epoch — a Txn's intermediate states are never
// observable.
//
// The batching invariant, per applicable cluster c:
//
//	foldState_c = fold_c(T_cur) − Σ_{d ∈ dirty_c} pinned_{T_cur}(d)
//
// where dirty_c is a set of DIRTY ANCHORS with PAIRWISE DISJOINT
// regions. Disjointness is load-bearing and subtle: the regions of two
// nodes are disjoint only when their spines diverge at same-label
// siblings (a tuple picks exactly one child per label), while spines
// diverging at different-label siblings overlap — one maximal tuple
// passes through both branches. makeDirty maintains the invariant with
// three moves: an edit whose region lies inside a dirty region does
// nothing (covered); a region that would swallow existing anchors
// promotes them (asserts their regions back, removes them) before
// retracting its own; and a region OVERLAPPING an existing anchor is
// merged with it by lifting the anchor to their lowest common
// ancestor, repeated to a fixpoint. An anchor deleted from the tree
// contributes pinned = ∅ and is skipped at commit; a staged
// (re-)inserted ID is pruned from every dirty set so it cannot be
// asserted twice.
//
// A failed edit mutates neither the tree nor the fold and leaves the
// transaction usable; Commit and Rollback finish it (further calls
// return ErrTxnFinished).
//
// A Txn is not safe for concurrent use by multiple goroutines.
type Txn struct {
	s       *Session
	dirty   []map[xmltree.NodeID]bool // per cluster, parallel to s.clusters
	touched []bool                    // per cluster: fold state diverged from the published epoch
	undo    []undoRec
	seen    map[xmltree.NodeID]bool // IDs staged by this txn's inserts
	// textDone / attrDone memoize staged value edits: once a SetText
	// (or a SetAttr of a given name) on a node has anchored every
	// cluster that sees it, repeats of the same edit on the same node
	// skip the spine walk and the cluster probes. The memo is sound
	// because a node, once inside a dirty region, stays inside one for
	// the rest of the transaction: makeDirty only ever grows regions,
	// merges them upward, or promotes swallowed anchors into a
	// containing one, and a delete-then-reinsert re-anchors the staged
	// subtree (covering its every vertex) before any later edit runs.
	// Allocated lazily — single-edit transactions never pay for them.
	textDone map[xmltree.NodeID]bool
	attrDone map[attrEdit]bool
	done     bool
}

// attrEdit keys the attrDone memo: one entry per (node, attribute
// name) staged by this transaction.
type attrEdit struct {
	id   xmltree.NodeID
	name string
}

// Begin opens a transaction, blocking until any other writer commits
// or rolls back. Every Begin must be paired with exactly one Commit or
// Rollback, or the Session's writer lock is held forever.
func (s *Session) Begin() *Txn {
	s.writeMu.Lock()
	t := &Txn{
		s:       s,
		dirty:   make([]map[xmltree.NodeID]bool, len(s.clusters)),
		touched: make([]bool, len(s.clusters)),
		seen:    make(map[xmltree.NodeID]bool),
	}
	for i := range t.dirty {
		t.dirty[i] = make(map[xmltree.NodeID]bool)
	}
	return t
}

// Tree returns the live document, including this transaction's
// uncommitted edits. Treat it as read-only.
func (t *Txn) Tree() *xmltree.Tree { return t.s.ix.Tree() }

// Node returns the node with the given ID in the live document, or an
// xmltree.UnknownNodeError.
func (t *Txn) Node(id xmltree.NodeID) (*xmltree.Node, error) { return t.s.ix.Node(id) }

// relation classifies an existing anchor's region against a candidate
// region.
type relation int

const (
	relDisjoint   relation = iota // regions share no tuple
	relCovered                    // the candidate lies inside the anchor's region
	relDescendant                 // the anchor lies inside the candidate's region
	relOverlap                    // proper overlap: merge to the common ancestor
)

// relate classifies the region of an anchor with spine dSpine against
// the candidate region pinned at `anchor` (extended by a not-yet-
// grafted child of label virtLabel when non-empty). Two regions are
// disjoint exactly when the spines diverge at same-label siblings: a
// tuple commits to one child per label at each node, so it cannot
// contain both. Divergence at different-label siblings means one tuple
// can pass through both branches — a proper overlap; for those the
// common node-prefix length is returned (the merge target).
func relate(anchor []*xmltree.Node, virtLabel string, dSpine []*xmltree.Node) (relation, int) {
	i := 0
	for i < len(anchor) && i < len(dSpine) && anchor[i] == dSpine[i] {
		i++
	}
	switch {
	case i == len(anchor) && i == len(dSpine):
		// Same node — or, with a virtual child pending, its parent.
		return relCovered, 0
	case i == len(anchor):
		// The real part of the candidate spine is a strict prefix of
		// dSpine: d sits below the candidate's last node.
		if virtLabel == "" {
			return relDescendant, 0
		}
		if dSpine[i].Label == virtLabel {
			return relDisjoint, 0 // under a same-label sibling of the new child
		}
		return relOverlap, i
	case i == len(dSpine):
		return relCovered, 0 // d is a strict ancestor of the candidate
	case anchor[i].Label == dSpine[i].Label:
		return relDisjoint, 0
	default:
		return relOverlap, i
	}
}

// makeDirty makes the region pinned at `spine` dirty in the cluster,
// preserving pairwise disjointness of the anchors. When virtLabel is
// non-empty the region is that of a child (label virtLabel, future ID
// virtID) about to be grafted under the spine's last node — an
// ASSERT-ONLY region whose tuples do not exist yet, so nothing is
// retracted unless merging widens it to real tuples. reshape says the
// edit changes the region's existing tuples (everything except a
// group-already-open insert), forcing the retract. Retracts stream the
// CURRENT tree, so makeDirty must run before the edit mutates it.
func (t *Txn) makeDirty(ci int, spine []*xmltree.Node, virtLabel string, virtID xmltree.NodeID, reshape bool) {
	s := t.s
	d := t.dirty[ci]
	for _, n := range spine {
		if d[n.ID] {
			return // covered: already inside a retracted region
		}
	}
	anchor := spine
	merged := false
	for restart := true; restart; {
		restart = false
		for id := range d {
			dsp, err := s.ix.Spine(id)
			if err != nil {
				continue // deleted anchor: empty region, disjoint from all
			}
			rel, i := relate(anchor, virtLabel, dsp)
			if rel == relCovered {
				return // unreachable after the spine check above; covered is covered
			}
			if rel == relOverlap {
				anchor = anchor[:i]
				virtLabel = ""
				merged = true
				restart = true
				break
			}
		}
	}
	if virtLabel == "" {
		// Promote anchors strictly below the final anchor: the new region
		// contains theirs, so assert theirs back before retracting the
		// whole. (Spines of one tree sharing the node at the anchor's
		// depth share the entire prefix.) This is correct for assert-only
		// entries too — their pinned regions are exactly what the fold is
		// missing.
		last := anchor[len(anchor)-1]
		for id := range d {
			dsp, err := s.ix.Spine(id)
			if err != nil {
				continue
			}
			if len(dsp) > len(anchor) && dsp[len(anchor)-1] == last {
				s.fold(&s.clusters[ci], dsp, +1)
				delete(d, id)
			}
		}
	}
	if reshape || merged {
		s.fold(&s.clusters[ci], anchor, -1)
	}
	if virtLabel != "" {
		d[virtID] = true
	} else {
		d[anchor[len(anchor)-1].ID] = true
	}
	t.touched[ci] = true
}

// SetAttr sets an attribute on the addressed node within the
// transaction. Clusters whose projection requests that attribute along
// the node's label path get the node's region marked dirty; others are
// untouched.
func (t *Txn) SetAttr(id xmltree.NodeID, name, value string) error {
	if t.done {
		return ErrTxnFinished
	}
	s := t.s
	if t.attrDone[attrEdit{id, name}] {
		v, err := s.ix.Node(id)
		if err != nil {
			return err
		}
		old, had := v.Attr(name)
		v.SetAttr(name, value)
		t.undo = append(t.undo, undoRec{kind: opSetAttr, node: id, name: name, val: old, had: had})
		return nil
	}
	spine, err := s.ix.Spine(id)
	if err != nil {
		return err
	}
	v := spine[len(spine)-1]
	labels := labelsOf(spine)
	for ci := range s.clusters {
		if !s.clusters[ci].pr.SeesAttr(labels, name) {
			continue
		}
		t.makeDirty(ci, spine, "", 0, true)
	}
	if t.attrDone == nil {
		t.attrDone = make(map[attrEdit]bool)
	}
	t.attrDone[attrEdit{id, name}] = true
	old, had := v.Attr(name)
	v.SetAttr(name, value)
	t.undo = append(t.undo, undoRec{kind: opSetAttr, node: id, name: name, val: old, had: had})
	return nil
}

// SetText replaces the addressed node's string content within the
// transaction. Nodes with element children are rejected, as in
// xmltree.Index.SetText.
func (t *Txn) SetText(id xmltree.NodeID, text string) error {
	if t.done {
		return ErrTxnFinished
	}
	s := t.s
	if t.textDone[id] {
		v, err := s.ix.Node(id)
		if err != nil {
			return err
		}
		if len(v.Children) > 0 {
			return fmt.Errorf("xmltree: node #%d <%s> has element children; delete them before SetText", id, v.Label)
		}
		oldText, oldHad := v.Text, v.HasText
		v.SetText(text)
		t.undo = append(t.undo, undoRec{kind: opSetText, node: id, val: oldText, had: oldHad})
		return nil
	}
	spine, err := s.ix.Spine(id)
	if err != nil {
		return err
	}
	v := spine[len(spine)-1]
	if len(v.Children) > 0 {
		return fmt.Errorf("xmltree: node #%d <%s> has element children; delete them before SetText", id, v.Label)
	}
	labels := labelsOf(spine)
	for ci := range s.clusters {
		if !s.clusters[ci].pr.SeesText(labels) {
			continue
		}
		t.makeDirty(ci, spine, "", 0, true)
	}
	if t.textDone == nil {
		t.textDone = make(map[xmltree.NodeID]bool)
	}
	t.textDone[id] = true
	oldText, oldHad := v.Text, v.HasText
	v.SetText(text)
	t.undo = append(t.undo, undoRec{kind: opSetText, node: id, val: oldText, had: oldHad})
	return nil
}

// stageFresh is the combined freshness walk of an insert: every vertex
// of sub must be new to the live tree (the xmltree invariant) and new
// to this walk and this transaction's earlier stagings (the subtree
// repeats a node). One pass replaces the old CheckInsert + unique-IDs
// double walk; staged IDs are recorded so a failed walk can unstage.
func (t *Txn) stageFresh(n *xmltree.Node, staged *[]xmltree.NodeID) error {
	if t.s.ix.Has(n.ID) {
		prev, _ := t.s.ix.Node(n.ID)
		return fmt.Errorf("xmltree: node #%d <%s> is already in the tree (as <%s>)", n.ID, n.Label, prev.Label)
	}
	if t.seen[n.ID] {
		return fmt.Errorf("incremental: inserted subtree repeats node #%d", n.ID)
	}
	t.seen[n.ID] = true
	*staged = append(*staged, n.ID)
	for _, c := range n.Children {
		if err := t.stageFresh(c, staged); err != nil {
			return err
		}
	}
	return nil
}

// unsee drops a deleted subtree's IDs from the staged set, so a
// within-transaction delete-then-reinsert of the same vertices stays
// legal (matching the committed-state semantics: those IDs are free
// again).
func unsee(n *xmltree.Node, seen map[xmltree.NodeID]bool) {
	delete(seen, n.ID)
	for _, c := range n.Children {
		unsee(c, seen)
	}
}

// InsertSubtree appends sub as the last child of the addressed parent
// within the transaction. When the insert OPENS the parent's sibling
// group for sub's label, the parent becomes the dirty anchor (every
// tuple through it reshapes from ⊥); otherwise the new child is an
// assert-only anchor — its tuples simply did not exist before.
func (t *Txn) InsertSubtree(parentID xmltree.NodeID, sub *xmltree.Node) error {
	if t.done {
		return ErrTxnFinished
	}
	s := t.s
	spineP, err := s.ix.Spine(parentID)
	if err != nil {
		return err
	}
	p := spineP[len(spineP)-1]
	if sub == nil {
		return fmt.Errorf("xmltree: insert of a nil subtree")
	}
	if p.HasText {
		return fmt.Errorf("xmltree: node #%d <%s> has string content; mixed content is not representable", parentID, p.Label)
	}
	var staged []xmltree.NodeID
	if err := t.stageFresh(sub, &staged); err != nil {
		for _, id := range staged {
			delete(t.seen, id)
		}
		return err
	}
	wasOpen := hasChildLabelled(p, sub.Label)
	childLabels := append(labelsOf(spineP), sub.Label)
	// A staged ID may carry a stale dirty entry from a delete earlier in
	// this txn; back in the tree it would make commit assert its region
	// twice. Prune everywhere BEFORE anchoring, so the new child's own
	// entry survives.
	for ci := range s.clusters {
		for _, id := range staged {
			if t.dirty[ci][id] {
				delete(t.dirty[ci], id)
				t.touched[ci] = true
			}
		}
	}
	// Anchor per cluster BEFORE the graft: retracts must stream the
	// pre-insert tree. A group-already-open insert only CREATES tuples
	// (those through the new child), so its region is assert-only; an
	// insert that opens the group reshapes every tuple through the
	// parent (the branch was ⊥) and anchors there.
	for ci := range s.clusters {
		if !s.clusters[ci].pr.Sees(childLabels) {
			continue
		}
		if wasOpen {
			t.makeDirty(ci, spineP, sub.Label, sub.ID, false)
		} else {
			t.makeDirty(ci, spineP, "", 0, true)
		}
	}
	if err := s.ix.GraftSubtreeAt(parentID, len(p.Children), sub); err != nil {
		panic(fmt.Sprintf("incremental: insert failed after validation: %v", err))
	}
	t.undo = append(t.undo, undoRec{kind: opInsert, node: sub.ID})
	return nil
}

// DeleteSubtree detaches the addressed node (and everything below it)
// within the transaction. A delete that CLOSES its sibling group
// anchors on the parent — the post-delete tuples take their ⊥ shape
// through it, outside the deleted node's own region — and the
// anchor's promote pass absorbs any dirty anchors below, including the
// deleted node itself.
func (t *Txn) DeleteSubtree(id xmltree.NodeID) error {
	if t.done {
		return ErrTxnFinished
	}
	s := t.s
	spine, err := s.ix.Spine(id)
	if err != nil {
		return err
	}
	if len(spine) == 1 {
		return s.ix.DeleteSubtree(id) // the canonical root refusal; mutates nothing
	}
	v := spine[len(spine)-1]
	p := spine[len(spine)-2]
	pos, err := s.ix.ChildIndex(id)
	if err != nil {
		return err
	}
	closing := true
	for _, c := range p.Children {
		if c != v && c.Label == v.Label {
			closing = false
			break
		}
	}
	labels := labelsOf(spine)
	for ci := range s.clusters {
		if !s.clusters[ci].pr.Sees(labels) {
			continue
		}
		if closing {
			t.makeDirty(ci, spine[:len(spine)-1], "", 0, true)
		} else {
			t.makeDirty(ci, spine, "", 0, true)
		}
	}
	if err := s.ix.DeleteSubtree(id); err != nil {
		panic(fmt.Sprintf("incremental: delete failed after validation: %v", err))
	}
	if len(t.seen) > 0 {
		unsee(v, t.seen)
	}
	t.undo = append(t.undo, undoRec{kind: opDelete, node: id, parent: p.ID, pos: pos, sub: v})
	return nil
}

// Commit re-asserts every dirty anchor's region on the final tree
// (anchors no longer in the tree contribute nothing), publishes the
// new Snapshot, and releases the writer lock. A transaction that
// touched no cluster — every edit landed where no projection looks —
// publishes the previous epoch's verdict and report
// (carryForwardLocked). After Commit the transaction is finished.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnFinished
	}
	t.done = true
	s := t.s
	changed := false
	for ci := range s.clusters {
		changed = changed || t.touched[ci]
		for id := range t.dirty[ci] {
			spine, err := s.ix.Spine(id)
			if err != nil {
				continue // deleted anchor: its region is empty now
			}
			s.fold(&s.clusters[ci], spine, +1)
		}
	}
	if changed {
		s.publishLocked()
	} else {
		s.carryForwardLocked()
	}
	s.writeMu.Unlock()
	return nil
}

// Rollback reverses the transaction's tree mutations (in reverse
// order, so each undo runs against exactly the tree its mutation
// produced), rebuilds the fold of every touched cluster from the
// restored tree, and releases the writer lock without publishing — the
// Session is back to its last committed epoch. Rollback is the error
// path, and it pays a fresh fold per touched cluster for it: a dirty
// region retracted mid-transaction can have been deleted and re-grafted
// since, and re-deriving the cluster from the restored tree is the one
// bookkeeping that is correct for every such history.
func (t *Txn) Rollback() error {
	if t.done {
		return ErrTxnFinished
	}
	t.done = true
	s := t.s
	for i := len(t.undo) - 1; i >= 0; i-- {
		t.applyUndo(t.undo[i])
	}
	root := s.ix.Tree().Root
	for ci := range s.clusters {
		if !t.touched[ci] {
			continue
		}
		cst := &s.clusters[ci]
		for li := range cst.st {
			cst.st[li] = newFDState()
		}
		s.fold(cst, []*xmltree.Node{root}, +1)
	}
	s.writeMu.Unlock()
	return nil
}

// applyUndo reverses one recorded mutation. Failures here are
// impossible states (the log mirrors mutations that succeeded) and
// panic.
func (t *Txn) applyUndo(r undoRec) {
	s := t.s
	switch r.kind {
	case opSetAttr:
		n, err := s.ix.Node(r.node)
		if err != nil {
			panic(fmt.Sprintf("incremental: rollback lost node #%d: %v", r.node, err))
		}
		if r.had {
			n.SetAttr(r.name, r.val)
		} else {
			delete(n.Attrs, r.name)
		}
	case opSetText:
		n, err := s.ix.Node(r.node)
		if err != nil {
			panic(fmt.Sprintf("incremental: rollback lost node #%d: %v", r.node, err))
		}
		if r.had {
			n.SetText(r.val)
		} else {
			n.Text = ""
			n.HasText = false
		}
	case opInsert:
		if err := s.ix.DeleteSubtree(r.node); err != nil {
			panic(fmt.Sprintf("incremental: rollback cannot remove inserted #%d: %v", r.node, err))
		}
	case opDelete:
		if err := s.ix.GraftSubtreeAt(r.parent, r.pos, r.sub); err != nil {
			panic(fmt.Sprintf("incremental: rollback cannot re-attach #%d: %v", r.node, err))
		}
	}
}
