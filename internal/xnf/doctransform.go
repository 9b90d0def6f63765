package xnf

import (
	"fmt"
	"sort"
	"strings"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

// DocStep transforms documents between the schemas on the two sides of
// one normalization step. Apply rewrites a document of the old DTD into
// one of the new DTD; Invert reconstructs the original (up to tree
// equivalence ≡) from a transformed document, witnessing losslessness
// (Proposition 8) constructively.
type DocStep interface {
	Apply(t *xmltree.Tree) error
	Invert(t *xmltree.Tree) error
	String() string
}

// MoveStep is the document counterpart of D[p.@l := q.@m]: every q node
// receives as @m the (unique, by the guarding FD q → S → p.@l) value of
// @l among its p descendants, and @l disappears from the p nodes.
type MoveStep struct {
	PAttr dtd.Path // the attribute path p.@l being moved
	Q     dtd.Path // the element path receiving the attribute
	M     string   // the new attribute name @m
}

func (m *MoveStep) String() string {
	return fmt.Sprintf("move %s to %s.@%s", m.PAttr, m.Q, m.M)
}

// Apply moves the attribute values up to the q nodes.
func (m *MoveStep) Apply(t *xmltree.Tree) error {
	l := strings.TrimPrefix(m.PAttr.Last(), "@")
	p := m.PAttr.Parent()
	qNodes := nodesAt(t, m.Q)
	for _, qn := range qNodes {
		descendants := nodesAtBelow(qn.node, qn.path, p)
		values := map[string]bool{}
		for _, dn := range descendants {
			if v, ok := dn.node.Attr(l); ok {
				values[v] = true
			}
		}
		if len(values) == 0 {
			return fmt.Errorf("xnf: %s node has no %s descendant to take @%s from", m.Q, p, l)
		}
		if len(values) > 1 {
			return fmt.Errorf("xnf: %s node has conflicting @%s values %v; the document violates the guarding FD", m.Q, l, sortedKeys(values))
		}
		for v := range values {
			qn.node.SetAttr(m.M, v)
		}
		for _, dn := range descendants {
			delete(dn.node.Attrs, l)
		}
	}
	return nil
}

// Invert copies @m back down to the p descendants and removes it from q.
func (m *MoveStep) Invert(t *xmltree.Tree) error {
	l := strings.TrimPrefix(m.PAttr.Last(), "@")
	p := m.PAttr.Parent()
	for _, qn := range nodesAt(t, m.Q) {
		v, ok := qn.node.Attr(m.M)
		if !ok {
			return fmt.Errorf("xnf: %s node missing @%s", m.Q, m.M)
		}
		for _, dn := range nodesAtBelow(qn.node, qn.path, p) {
			dn.node.SetAttr(l, v)
		}
		delete(qn.node.Attrs, m.M)
	}
	return nil
}

// CreateStep is the document counterpart of creating a new element type
// τ under q: for every q node, its subtree's (x1, ..., xn) ↦ v function
// from the LHS attribute values to the RHS value is materialized as τ
// children grouped by v, and the RHS value disappears from its old
// place.
type CreateStep struct {
	Q        dtd.Path   // grouping element path (the root path when the FD had no element path)
	LHSAttrs []dtd.Path // p1.@l1, ..., pn.@ln
	RHS      dtd.Path   // p.@l or p.S
	Tau      string     // the new element type
	Members  []string   // member element types, parallel to LHSAttrs
	TextForm bool       // RHS was p.S: the text element moves under τ
	// OptionalValue marks the paper's footnote case: the RHS can be ⊥
	// while the determinants are not, so a τ group may carry members
	// without a value ("no value" is information too).
	OptionalValue bool
}

func (c *CreateStep) String() string {
	return fmt.Sprintf("create %s under %s for %s", c.Tau, c.Q, c.RHS)
}

// absentValue is the internal grouping key for the footnote case: a
// determinant whose RHS value is ⊥. It cannot collide with document
// values because it is never compared against them (groups are keyed in
// a private map).
const absentValue = "\x00⊥"

// rhsCarrier returns the path whose nodes carry the RHS value: p for
// p.@l, and the text element p for p.S.
func (c *CreateStep) rhsCarrier() dtd.Path { return c.RHS.Parent() }

// Apply groups the values under fresh τ elements.
func (c *CreateStep) Apply(t *xmltree.Tree) error {
	// Project the document onto q, the LHS attributes and the RHS to
	// recover the (q node, x1..xn, v) associations tuple by tuple. The
	// path set is compiled once into a query-local universe; the
	// per-tuple work is then integer indexing.
	ps := append([]dtd.Path{c.Q}, c.LHSAttrs...)
	ps = append(ps, c.RHS)
	u := paths.ForQuery(ps)
	pr, err := tuples.NewProjector(u, ps)
	if err != nil {
		return err
	}
	qID, rhsID := u.MustLookup(c.Q), u.MustLookup(c.RHS)
	lhsIDs := make([]paths.ID, len(c.LHSAttrs))
	for i, lp := range c.LHSAttrs {
		lhsIDs[i] = u.MustLookup(lp)
	}
	detIDs := append([]paths.ID{qID}, lhsIDs...)

	index := nodeIndex(t)
	type group struct {
		values []map[string]bool // distinct xᵢ per dimension
	}
	perQ := map[xmltree.NodeID]map[string]*group{} // q node -> v -> group
	seenLHS := map[string]string{}                 // guarding-FD check: LHS values -> v
	var keyBuf []byte
	for _, tup := range pr.Of(t) {
		qv, ok := tup.GetID(qID)
		if !ok {
			continue
		}
		rv, hasRHS := tup.GetID(rhsID)
		if !hasRHS && !c.OptionalValue {
			continue // ⊥ RHS only arises in the footnote case
		}
		vKey := absentValue
		if hasRHS {
			vKey = rv.Str()
		}
		// The transformation is only information-preserving on documents
		// that satisfy the anomalous FD; detect violations instead of
		// silently splitting one determinant across two groups.
		if key, ok := xfd.AppendKey(keyBuf[:0], tup, detIDs); ok {
			keyBuf = key
			if prev, dup := seenLHS[string(key)]; dup && prev != vKey {
				return fmt.Errorf("xnf: document violates the guarding FD: one determinant maps to %q and %q", prev, vKey)
			}
			seenLHS[string(key)] = vKey
		} else {
			keyBuf = key
		}
		byV := perQ[qv.Node()]
		if byV == nil {
			byV = map[string]*group{}
			perQ[qv.Node()] = byV
		}
		g := byV[vKey]
		if g == nil {
			g = &group{values: make([]map[string]bool, len(c.LHSAttrs))}
			for i := range g.values {
				g.values[i] = map[string]bool{}
			}
			byV[vKey] = g
		}
		for i, lid := range lhsIDs {
			if xv, ok := tup.GetID(lid); ok {
				g.values[i][xv.Str()] = true
			}
		}
	}

	// Remove the RHS value from its old position.
	if c.TextForm {
		e := c.rhsCarrier().Last()
		host := c.rhsCarrier().Parent()
		for _, hn := range nodesAt(t, host) {
			kept := hn.node.Children[:0]
			for _, ch := range hn.node.Children {
				if ch.Label != e {
					kept = append(kept, ch)
				}
			}
			hn.node.Children = kept
		}
	} else {
		l := strings.TrimPrefix(c.RHS.Last(), "@")
		for _, pn := range nodesAt(t, c.rhsCarrier()) {
			delete(pn.node.Attrs, l)
		}
	}

	// Attach τ groups.
	for qid, byV := range perQ {
		qn := index[qid]
		if qn == nil {
			return fmt.Errorf("xnf: q node #%d vanished", qid)
		}
		for _, v := range sortedKeys(byV) {
			g := byV[v]
			tau := xmltree.NewNode(c.Tau)
			for i, member := range c.Members {
				li := strings.TrimPrefix(c.LHSAttrs[i].Last(), "@")
				for _, x := range sortedKeys(g.values[i]) {
					child := xmltree.NewNode(member)
					child.SetAttr(li, x)
					tau.Children = append(tau.Children, child)
				}
			}
			switch {
			case v == absentValue:
				// Footnote case: members without a value element.
			case c.TextForm:
				e := xmltree.NewNode(c.rhsCarrier().Last())
				e.SetText(v)
				tau.Children = append(tau.Children, e)
			default:
				tau.SetAttr(strings.TrimPrefix(c.RHS.Last(), "@"), v)
			}
			qn.Children = append(qn.Children, tau)
		}
	}
	return nil
}

// Invert reconstructs the RHS values at their original positions from
// the τ groups and removes the τ elements. Exact reconstruction is
// guaranteed for a single LHS attribute (the xᵢ ↦ v association is a
// function and each xᵢ occurs under exactly one τ); with several LHS
// attributes an ambiguous lookup is reported as an error rather than
// guessed (see DESIGN.md).
func (c *CreateStep) Invert(t *xmltree.Tree) error {
	// Build per-q lookup: value vector -> v.
	type lookup struct {
		dims    []map[string]string // per dimension: x -> v ("" conflict marker)
		only    string              // the single group's value, when there are no dimensions
		hasOnly bool
	}
	lookups := map[xmltree.NodeID]*lookup{}
	for _, qn := range nodesAt(t, c.Q) {
		lk := &lookup{dims: make([]map[string]string, len(c.Members))}
		for i := range lk.dims {
			lk.dims[i] = map[string]string{}
		}
		for _, tau := range qn.node.ChildrenLabelled(c.Tau) {
			var v string
			if c.TextForm {
				es := tau.ChildrenLabelled(c.rhsCarrier().Last())
				switch {
				case len(es) == 0 && c.OptionalValue:
					v = absentValue
				case len(es) == 1 && es[0].HasText:
					v = es[0].Text
				default:
					return fmt.Errorf("xnf: %s group without a unique %s child", c.Tau, c.rhsCarrier().Last())
				}
			} else {
				var ok bool
				v, ok = tau.Attr(strings.TrimPrefix(c.RHS.Last(), "@"))
				if !ok {
					return fmt.Errorf("xnf: %s group missing its value attribute", c.Tau)
				}
			}
			if len(c.Members) == 0 {
				if lk.hasOnly && lk.only != v {
					return fmt.Errorf("xnf: several %s groups with different values under one %s", c.Tau, c.Q)
				}
				lk.only, lk.hasOnly = v, true
			}
			for i, member := range c.Members {
				li := strings.TrimPrefix(c.LHSAttrs[i].Last(), "@")
				for _, mn := range tau.ChildrenLabelled(member) {
					x, ok := mn.Attr(li)
					if !ok {
						continue
					}
					if prev, dup := lk.dims[i][x]; dup && prev != v {
						if len(c.Members) == 1 {
							return fmt.Errorf("xnf: value %q appears under two %s groups", x, c.Tau)
						}
						lk.dims[i][x] = "" // ambiguous in this dimension alone
						continue
					}
					lk.dims[i][x] = v
				}
			}
		}
		lookups[qn.node.ID] = lk
		// Drop the τ children.
		kept := qn.node.Children[:0]
		for _, ch := range qn.node.Children {
			if ch.Label != c.Tau {
				kept = append(kept, ch)
			}
		}
		qn.node.Children = kept
	}

	// Re-attach values: associate each RHS carrier node with its LHS
	// values through the projections of the *transformed-minus-τ* tree.
	// In text form the carrier element was removed from its host, so the
	// host node is the projection target and the carrier is re-created
	// under it.
	target := c.rhsCarrier()
	if c.TextForm {
		target = target.Parent()
	}
	ps := append([]dtd.Path{c.Q}, c.LHSAttrs...)
	ps = append(ps, target)
	u := paths.ForQuery(ps)
	pr, err := tuples.NewProjector(u, ps)
	if err != nil {
		return err
	}
	qID, targetID := u.MustLookup(c.Q), u.MustLookup(target)
	lhsIDs := make([]paths.ID, len(c.LHSAttrs))
	for i, lp := range c.LHSAttrs {
		lhsIDs[i] = u.MustLookup(lp)
	}
	index := nodeIndex(t)
	for _, tup := range pr.Of(t) {
		qv, ok := tup.GetID(qID)
		if !ok {
			continue
		}
		carrier, ok := tup.GetID(targetID)
		if !ok {
			continue
		}
		lk := lookups[qv.Node()]
		if lk == nil {
			continue
		}
		v, found := "", false
		if len(c.LHSAttrs) == 0 {
			// No member dimensions: the q node's single group carries
			// the value for every carrier below it.
			v, found = lk.only, lk.hasOnly
		}
		for i, lid := range lhsIDs {
			xv, ok := tup.GetID(lid)
			if !ok {
				continue
			}
			cand, ok := lk.dims[i][xv.Str()]
			if !ok {
				continue
			}
			if cand == "" {
				return fmt.Errorf("xnf: ambiguous reconstruction for %s: value %q maps to several groups", c.RHS, xv.Str())
			}
			if found && cand != v {
				return fmt.Errorf("xnf: inconsistent reconstruction for %s", c.RHS)
			}
			v, found = cand, true
		}
		if !found {
			return fmt.Errorf("xnf: no %s value recoverable for a %s node", c.RHS, c.rhsCarrier())
		}
		if v == absentValue {
			continue // the original carried no value here
		}
		cn := index[carrier.Node()]
		if c.TextForm {
			e := xmltree.NewNode(c.rhsCarrier().Last())
			e.SetText(v)
			cn.Children = append(cn.Children, e)
		} else {
			cn.SetAttr(strings.TrimPrefix(c.RHS.Last(), "@"), v)
		}
	}
	return nil
}

// ApplySteps runs the document side of a normalization: it rewrites a
// document of the original DTD through every step's Apply, yielding a
// document of the normalized DTD.
func ApplySteps(t *xmltree.Tree, steps []Step) error {
	for _, s := range steps {
		if s.Doc == nil {
			return fmt.Errorf("xnf: step %v carries no document transformation", s.Kind)
		}
		if err := s.Doc.Apply(t); err != nil {
			return err
		}
	}
	return nil
}

// InvertSteps reconstructs the original document from a normalized one,
// applying the steps' inverses in reverse order.
func InvertSteps(t *xmltree.Tree, steps []Step) error {
	for i := len(steps) - 1; i >= 0; i-- {
		s := steps[i]
		if s.Doc == nil {
			return fmt.Errorf("xnf: step %v carries no document transformation", s.Kind)
		}
		if err := s.Doc.Invert(t); err != nil {
			return err
		}
	}
	return nil
}

// --- helpers ---

type located struct {
	node *xmltree.Node
	path dtd.Path
}

// nodesAt returns the nodes at an absolute path.
func nodesAt(t *xmltree.Tree, p dtd.Path) []located {
	if len(p) == 0 || t.Root.Label != p[0] {
		return nil
	}
	cur := []located{{t.Root, dtd.Path{t.Root.Label}}}
	for _, step := range p[1:] {
		var next []located
		for _, ln := range cur {
			for _, ch := range ln.node.ChildrenLabelled(step) {
				next = append(next, located{ch, ln.path.Child(step)})
			}
		}
		cur = next
	}
	return cur
}

// nodesAtBelow returns the nodes at absolute path target within the
// subtree rooted at (n, base), where base is a prefix of target.
func nodesAtBelow(n *xmltree.Node, base dtd.Path, target dtd.Path) []located {
	if !target.HasPrefix(base) {
		return nil
	}
	cur := []located{{n, base}}
	for _, step := range target[len(base):] {
		var next []located
		for _, ln := range cur {
			for _, ch := range ln.node.ChildrenLabelled(step) {
				next = append(next, located{ch, ln.path.Child(step)})
			}
		}
		cur = next
	}
	return cur
}

func nodeIndex(t *xmltree.Tree) map[xmltree.NodeID]*xmltree.Node {
	out := map[xmltree.NodeID]*xmltree.Node{}
	t.Walk(func(n *xmltree.Node, _ []string) bool {
		out[n.ID] = n
		return true
	})
	return out
}

// sortedKeys returns the keys of m in increasing order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
