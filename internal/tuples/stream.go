package tuples

// Streaming enumeration of tree tuples. TuplesOf (ops.go) materializes
// tuples_D(T) as the cross product of sibling-group choices, which is
// exponential in fan-out and hard-capped at MaxTuples. The enumerators
// here walk the same choice points by backtracking over ONE scratch
// tuple instead, allocating nothing per tuple, so documents far past
// the materialization cap stream in O(|T| + |paths(D)|) additional
// memory regardless of how many maximal tuples they have. The
// maximal-tuple enumeration (Stream) first compiles a per-tree plan,
// which resolves every tree path against the universe before the first
// yield; the projection enumeration (Projector.Stream) walks the tree's
// nodes directly, guided by the projector's relevant tree, so it builds
// nothing per tree and a stopped stream never touches the nodes it did
// not reach. Both yield tuples in exactly the order their materializing
// counterparts produce them.

import (
	"fmt"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/xmltree"
)

// pathValue is one resolved (path ID, value) assignment of a plan node.
type pathValue struct {
	id paths.ID
	v  Value
}

// planNode is one tree node of a compiled enumeration plan: the
// assignments the node itself contributes to a tuple containing it, and
// its sibling-group choice points (one child per group is chosen by
// every tuple that contains the node).
type planNode struct {
	self   []pathValue
	groups [][]*planNode
}

// cont is one suspended choice point of the backtracking enumeration:
// after finishing a child subtree, resume sn's groups at index g, then
// the continuation at next (-1 for "yield"). Lifetimes nest strictly,
// so conts live in a reusable stack slice instead of heap closures.
type cont struct {
	sn   *planNode
	g    int
	next int
}

// enumerate backtracks over sn's choice points, presenting every
// complete assignment of the subtree through the scratch tuple, which
// is reused across yields (callers that retain a tuple must Clone it).
// Assignments already present in the scratch (an ancestor context set
// by the caller, as the token streamer does for the live spine) are
// part of every yielded tuple and are left untouched. Reports whether
// the enumeration ran to completion; every call yields at least one
// tuple unless stopped.
func enumerate(sn *planNode, scratch Tuple, yield func(Tuple) bool) bool {
	conts := make([]cont, 0, 16)
	var visit func(sn *planNode, rest int) bool
	var groupsFrom func(sn *planNode, g, rest int) bool
	groupsFrom = func(sn *planNode, g, rest int) bool {
		if g == len(sn.groups) {
			if rest < 0 {
				return yield(scratch)
			}
			c := conts[rest]
			return groupsFrom(c.sn, c.g, c.next)
		}
		me := len(conts)
		conts = append(conts, cont{sn: sn, g: g + 1, next: rest})
		for _, child := range sn.groups[g] {
			if !visit(child, me) {
				conts = conts[:me]
				return false
			}
		}
		conts = conts[:me]
		return true
	}
	visit = func(sn *planNode, rest int) bool {
		for _, pv := range sn.self {
			scratch.SetID(pv.id, pv.v)
		}
		ok := groupsFrom(sn, 0, rest)
		for _, pv := range sn.self {
			scratch.ClearID(pv.id)
		}
		return ok
	}
	return visit(sn, -1)
}

// compileTree builds the maximal-tuple plan of a tree against a path
// universe, resolving every path once: every node contributes its
// vertex, attributes and text; every label group is a choice point.
// Tree paths outside the universe are an error, exactly as in TuplesOf.
func compileTree(u *paths.Universe, t *xmltree.Tree) (*planNode, error) {
	rootID, ok := u.LookupString(t.Root.Label)
	if !ok {
		return nil, fmt.Errorf("tuples: root %q is not in the path universe", t.Root.Label)
	}
	var build func(n *xmltree.Node, id paths.ID) (*planNode, error)
	build = func(n *xmltree.Node, id paths.ID) (*planNode, error) {
		sn := &planNode{self: make([]pathValue, 0, 1+len(n.Attrs))}
		sn.self = append(sn.self, pathValue{id: id, v: NodeValue(n.ID)})
		for a, v := range n.Attrs {
			aid, ok := u.Child(id, "@"+a)
			if !ok {
				return nil, fmt.Errorf("tuples: %s.@%s is not in the path universe", u.StringOf(id), a)
			}
			sn.self = append(sn.self, pathValue{id: aid, v: StringValue(v)})
		}
		if n.HasText {
			tid, ok := u.Child(id, dtd.TextStep)
			if !ok {
				return nil, fmt.Errorf("tuples: %s.%s is not in the path universe", u.StringOf(id), dtd.TextStep)
			}
			sn.self = append(sn.self, pathValue{id: tid, v: StringValue(n.Text)})
		}
		for _, group := range childGroups(n) {
			cid, ok := u.Child(id, group[0].Label)
			if !ok {
				return nil, fmt.Errorf("tuples: %s.%s is not in the path universe", u.StringOf(id), group[0].Label)
			}
			kids := make([]*planNode, len(group))
			for i, c := range group {
				k, err := build(c, cid)
				if err != nil {
					return nil, err
				}
				kids[i] = k
			}
			sn.groups = append(sn.groups, kids)
		}
		return sn, nil
	}
	return build(t.Root, rootID)
}

// Stream enumerates tuples_D(T) (Definition 6) without materializing
// the cross product: the maximal tuples are presented to yield one at a
// time, in exactly the order TuplesOf returns them, through a single
// scratch tuple that is reused between calls — Clone any tuple you keep
// past the callback. yield returning false stops the enumeration early.
// Unlike TuplesOf there is no tuple-count cap: memory stays
// O(|T| + |paths|) however many maximal tuples the tree has. Tree paths
// outside the universe are an error, reported before the first yield.
func Stream(u *paths.Universe, t *xmltree.Tree, yield func(Tuple) bool) error {
	root, err := compileTree(u, t)
	if err != nil {
		return err
	}
	enumerate(root, NewTuple(u), yield)
	return nil
}

// walkCont is cont for the projection walk: after finishing a child
// subtree, resume node n's relevant groups (r) at index g, then the
// continuation at next. pin is n's index on the pinned spine, or -1.
type walkCont struct {
	n            *xmltree.Node
	r            *relevant
	g, pin, next int
}

// projWalk is one backtracking walk behind Projector.Stream and
// StreamPinned. Choice points open in the order enumerate opens a
// plan's: a node's requested values, then its relevant child labels in
// relevant order, each label's children in document order. A non-nil
// spine restricts, at every spine node, the group holding the next
// spine node to that one child.
type projWalk struct {
	spine   []*xmltree.Node
	scratch Tuple
	conts   []walkCont
	yield   func(Tuple) bool
}

// walk runs the projection walk from the tree's root, which is the
// spine's first node when a spine is given.
func (pr *Projector) walk(t *xmltree.Tree, spine []*xmltree.Node, yield func(Tuple) bool) {
	w := projWalk{spine: spine, scratch: NewTuple(pr.u), conts: make([]walkCont, 0, 16), yield: yield}
	w.visit(t.Root, pr.rel, 0, -1)
}

// visit assigns n's requested values (element vertex, attributes,
// text) into the scratch, enumerates its groups, then clears them.
func (w *projWalk) visit(n *xmltree.Node, r *relevant, pin, rest int) bool {
	if r.wanted != paths.None {
		w.scratch.SetID(r.wanted, NodeValue(n.ID))
	}
	for _, a := range r.attrs {
		if v, ok := n.Attrs[a.name]; ok {
			w.scratch.SetID(a.id, StringValue(v))
		}
	}
	if r.textID != paths.None && n.HasText {
		w.scratch.SetID(r.textID, StringValue(n.Text))
	}
	ok := w.groupsFrom(n, r, 0, pin, rest)
	if r.wanted != paths.None {
		w.scratch.ClearID(r.wanted)
	}
	for _, a := range r.attrs {
		w.scratch.ClearID(a.id)
	}
	if r.textID != paths.None {
		w.scratch.ClearID(r.textID)
	}
	return ok
}

// groupsFrom opens n's relevant groups from index g on, in relevant
// order: every child of the group's label is one choice, a label with
// no children is ⊥ and opens none, and on a pinned spine node the
// group of the next spine node offers that node alone. Past the last
// group it resumes the continuation at rest, or yields.
func (w *projWalk) groupsFrom(n *xmltree.Node, r *relevant, g, pin, rest int) bool {
	var pinned *xmltree.Node
	if pin >= 0 && pin+1 < len(w.spine) {
		pinned = w.spine[pin+1]
	}
	for ; g < len(r.kidOrder); g++ {
		label := r.kidOrder[g]
		kr := r.kids[label]
		me := len(w.conts)
		w.conts = append(w.conts, walkCont{n: n, r: r, g: g + 1, pin: pin, next: rest})
		opened, ok := false, true
		if pinned != nil && pinned.Label == label {
			opened, ok = true, w.visit(pinned, kr, pin+1, me)
		} else {
			for _, c := range n.Children {
				if c.Label == label {
					opened = true
					if ok = w.visit(c, kr, -1, me); !ok {
						break
					}
				}
			}
		}
		w.conts = w.conts[:me]
		if opened {
			return ok
		}
	}
	if rest < 0 {
		return w.yield(w.scratch)
	}
	c := w.conts[rest]
	return w.groupsFrom(c.n, c.r, c.g, c.pin, c.next)
}

// RootChoiceLabels returns the child labels of the projector's root
// relevant node, in walk order: the top-level sibling-group choice
// points of the projection. Sharded checkers split the enumeration
// across a tree's children of one of these labels; labels absent from
// the list never open a choice point, so sharding on them would be
// pointless. The slice is shared; do not mutate it.
func (pr *Projector) RootChoiceLabels() []string { return pr.rel.kidOrder }

// Stream enumerates the restrictions of the maximal tuples of the tree
// to the projector's paths, streaming them to yield through a reused
// scratch tuple (Clone to retain). It yields nothing when some query
// path does not start at the tree's root label, like Of. Unlike Of the
// stream is NOT deduplicated: a projection is yielded once per group of
// relevant sibling choices that produce it, so consumers aggregating
// into keyed maps (FD checking, redundancy counting) see the same set
// of tuples with harmless repeats, while never paying for the
// materialized product. yield returning false stops the enumeration;
// the walk builds nothing per tree, so the nodes it never reached cost
// nothing either.
func (pr *Projector) Stream(t *xmltree.Tree, yield func(Tuple) bool) {
	for _, f := range pr.first {
		if f != t.Root.Label {
			return
		}
	}
	pr.walk(t, nil, yield)
}
