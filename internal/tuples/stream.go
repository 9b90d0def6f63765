package tuples

// Streaming enumeration of projected tree tuples. TuplesOf (ops.go)
// materializes tuples_D(T) as the cross product of sibling-group
// choices, which is exponential in fan-out and hard-capped at
// MaxTuples. The projection walk here visits the same choice points by
// backtracking over ONE scratch tuple instead, allocating nothing per
// tuple, so documents far past the materialization cap stream with
// memory bounded by the scratch, the tree's depth and the relevant
// children of the nodes on the current path, however many tuples they
// have. It walks the tree's nodes directly, guided by the projector's
// relevant tree, so it builds nothing per tree and a stopped stream
// never touches the nodes it did not reach. It is the package's only
// enumeration kernel: Projector.Stream, StreamPinned (delta.go) and
// the token streamer's cross products (tokens.go) all run it, so their
// yield orders agree by construction. A node with two or more relevant
// child labels has its relevant children bucketed by label once per
// visit, so resuming one of its groups touches only that group's
// children: the walk's time is linear in its output and in the child
// lists of the nodes it visits, never quadratic in a wide node's
// fan-out.

import (
	"xmlnorm/internal/paths"
	"xmlnorm/internal/xmltree"
)

// walkCont is one suspended choice point of the projection walk: after
// finishing a child subtree, resume node n's relevant groups (r) at
// index g, then the continuation at next (-1 for "yield"). b is the
// index in the walk's ends stack where n's buckets start, or -1 for a
// node with at most one relevant child label; pin is n's index on the
// pinned spine, or -1. Lifetimes nest strictly, so conts live in a reusable
// stack slice instead of heap closures.
type walkCont struct {
	n               *xmltree.Node
	r               *relevant
	g, b, pin, next int
}

// projWalk is one backtracking walk behind Projector.Stream,
// StreamPinned and the token streamer's cross products. Choice points
// open in a fixed order: a node's requested values, then its relevant
// child labels in relevant order, each label's children in document
// order. A non-nil spine restricts, at every spine node, the group
// holding the next spine node to that one child.
type projWalk struct {
	spine   []*xmltree.Node
	scratch Tuple
	conts   []walkCont
	kids    []*xmltree.Node // relevant children of the open multi-label visits, by label
	ends    []int           // per open multi-label visit: its first kid, then each bucket's end
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
	ok := w.children(n, r, pin, rest)
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

// children enumerates n's relevant groups, with n's own values already
// in the scratch. A node with two or more relevant child labels first
// has its relevant children bucketed by label onto the walk's stacks,
// group by group in relevant order, so that resuming group g later
// reads bucket g alone instead of rescanning every child.
func (w *projWalk) children(n *xmltree.Node, r *relevant, pin, rest int) bool {
	if len(r.kidOrder) < 2 {
		return w.groupsFrom(n, r, 0, -1, pin, rest)
	}
	b := len(w.ends)
	w.ends = append(w.ends, len(w.kids))
	for _, label := range r.kidOrder {
		for _, c := range n.Children {
			if c.Label == label {
				w.kids = append(w.kids, c)
			}
		}
		w.ends = append(w.ends, len(w.kids))
	}
	ok := w.groupsFrom(n, r, 0, b, pin, rest)
	w.kids, w.ends = w.kids[:w.ends[b]], w.ends[:b]
	return ok
}

// groupsFrom opens n's relevant groups from index g on, in relevant
// order: every child of the group's label is one choice, a label with
// no children is ⊥ and opens none, and on a pinned spine node the
// group of the next spine node offers that node alone. Group g's
// children are bucket g when n was bucketed (b >= 0), else the
// children of n carrying the one relevant label. Past the last group
// it resumes the continuation at rest, or yields.
func (w *projWalk) groupsFrom(n *xmltree.Node, r *relevant, g, b, pin, rest int) bool {
	var pinned *xmltree.Node
	if pin >= 0 && pin+1 < len(w.spine) {
		pinned = w.spine[pin+1]
	}
	for ; g < len(r.kidOrder); g++ {
		label, kr := r.kidOrder[g], r.kids[g]
		me := len(w.conts)
		w.conts = append(w.conts, walkCont{n: n, r: r, g: g + 1, b: b, pin: pin, next: rest})
		opened, ok := false, true
		switch {
		case pinned != nil && pinned.Label == label:
			opened, ok = true, w.visit(pinned, kr, pin+1, me)
		case b >= 0:
			for i, end := w.ends[b+g], w.ends[b+g+1]; ok && i < end; i++ {
				opened, ok = true, w.visit(w.kids[i], kr, -1, me)
			}
		default:
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
	return w.groupsFrom(c.n, c.r, c.g, c.b, c.pin, c.next)
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
