package implication

import (
	"fmt"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/regex"
)

// pnode is the closure's record of one path, indexed by the path's ID
// in the skeleton's universe.
type pnode struct {
	parent paths.ID   // paths.None for the root
	depth  int32      // number of steps
	group  int32      // disjunction group index, or -1 (element paths only)
	elem   bool       // an element path; attribute and text paths are not
	mult   regex.Mult // multiplicity under the parent (element paths only; One for the root)
	kids   []paths.ID // child paths, in pre-order
}

// pgroup is one simple-disjunction factor at one element path: a
// conforming node at the parent path has exactly one child among the
// member paths (or none, when nullable).
type pgroup struct {
	parent   paths.ID   // element path the group hangs off
	members  []paths.ID // element paths of the branches
	nullable bool
}

// skeleton is the unfolding of a disjunctive DTD into its path tree,
// with per-letter multiplicities and disjunction groups. Paths are
// named by their IDs in the skeleton's universe u alone: nodes holds
// one record per ID, and order lists the IDs in the unfolding's
// pre-order, every path before its extensions.
type skeleton struct {
	d      *dtd.DTD
	u      *paths.Universe
	nodes  []pnode
	order  []paths.ID
	groups []pgroup
}

// buildSkeleton unfolds the DTD's path tree in pre-order. With maxDepth
// 0 the DTD must be non-recursive, the unfolding is all of paths(D) and
// its IDs are those of paths.New(d), the universe an Engine shares with
// its compiled Σ and its callers. With maxDepth > 0 element children
// stop at maxDepth steps, which makes a recursive DTD's unfolding
// finite, and the unfolding is interned by paths.ForQuery, which
// numbers it in pre-order. It fails if the DTD is not disjunctive.
func buildSkeleton(d *dtd.DTD, maxDepth int) (*skeleton, error) {
	if maxDepth == 0 && d.IsRecursive() {
		return nil, fmt.Errorf("implication: DTD is recursive; paths(D) is infinite")
	}
	factors, ok := d.Factors()
	if !ok {
		return nil, fmt.Errorf("implication: DTD is not disjunctive; use BruteForce")
	}
	sk := &skeleton{d: d}
	if maxDepth == 0 {
		u, err := paths.New(d)
		if err != nil {
			return nil, fmt.Errorf("implication: %v", err)
		}
		sk.u, sk.nodes = u, make([]pnode, u.Size())
	}
	var unfolded []dtd.Path // the bounded unfolding's paths, in pre-order
	var add func(path dtd.Path, parent paths.ID, elem bool, mult regex.Mult, group int32) paths.ID
	add = func(path dtd.Path, parent paths.ID, elem bool, mult regex.Mult, group int32) paths.ID {
		// Bounded, a path's ID is its pre-order position, the ID
		// ForQuery gives it below. Unbounded, paths.New(d) has
		// interned exactly paths(D), so a miss would be an internal
		// inconsistency.
		id := paths.ID(len(unfolded))
		if maxDepth == 0 {
			id = sk.u.MustLookup(path)
		} else {
			unfolded = append(unfolded, path)
			sk.nodes = append(sk.nodes, pnode{})
		}
		sk.order = append(sk.order, id)
		sk.nodes[id] = pnode{parent: parent, depth: int32(len(path)), group: group, elem: elem, mult: mult}
		if parent != paths.None {
			sk.nodes[parent].kids = append(sk.nodes[parent].kids, id)
		}
		if !elem {
			return id
		}
		e := d.Element(path.Last())
		for _, a := range e.Attrs {
			add(path.Child("@"+a), id, false, regex.One, -1)
		}
		switch e.Kind {
		case dtd.TextContent:
			add(path.Child(dtd.TextStep), id, false, regex.One, -1)
		case dtd.ModelContent:
			if maxDepth > 0 && len(path) >= maxDepth {
				return id // the bounded unfolding stops here
			}
			for _, f := range factors[path.Last()] {
				if !f.IsDisjunction() {
					for _, letter := range f.Alphabet() {
						add(path.Child(letter), id, true, f.Units[letter], -1)
					}
					continue
				}
				g := int32(len(sk.groups))
				sk.groups = append(sk.groups, pgroup{parent: id, nullable: f.Disj.Nullable})
				for _, letter := range f.Disj.Letters {
					m := add(path.Child(letter), id, true, regex.OptM, g)
					sk.groups[g].members = append(sk.groups[g].members, m)
				}
			}
		}
		return id
	}
	add(dtd.Path{d.Root()}, paths.None, true, regex.One, -1)
	if maxDepth > 0 {
		sk.u = paths.ForQuery(unfolded)
	}
	if sk.u.Size() != len(sk.order) {
		return nil, fmt.Errorf("implication: skeleton has %d paths but universe has %d", len(sk.order), sk.u.Size())
	}
	return sk, nil
}

// lcpLen returns the number of common ancestors (inclusive) of two
// paths: the length of their longest common prefix. It lifts the
// deeper path to the other's depth, then walks both up together until
// they meet.
func (sk *skeleton) lcpLen(a, b paths.ID) int {
	da, db := sk.nodes[a].depth, sk.nodes[b].depth
	for ; da > db; da-- {
		a = sk.nodes[a].parent
	}
	for ; db > da; db-- {
		b = sk.nodes[b].parent
	}
	for a != b {
		a, b = sk.nodes[a].parent, sk.nodes[b].parent
		da--
	}
	return int(da)
}
