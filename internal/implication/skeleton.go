package implication

import (
	"fmt"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/regex"
)

// pathKind distinguishes the three kinds of paths.
type pathKind uint8

const (
	elemPath pathKind = iota
	attrPath
	textPath
)

// pnode is one path of the DTD in the flattened skeleton used by the
// closure engine. Every path of a non-recursive disjunctive DTD gets a
// dense integer id.
type pnode struct {
	id     int
	uid    paths.ID // the path's ID in the DTD's interned universe
	path   dtd.Path
	kind   pathKind
	parent int        // id of the parent path; -1 for the root
	mult   regex.Mult // multiplicity of this element under its parent (elemPath only; One for the root)
	group  int        // disjunction group id, or -1 (elemPath only)
	kids   []int      // child path ids, in enumeration order
}

// pgroup is one simple-disjunction factor at one element path: a
// conforming node at the parent path has exactly one child among the
// member paths (or none, when nullable).
type pgroup struct {
	id       int
	parent   int   // element path id the group hangs off
	members  []int // element path ids of the branches
	nullable bool
}

// skeleton is the unfolding of a non-recursive disjunctive DTD into its
// path tree, with per-letter multiplicities and disjunction groups. It
// carries the DTD's interned path universe: skeleton node ids are
// DFS-ordered while universe IDs are BFS-ordered, so ofUID bridges the
// two numberings.
type skeleton struct {
	d      *dtd.DTD
	u      *paths.Universe
	nodes  []*pnode
	groups []*pgroup
	ofUID  []int // universe ID -> skeleton node id
}

// buildSkeleton unfolds the DTD. It fails if the DTD is recursive or not
// disjunctive.
func buildSkeleton(d *dtd.DTD) (*skeleton, error) {
	if d.IsRecursive() {
		return nil, fmt.Errorf("implication: DTD is recursive; paths(D) is infinite")
	}
	factors, ok := d.Factors()
	if !ok {
		return nil, fmt.Errorf("implication: DTD is not disjunctive; use BruteForce")
	}
	u, err := paths.New(d)
	if err != nil {
		return nil, fmt.Errorf("implication: %v", err)
	}
	sk := &skeleton{d: d, u: u, ofUID: make([]int, u.Size())}
	// uidOf navigates the universe alongside the skeleton unfolding; both
	// enumerate exactly paths(D), so a miss is an internal inconsistency.
	uidOf := func(parent paths.ID, step string) paths.ID {
		uid, ok := u.Child(parent, step)
		if !ok {
			panic(fmt.Sprintf("implication: skeleton path %s.%s missing from universe", u.StringOf(parent), step))
		}
		return uid
	}
	var add func(uid paths.ID, path dtd.Path, parent int, mult regex.Mult, group int) int
	add = func(uid paths.ID, path dtd.Path, parent int, mult regex.Mult, group int) int {
		n := &pnode{id: len(sk.nodes), uid: uid, path: path, parent: parent, mult: mult, group: group}
		sk.nodes = append(sk.nodes, n)
		sk.ofUID[uid] = n.id
		if parent >= 0 {
			sk.nodes[parent].kids = append(sk.nodes[parent].kids, n.id)
		}
		elem := d.Element(path.Last())
		// Attributes.
		for _, a := range elem.Attrs {
			c := &pnode{id: len(sk.nodes), uid: uidOf(uid, "@"+a), path: path.Child("@" + a), kind: attrPath, parent: n.id, group: -1}
			sk.nodes = append(sk.nodes, c)
			sk.ofUID[c.uid] = c.id
			n.kids = append(n.kids, c.id)
		}
		switch elem.Kind {
		case dtd.TextContent:
			c := &pnode{id: len(sk.nodes), uid: uidOf(uid, dtd.TextStep), path: path.Child(dtd.TextStep), kind: textPath, parent: n.id, group: -1}
			sk.nodes = append(sk.nodes, c)
			sk.ofUID[c.uid] = c.id
			n.kids = append(n.kids, c.id)
		case dtd.ModelContent:
			for _, f := range factors[path.Last()] {
				if !f.IsDisjunction() {
					for _, letter := range f.Alphabet() {
						add(uidOf(uid, letter), path.Child(letter), n.id, f.Units[letter], -1)
					}
					continue
				}
				g := &pgroup{id: len(sk.groups), parent: n.id, nullable: f.Disj.Nullable}
				sk.groups = append(sk.groups, g)
				for _, letter := range f.Disj.Letters {
					cid := add(uidOf(uid, letter), path.Child(letter), n.id, regex.OptM, g.id)
					g.members = append(g.members, cid)
				}
			}
		}
		return n.id
	}
	rootUID, ok := u.Lookup(dtd.Path{d.Root()})
	if !ok {
		return nil, fmt.Errorf("implication: root %q missing from universe", d.Root())
	}
	add(rootUID, dtd.Path{d.Root()}, -1, regex.One, -1)
	if len(sk.nodes) != u.Size() {
		return nil, fmt.Errorf("implication: skeleton has %d paths but universe has %d", len(sk.nodes), u.Size())
	}
	return sk, nil
}

// node returns the pnode for a path, or nil.
func (sk *skeleton) node(p dtd.Path) *pnode {
	uid, ok := sk.u.Lookup(p)
	if !ok {
		return nil
	}
	return sk.nodes[sk.ofUID[uid]]
}

// isPrefix reports whether node a's path is a (non-strict) prefix of
// node b's path.
func (sk *skeleton) isPrefix(a, b int) bool {
	for b != -1 {
		if b == a {
			return true
		}
		b = sk.nodes[b].parent
	}
	return false
}

// lcpLen returns the number of common ancestors (inclusive) of two
// nodes: the length of the longest common prefix of their paths. It
// lifts the deeper node to the other's depth (a path's depth counts its
// steps, so it is the length of its ancestor chain), then walks both
// up together until they meet.
func (sk *skeleton) lcpLen(a, b int) int {
	da, db := sk.u.DepthOf(sk.nodes[a].uid), sk.u.DepthOf(sk.nodes[b].uid)
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
	return da
}

// chain returns the ids of all ancestors of id (inclusive), root first.
func (sk *skeleton) chain(id int) []int {
	var rev []int
	for id != -1 {
		rev = append(rev, id)
		id = sk.nodes[id].parent
	}
	out := make([]int, len(rev))
	for i, v := range rev {
		out[len(rev)-1-i] = v
	}
	return out
}
