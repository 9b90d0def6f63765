// Package tuples implements the tree-tuple representation of XML trees
// from Section 3 of Arenas & Libkin (PODS 2002): Definitions 4-7 and the
// operators tree_D(t), tuples_D(T) and trees_D(X).
//
// A tree tuple assigns to each path of a DTD a vertex (for element
// paths) or a string (for attribute and text paths), or the null ⊥.
// Tuples are represented against an interned path universe
// (internal/paths): a bitset records which path IDs are non-null and a
// dense slice holds their values. Dotted path strings appear only at
// parse/print boundaries. The paper's conditions (vertices occur at a
// single path; ⊥ propagates downward; finitely many non-null values)
// hold by construction for every tuple produced here and are checkable
// with Validate.
//
// TuplesOf materializes tuples_D(T) as the reference. The streaming
// producers are projections, and all of them run one backtracking walk
// over the nodes (stream.go): Projector.Stream, the edit-scoped
// StreamPinned (the walk with a spine pinned) and the parse-fused
// TokenStream (the walk over the subtrees it collects below a cross
// product). By construction the token path yields exactly
// Projector.Stream's sequence and a pinned stream a subsequence of it;
// the seeded differential suites hold them to each other and to the
// projections of TuplesOf. See ARCHITECTURE.md (layer 2) at the repo
// root for how the layers above consume them.
package tuples

import (
	"encoding/binary"
	"fmt"
	"strings"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/xmltree"
)

// Value is a non-null tree-tuple value: a vertex or a string.
type Value struct {
	node   xmltree.NodeID
	str    string
	isNode bool
}

// NodeValue returns a vertex value.
func NodeValue(id xmltree.NodeID) Value { return Value{node: id, isNode: true} }

// StringValue returns a string value.
func StringValue(s string) Value { return Value{str: s} }

// IsNode reports whether the value is a vertex.
func (v Value) IsNode() bool { return v.isNode }

// Node returns the vertex ID; valid only when IsNode.
func (v Value) Node() xmltree.NodeID { return v.node }

// Str returns the string; valid only when not IsNode.
func (v Value) Str() string { return v.str }

// Equal reports value equality (vertex IDs or strings).
func (v Value) Equal(o Value) bool { return v == o }

// String renders the value for debugging: vertices as #id, strings
// quoted.
func (v Value) String() string {
	if v.isNode {
		return fmt.Sprintf("#%d", v.node)
	}
	return fmt.Sprintf("%q", v.str)
}

// Tuple is a tree tuple over an interned path universe: set records the
// non-null path IDs, vals holds their values densely indexed by ID.
// Build one with NewTuple; the zero value is unusable.
type Tuple struct {
	u    *paths.Universe
	set  paths.Set
	vals []Value
}

// NewTuple returns an all-⊥ tuple over the universe.
func NewTuple(u *paths.Universe) Tuple {
	return Tuple{u: u, set: u.NewSet(), vals: make([]Value, u.Size())}
}

// Universe returns the path universe the tuple is indexed by.
func (t Tuple) Universe() *paths.Universe { return t.u }

// Set returns the bitset of non-null path IDs. The set is shared with
// the tuple; do not mutate it.
func (t Tuple) Set() paths.Set { return t.set }

// Len returns the number of non-null paths.
func (t Tuple) Len() int { return t.set.Count() }

// GetID returns the value at an interned path ID and whether it is
// non-null.
func (t Tuple) GetID(id paths.ID) (Value, bool) {
	if !t.set.Has(id) {
		return Value{}, false
	}
	return t.vals[id], true
}

// SetID assigns a value at an interned path ID.
func (t Tuple) SetID(id paths.ID, v Value) {
	t.set.Add(id)
	t.vals[id] = v
}

// ClearID sets the path back to ⊥.
func (t Tuple) ClearID(id paths.ID) { t.set.Remove(id) }

// Get returns the value at the path and whether it is non-null. Paths
// outside the universe are ⊥ by definition.
func (t Tuple) Get(p dtd.Path) (Value, bool) {
	id, ok := t.u.Lookup(p)
	if !ok {
		return Value{}, false
	}
	return t.GetID(id)
}

// Null reports whether the path is ⊥ in the tuple.
func (t Tuple) Null(p dtd.Path) bool {
	_, ok := t.Get(p)
	return !ok
}

// Paths returns the non-null paths in sorted order.
func (t Tuple) Paths() []string {
	out := make([]string, 0, t.set.Count())
	for _, id := range t.u.LexOrder() {
		if t.set.Has(id) {
			out = append(out, t.u.StringOf(id))
		}
	}
	return out
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	return Tuple{u: t.u, set: t.set.Clone(), vals: append([]Value(nil), t.vals...)}
}

// Project restricts the tuple to the given paths (null entries are
// dropped). Each path is resolved against the universe exactly once.
func (t Tuple) Project(ps []dtd.Path) Tuple {
	out := NewTuple(t.u)
	for _, p := range ps {
		if id, ok := t.u.Lookup(p); ok && t.set.Has(id) {
			out.SetID(id, t.vals[id])
		}
	}
	return out
}

// Canonical renders the tuple deterministically, for deduplication and
// test comparison. Vertex identities are included. Keys appear in
// sorted path order via the universe's precomputed lexicographic
// order — no per-call sorting.
func (t Tuple) Canonical() string {
	var b strings.Builder
	first := true
	for _, id := range t.u.LexOrder() {
		if !t.set.Has(id) {
			continue
		}
		if !first {
			b.WriteByte(';')
		}
		first = false
		b.WriteString(t.u.StringOf(id))
		b.WriteByte('=')
		b.WriteString(t.vals[id].String())
	}
	return b.String()
}

// CanonicalValues is Canonical with vertex IDs erased (every vertex
// renders as "#"): two tuples with the same CanonicalValues carry the
// same string information on the same paths.
func (t Tuple) CanonicalValues() string {
	var b strings.Builder
	first := true
	for _, id := range t.u.LexOrder() {
		if !t.set.Has(id) {
			continue
		}
		if !first {
			b.WriteByte(';')
		}
		first = false
		b.WriteString(t.u.StringOf(id))
		b.WriteByte('=')
		if t.vals[id].IsNode() {
			b.WriteByte('#')
		} else {
			b.WriteString(t.vals[id].String())
		}
	}
	return b.String()
}

// appendKey appends an unambiguous binary encoding of the tuple (path
// ID set plus values in ID order) to dst; two tuples over the same
// universe encode equal iff they are Equal. Used for fast in-package
// deduplication in place of Canonical.
func (t Tuple) appendKey(dst []byte) []byte {
	dst = t.set.AppendWords(dst)
	dst = append(dst, 0xff)
	t.set.ForEach(func(id paths.ID) {
		v := t.vals[id]
		if v.isNode {
			dst = append(dst, 1)
			dst = binary.AppendUvarint(dst, uint64(v.node))
		} else {
			dst = append(dst, 2)
			dst = binary.AppendUvarint(dst, uint64(len(v.str)))
			dst = append(dst, v.str...)
		}
	})
	return dst
}

// AppendKey appends an unambiguous binary encoding of the tuple (path
// ID set plus values in ID order) to dst: two tuples over the same
// universe append equal keys iff they are Equal. The cheap way to key
// a hash map by tuple (FD groups, dedup, differential comparisons) —
// Canonical is the human-readable, universe-independent alternative.
func (t Tuple) AppendKey(dst []byte) []byte { return t.appendKey(dst) }

// LE reports t ⊑ o: whenever t.p is non-null, o.p equals it. Tuples
// over the same universe compare by ID; otherwise each path of t is
// looked up in o's universe by its steps.
func (t Tuple) LE(o Tuple) bool {
	if t.u == o.u {
		if !t.set.SubsetOf(o.set) {
			return false
		}
		ok := true
		t.set.ForEach(func(id paths.ID) {
			if t.vals[id] != o.vals[id] {
				ok = false
			}
		})
		return ok
	}
	ok := true
	t.set.ForEach(func(id paths.ID) {
		oid, in := o.u.Lookup(t.u.PathOf(id))
		if !in || !o.set.Has(oid) || o.vals[oid] != t.vals[id] {
			ok = false
		}
	})
	return ok
}

// Equal reports equality as partial functions.
func (t Tuple) Equal(o Tuple) bool { return t.set.Count() == o.set.Count() && t.LE(o) }

// SetLE reports X ⊑* Y: every tuple of X is ⊑ some tuple of Y.
func SetLE(x, y []Tuple) bool {
	for _, t := range x {
		ok := false
		for _, u := range y {
			if t.LE(u) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Validate checks the tree-tuple conditions of Definition 4 against a
// DTD: every non-null path is a path of D, element paths carry vertices
// and attribute/text paths strings, the root is non-null, a vertex
// occurs at one path only, and prefixes of non-null paths are non-null
// (the contrapositive of downward ⊥ propagation).
func (t Tuple) Validate(d *dtd.DTD) error {
	if t.u == nil || t.set.Empty() {
		return fmt.Errorf("tuples: empty tuple (t.r must be non-null)")
	}
	rootID, ok := t.u.Lookup(dtd.Path{d.Root()})
	if !ok || !t.set.Has(rootID) {
		return fmt.Errorf("tuples: t.%s is null", d.Root())
	}
	seen := map[xmltree.NodeID]paths.ID{}
	var firstErr error
	t.set.ForEach(func(id paths.ID) {
		if firstErr != nil {
			return
		}
		info := t.u.Info(id)
		v := t.vals[id]
		if t.u.DTD() != d && !d.IsPath(info.Path) {
			firstErr = fmt.Errorf("tuples: %q is not a path of the DTD", info.Str)
			return
		}
		if (info.Kind == paths.ElemKind) != v.IsNode() {
			firstErr = fmt.Errorf("tuples: path %q has wrong value kind %s", info.Str, v)
			return
		}
		if v.IsNode() {
			if prev, dup := seen[v.Node()]; dup {
				firstErr = fmt.Errorf("tuples: vertex %s occurs at %q and %q",
					v, t.u.StringOf(prev), info.Str)
				return
			}
			seen[v.Node()] = id
		}
		if info.Parent != paths.None && !t.set.Has(info.Parent) {
			firstErr = fmt.Errorf("tuples: %q is non-null but its prefix %q is null",
				info.Str, t.u.StringOf(info.Parent))
		}
	})
	return firstErr
}
