package xmltree

import (
	"fmt"
	"sort"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/regex"
)

// Conformer checks trees against one DTD with every content model
// compiled once, at construction. It is read-only afterwards and safe
// for concurrent use: an implication engine's pool workers share one
// to certify their counterexamples.
type Conformer struct {
	d        *dtd.DTD
	matchers map[string]*regex.Matcher // element label -> compiled content model
}

// NewConformer compiles the content model of every element type the
// DTD declares with element content.
func NewConformer(d *dtd.DTD) *Conformer {
	c := &Conformer{d: d, matchers: make(map[string]*regex.Matcher)}
	for _, name := range d.Names() {
		if e := d.Element(name); e.Kind == dtd.ModelContent {
			c.matchers[name] = regex.Compile(e.Model)
		}
	}
	return c
}

// Conforms checks T ⊨ D (Definition 3): every node's label is a declared
// element type, its children sequence is in the language of the content
// model (string content for #PCDATA elements, nothing for EMPTY ones),
// the defined attributes are exactly R(label), and the root is labelled
// r. The first violation found is returned as a non-nil error; nil means
// the tree conforms. It is the one-shot form of Conformer.Conforms.
func Conforms(t *Tree, d *dtd.DTD) error { return NewConformer(d).Conforms(t) }

// ConformsUnordered checks [T] ⊨ D: whether some reordering of each
// node's children conforms to the DTD (the paper works with trees up to
// the equivalence ≡, writing [T] ⊨ D when some T' ≡ T conforms). For
// arbitrary regular expressions this is decided per node by searching
// the NFA over the multiset of child labels. It is the one-shot form of
// Conformer.ConformsUnordered.
func ConformsUnordered(t *Tree, d *dtd.DTD) error { return NewConformer(d).ConformsUnordered(t) }

// Conforms checks T ⊨ D against the compiled DTD (see the package-level
// Conforms).
func (c *Conformer) Conforms(t *Tree) error { return c.check(t, false) }

// ConformsUnordered checks [T] ⊨ D against the compiled DTD (see the
// package-level ConformsUnordered).
func (c *Conformer) ConformsUnordered(t *Tree) error { return c.check(t, true) }

// check walks the tree top-down and returns the first violation; the
// two conformance notions differ only in how a child sequence is
// matched against its content model. Every node's child labels go
// through one buffer, filled and matched before the walk descends.
func (c *Conformer) check(t *Tree, unordered bool) error {
	if t.Root.Label != c.d.Root() {
		return fmt.Errorf("xmltree: root is <%s>, DTD root is <%s>", t.Root.Label, c.d.Root())
	}
	var labels []string
	var check func(n *Node) error
	check = func(n *Node) error {
		e := c.d.Element(n.Label)
		if e == nil {
			return fmt.Errorf("xmltree: element <%s> not declared", n.Label)
		}
		// Attributes: att(v, @l) defined iff @l ∈ R(lab(v)).
		for a := range n.Attrs {
			if !e.HasAttr(a) {
				return fmt.Errorf("xmltree: <%s> has undeclared attribute %q", n.Label, a)
			}
		}
		for _, a := range e.Attrs {
			if _, ok := n.Attrs[a]; !ok {
				return fmt.Errorf("xmltree: <%s> missing attribute %q", n.Label, a)
			}
		}
		switch e.Kind {
		case dtd.EmptyContent:
			if n.HasText || len(n.Children) > 0 {
				return fmt.Errorf("xmltree: <%s> must be empty", n.Label)
			}
		case dtd.TextContent:
			if !n.HasText {
				return fmt.Errorf("xmltree: <%s> must have string content", n.Label)
			}
		case dtd.ModelContent:
			if n.HasText {
				return fmt.Errorf("xmltree: <%s> has string content but element content was declared", n.Label)
			}
			m := c.matchers[n.Label]
			labels = labels[:0]
			for _, kid := range n.Children {
				labels = append(labels, kid.Label)
			}
			if unordered {
				if !matchAnyPermutation(m, labels) {
					return fmt.Errorf("xmltree: no ordering of children %v of <%s> is in (%s)", labels, n.Label, e.Model)
				}
			} else if !m.Match(labels) {
				return fmt.Errorf("xmltree: children of <%s> are %v, not in (%s)", n.Label, labels, e.Model)
			}
		}
		for _, kid := range n.Children {
			if err := check(kid); err != nil {
				return err
			}
		}
		return nil
	}
	return check(t.Root)
}

// matchAnyPermutation decides whether some permutation of word is
// accepted. It tries the word itself and the sorted order first (which
// covers simple and disjunctive models), then falls back to a
// backtracking search over distinct letters with memoization on
// (remaining multiset) — exponential only in the number of *distinct*
// labels, which is small in any DTD.
func matchAnyPermutation(m *regex.Matcher, word []string) bool {
	if m.Match(word) {
		return true
	}
	sorted := append([]string(nil), word...)
	sort.Strings(sorted)
	if m.Match(sorted) {
		return true
	}
	counts := map[string]int{}
	for _, w := range word {
		counts[w]++
	}
	letters := make([]string, 0, len(counts))
	for l := range counts {
		letters = append(letters, l)
	}
	sort.Strings(letters)
	var build []string
	var rec func() bool
	rec = func() bool {
		if len(build) == len(word) {
			return m.Match(build)
		}
		for _, l := range letters {
			if counts[l] == 0 {
				continue
			}
			counts[l]--
			build = append(build, l)
			if rec() {
				return true
			}
			build = build[:len(build)-1]
			counts[l]++
		}
		return false
	}
	return rec()
}

// Compatible checks T ◁ D: paths(T) ⊆ paths(D) (Definition 3). Unlike
// conformance it ignores counts and required children/attributes.
func Compatible(t *Tree, d *dtd.DTD) error {
	for _, p := range t.Paths() {
		path, err := dtd.ParsePath(p)
		if err != nil {
			return fmt.Errorf("xmltree: tree path %q: %v", p, err)
		}
		if !d.IsPath(path) {
			return fmt.Errorf("xmltree: tree path %q is not a path of the DTD", p)
		}
	}
	return nil
}

// Subsumed checks T1 ≼ T2 (Section 3): V1 ⊆ V2 (by vertex ID), equal
// roots, agreeing labels and attributes, and each node's child list in
// T1 being a sublist of a permutation of (i.e. a sub-multiset of) its
// child list in T2.
func Subsumed(t1, t2 *Tree) bool {
	if t1.Root.ID != t2.Root.ID {
		return false
	}
	index := map[NodeID]*Node{}
	t2.Walk(func(n *Node, _ []string) bool {
		index[n.ID] = n
		return true
	})
	ok := true
	t1.Walk(func(n *Node, _ []string) bool {
		m := index[n.ID]
		if m == nil || m.Label != n.Label || !sameAttrs(n.Attrs, m.Attrs) {
			ok = false
			return false
		}
		if n.HasText && (!m.HasText || n.Text != m.Text) {
			ok = false
			return false
		}
		// Children of n must be a sub-multiset of children of m; since
		// vertex IDs are unique, multiset containment is ID containment.
		kids := map[NodeID]bool{}
		for _, c := range m.Children {
			kids[c.ID] = true
		}
		for _, c := range n.Children {
			if !kids[c.ID] {
				ok = false
				return false
			}
		}
		return true
	})
	return ok
}

// Equivalent checks T1 ≡ T2: equality as unordered trees over the same
// vertices (T1 ≼ T2 and T2 ≼ T1).
func Equivalent(t1, t2 *Tree) bool {
	return Subsumed(t1, t2) && Subsumed(t2, t1)
}

// StrictlySubsumed checks T1 ≺ T2: T1 ≼ T2 and not T2 ≼ T1.
func StrictlySubsumed(t1, t2 *Tree) bool {
	return Subsumed(t1, t2) && !Subsumed(t2, t1)
}

// Isomorphic reports whether the two trees are equal as unordered trees
// ignoring vertex identity (equal canonical forms).
func Isomorphic(t1, t2 *Tree) bool {
	return t1.Canonical() == t2.Canonical()
}

func sameAttrs(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
