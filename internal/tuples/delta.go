package tuples

// Delta (pinned-region) streaming for incremental re-checking. A
// projection stream factors at every relevant sibling group: the full
// multiset of projected tuples is the disjoint union, over the choices
// of any one group, of the streams with that group pinned to a single
// child. An edit inside a subtree therefore touches exactly the tuples
// whose choices select the subtree's ancestor chain — its spine — and
// StreamPinned enumerates precisely that sub-multiset: it runs
// Projector.Stream's node walk with each spine node's group restricted
// to its spine child, so choice points open only off the spine and
// below its last node. The relevance probes (Sees, SeesAttr, SeesText)
// answer the complementary question: whether the projection can
// distinguish documents differing at a given region at all — when they
// say no, the pinned streams before and after an edit would be
// identical and an incremental consumer skips the region outright.

import (
	"xmlnorm/internal/paths"
	"xmlnorm/internal/xmltree"
)

// relevantAt walks the relevant tree along the label path (labels[0]
// is the document root's label). It returns the relevant node of the
// last label and whether every step opens a relevant choice point —
// false means no query path passes through the region, so no
// projected tuple can reflect anything at or below it.
func (pr *Projector) relevantAt(labels []string) (*relevant, bool) {
	if len(labels) == 0 || len(pr.first) == 0 {
		return nil, false
	}
	for _, f := range pr.first {
		if f != labels[0] {
			return nil, false
		}
	}
	r := pr.rel
	for _, label := range labels[1:] {
		r = r.kid(label)
		if r == nil {
			return nil, false
		}
	}
	return r, true
}

// Sees reports whether the projection distinguishes sibling choices
// along the label path (labels[0] must be the root label): true iff
// every step after the root opens a relevant choice point. Inserting
// or deleting a subtree whose label path Sees rejects cannot change
// the projection stream.
func (pr *Projector) Sees(labels []string) bool {
	_, ok := pr.relevantAt(labels)
	return ok
}

// SeesAttr reports whether the projection requests the @name attribute
// of the element at the label path — editing any other attribute there
// cannot change the projection stream.
func (pr *Projector) SeesAttr(labels []string, name string) bool {
	r, ok := pr.relevantAt(labels)
	if !ok {
		return false
	}
	for _, a := range r.attrs {
		if a.name == name {
			return true
		}
	}
	return false
}

// SeesText reports whether the projection requests the text of the
// element at the label path.
func (pr *Projector) SeesText(labels []string) bool {
	r, ok := pr.relevantAt(labels)
	if !ok {
		return false
	}
	return r.textID != paths.None
}

// StreamPinned enumerates the sub-multiset of Stream(t) consisting of
// the projected tuples whose sibling-group choices select every node
// of the spine (the ancestor chain root..node, as xmltree.Index.Spine
// returns it). Summed over the children of any relevant sibling group,
// the pinned streams partition the full stream — multiplicity
// included — which is what lets an incremental checker retract and
// re-assert only the tuples an edit can touch. Tuples stream through a
// reused scratch (Clone to retain); yield returning false stops the
// enumeration. The spine must start at the tree's root and each node
// must be a child of its predecessor. The return value reports whether
// the projection sees the spine at all: false means nothing was
// yielded and no edit at or below the spine's last node can change the
// projection stream.
func (pr *Projector) StreamPinned(t *xmltree.Tree, spine []*xmltree.Node, yield func(Tuple) bool) bool {
	if len(spine) == 0 || spine[0] != t.Root {
		return false
	}
	labels := make([]string, len(spine))
	for i, n := range spine {
		labels[i] = n.Label
	}
	if _, ok := pr.relevantAt(labels); !ok {
		return false
	}
	pr.walk(t, spine, yield)
	return true
}
