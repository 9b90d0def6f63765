package tuples

import (
	"fmt"
	"sort"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/xmltree"
)

// MaxTuples bounds tuple materialization: TuplesOf returns an error when
// a tree has more maximal tuples than this default cap (the number is
// the product, over element nodes, of the per-label child counts, which
// can grow exponentially with depth). Callers with larger needs pass
// their own cap.
const MaxTuples = 1 << 20

// CountTuples returns the number of maximal tree tuples of the tree,
// capped at the given limit (≤ 0 means MaxTuples).
func CountTuples(t *xmltree.Tree, cap int) int {
	if cap <= 0 {
		cap = MaxTuples
	}
	var count func(n *xmltree.Node) int
	count = func(n *xmltree.Node) int {
		total := 1
		for _, group := range childGroups(n) {
			// Saturating arithmetic throughout: with a caller-supplied cap
			// near MaxInt the raw sum or product could wrap past MaxInt
			// *before* the cap comparison, so clamp each operation at cap
			// instead of comparing afterwards.
			sub := 0
			for _, c := range group {
				k := count(c)
				if k >= cap-sub {
					return cap
				}
				sub += k
			}
			// sub ≥ 1: groups are non-empty and count never returns 0.
			if total > cap/sub {
				return cap
			}
			total *= sub
			if total >= cap {
				return cap
			}
		}
		return total
	}
	return count(t.Root)
}

// childGroups partitions a node's children by label, in first-occurrence
// order.
func childGroups(n *xmltree.Node) [][]*xmltree.Node {
	var order []string
	groups := map[string][]*xmltree.Node{}
	for _, c := range n.Children {
		if _, ok := groups[c.Label]; !ok {
			order = append(order, c.Label)
		}
		groups[c.Label] = append(groups[c.Label], c)
	}
	out := make([][]*xmltree.Node, len(order))
	for i, l := range order {
		out[i] = groups[l]
	}
	return out
}

// UniverseForTree interns every path occurring in the tree, in document
// order, for callers extracting tuples without a DTD at hand (the
// maximal tuples of T are determined by T alone). The result is a query
// universe: no multiplicity metadata.
func UniverseForTree(t *xmltree.Tree) *paths.Universe {
	var ps []dtd.Path
	var walk func(n *xmltree.Node, prefix dtd.Path)
	walk = func(n *xmltree.Node, prefix dtd.Path) {
		p := prefix.Child(n.Label)
		ps = append(ps, p)
		attrs := make([]string, 0, len(n.Attrs))
		for a := range n.Attrs {
			attrs = append(attrs, a)
		}
		sort.Strings(attrs) // Attrs is a map; keep ID assignment deterministic
		for _, a := range attrs {
			ps = append(ps, p.Child("@"+a))
		}
		if n.HasText {
			ps = append(ps, p.Child(dtd.TextStep))
		}
		for _, c := range n.Children {
			walk(c, p)
		}
	}
	walk(t.Root, nil)
	return paths.ForQuery(ps)
}

// TuplesOf computes tuples_D(T) (Definition 6): the maximal tree tuples
// of the tree, indexed by the given path universe (built from the DTD
// the tree conforms to). Each tuple picks one child per label at every
// node it contains. Tree paths outside the universe are an error — the
// tree is then not compatible with the universe's DTD.
//
// cap bounds the number of tuples (≤ 0 means MaxTuples); exceeding it is
// an error, so callers never silently truncate.
func TuplesOf(u *paths.Universe, t *xmltree.Tree, cap int) ([]Tuple, error) {
	if cap <= 0 {
		cap = MaxTuples
	}
	if n := CountTuples(t, cap); n >= cap {
		return nil, fmt.Errorf("tuples: tree has ≥ %d maximal tuples (cap %d)", n, cap)
	}
	rootID, ok := u.Lookup(dtd.Path{t.Root.Label})
	if !ok {
		return nil, fmt.Errorf("tuples: root %q is not in the path universe", t.Root.Label)
	}
	var enum func(n *xmltree.Node, id paths.ID) ([]Tuple, error)
	enum = func(n *xmltree.Node, id paths.ID) ([]Tuple, error) {
		base := NewTuple(u)
		base.SetID(id, NodeValue(n.ID))
		for a, v := range n.Attrs {
			aid, ok := u.Child(id, "@"+a)
			if !ok {
				return nil, fmt.Errorf("tuples: %s.@%s is not in the path universe", u.StringOf(id), a)
			}
			base.SetID(aid, StringValue(v))
		}
		if n.HasText {
			tid, ok := u.Child(id, dtd.TextStep)
			if !ok {
				return nil, fmt.Errorf("tuples: %s.%s is not in the path universe", u.StringOf(id), dtd.TextStep)
			}
			base.SetID(tid, StringValue(n.Text))
		}
		acc := []Tuple{base}
		for _, group := range childGroups(n) {
			cid, ok := u.Child(id, group[0].Label)
			if !ok {
				return nil, fmt.Errorf("tuples: %s.%s is not in the path universe", u.StringOf(id), group[0].Label)
			}
			var alts []Tuple
			for _, c := range group {
				sub, err := enum(c, cid)
				if err != nil {
					return nil, err
				}
				alts = append(alts, sub...)
			}
			// Cross product: extend every accumulated tuple with every
			// alternative for this label. The bitsets and value slices of
			// the whole product are carved out of two slab allocations —
			// the capacities are clamped, so a later grow can never bleed
			// into a neighbouring tuple.
			size, words := u.Size(), len(base.set)
			total := len(acc) * len(alts)
			valsArena := make([]Value, total*size)
			setArena := make([]uint64, total*words)
			next := make([]Tuple, 0, total)
			k := 0
			for _, t := range acc {
				for _, a := range alts {
					vals := valsArena[k*size : (k+1)*size : (k+1)*size]
					set := paths.Set(setArena[k*words : (k+1)*words : (k+1)*words])
					copy(vals, t.vals)
					copy(set, t.set)
					a.set.ForEach(func(id paths.ID) { vals[id] = a.vals[id] })
					for i := range a.set {
						set[i] |= a.set[i]
					}
					next = append(next, Tuple{u: u, set: set, vals: vals})
					k++
				}
			}
			acc = next
		}
		return acc, nil
	}
	return enum(t.Root, rootID)
}

// TreeOf computes tree_D(t) (Definition 5): the XML tree induced by the
// non-null values of a tuple. Children are ordered lexicographically by
// path step, as in the paper. The tuple must satisfy Definition 4
// (Validate) with respect to the DTD.
func TreeOf(d *dtd.DTD, t Tuple) (*xmltree.Tree, error) {
	if err := t.Validate(d); err != nil {
		return nil, err
	}
	return buildTree(d.Root(), t)
}

// buildTree assembles the tree for the (already validated) tuple.
func buildTree(root string, t Tuple) (*xmltree.Tree, error) {
	u := t.Universe()
	nodes := make(map[paths.ID]*xmltree.Node, t.Len()) // element path ID -> node
	t.set.ForEach(func(id paths.ID) {
		if v := t.vals[id]; v.IsNode() {
			nodes[id] = &xmltree.Node{ID: v.Node(), Label: u.PathOf(id).Last()}
		}
	})
	// The universe's lexicographic order gives the paper's child order,
	// replacing the historical sort of the dotted key strings.
	for _, id := range u.LexOrder() {
		if !t.set.Has(id) {
			continue
		}
		info := u.Info(id)
		if info.Parent == paths.None {
			continue
		}
		pn := nodes[info.Parent]
		if pn == nil {
			return nil, fmt.Errorf("tuples: path %q has no parent node", info.Str)
		}
		v := t.vals[id]
		switch {
		case v.IsNode():
			pn.Children = append(pn.Children, nodes[id])
		case info.Kind == paths.AttrKind:
			pn.SetAttr(info.Path.Last()[1:], v.Str())
		default: // text step
			pn.Text = v.Str()
			pn.HasText = true
		}
	}
	rootID, ok := u.Lookup(dtd.Path{root})
	if !ok || nodes[rootID] == nil {
		return nil, fmt.Errorf("tuples: tuple has no root vertex")
	}
	return xmltree.NewTree(nodes[rootID]), nil
}

// TreesOf computes a representative of trees_D(X) (Definition 7): the
// minimal tree (up to ≡) containing every tuple of X, obtained by gluing
// tuples on shared vertices. It fails if X is inconsistent: the same
// vertex with different labels, attribute values, text, or parents — in
// that case no tree contains all tuples and trees_D(X) is empty.
func TreesOf(d *dtd.DTD, X []Tuple) (*xmltree.Tree, error) {
	if len(X) == 0 {
		return nil, fmt.Errorf("tuples: trees_D of an empty set")
	}
	type nodeInfo struct {
		node   *xmltree.Node
		path   string
		parent xmltree.NodeID // 0 for the root
	}
	infos := map[xmltree.NodeID]*nodeInfo{}
	var rootID xmltree.NodeID
	haveRoot := false

	for i, t := range X {
		if err := t.Validate(d); err != nil {
			return nil, fmt.Errorf("tuples: X[%d]: %v", i, err)
		}
		u := t.Universe()
		// First pass: vertices.
		var firstErr error
		t.set.ForEach(func(id paths.ID) {
			v := t.vals[id]
			if !v.IsNode() || firstErr != nil {
				return
			}
			pinfo := u.Info(id)
			info := infos[v.Node()]
			if info == nil {
				info = &nodeInfo{node: &xmltree.Node{ID: v.Node(), Label: pinfo.Path.Last()}, path: pinfo.Str}
				infos[v.Node()] = info
			} else if info.path != pinfo.Str {
				firstErr = fmt.Errorf("tuples: vertex #%d occurs at %q and %q", v.Node(), info.path, pinfo.Str)
				return
			}
			if pinfo.Parent == paths.None {
				if haveRoot && rootID != v.Node() {
					firstErr = fmt.Errorf("tuples: two distinct roots #%d and #%d", rootID, v.Node())
					return
				}
				rootID, haveRoot = v.Node(), true
			}
		})
		if firstErr != nil {
			return nil, firstErr
		}
		// Second pass: attributes, text, and parent edges.
		t.set.ForEach(func(id paths.ID) {
			if firstErr != nil {
				return
			}
			pathInfo := u.Info(id)
			if pathInfo.Parent == paths.None {
				return
			}
			parentVal, ok := t.GetID(pathInfo.Parent)
			if !ok || !parentVal.IsNode() {
				firstErr = fmt.Errorf("tuples: %q without parent vertex", pathInfo.Str)
				return
			}
			pinfo := infos[parentVal.Node()]
			v := t.vals[id]
			switch {
			case v.IsNode():
				info := infos[v.Node()]
				if info.parent == 0 {
					info.parent = parentVal.Node()
				} else if info.parent != parentVal.Node() {
					firstErr = fmt.Errorf("tuples: vertex #%d has two parents", v.Node())
				}
			case pathInfo.Kind == paths.AttrKind:
				name := pathInfo.Path.Last()[1:]
				if prev, ok := pinfo.node.Attr(name); ok && prev != v.Str() {
					firstErr = fmt.Errorf("tuples: vertex #%d attribute %s has values %q and %q",
						parentVal.Node(), name, prev, v.Str())
					return
				}
				pinfo.node.SetAttr(name, v.Str())
			default:
				if pinfo.node.HasText && pinfo.node.Text != v.Str() {
					firstErr = fmt.Errorf("tuples: vertex #%d has texts %q and %q",
						parentVal.Node(), pinfo.node.Text, v.Str())
					return
				}
				pinfo.node.Text = v.Str()
				pinfo.node.HasText = true
			}
		})
		if firstErr != nil {
			return nil, firstErr
		}
	}
	if !haveRoot {
		return nil, fmt.Errorf("tuples: no root vertex in X")
	}
	// Attach children to parents, deduplicated, in a deterministic order:
	// by path then vertex ID.
	ids := make([]xmltree.NodeID, 0, len(infos))
	for id := range infos {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := infos[ids[i]], infos[ids[j]]
		if a.path != b.path {
			return a.path < b.path
		}
		return ids[i] < ids[j]
	})
	for _, id := range ids {
		info := infos[id]
		if info.parent == 0 {
			continue
		}
		infos[info.parent].node.Children = append(infos[info.parent].node.Children, info.node)
	}
	return xmltree.NewTree(infos[rootID].node), nil
}

// attrReq is one requested attribute under a relevant node.
type attrReq struct {
	name string
	id   paths.ID
}

// relevant is the prefix-closed tree of a set of query paths, with the
// interned ID of each requested path embedded, used to enumerate
// projections without materializing full tuples. kids[g] is the child
// under label kidOrder[g]; a node has one child per distinct next step
// of its query paths, few enough to search linearly.
type relevant struct {
	wanted   paths.ID // the element path itself, or None if not requested
	attrs    []attrReq
	textID   paths.ID // the text path, or None if not requested
	kids     []*relevant
	kidOrder []string
}

func newRelevant() *relevant {
	return &relevant{wanted: paths.None, textID: paths.None}
}

// kid returns the child under label, or nil.
func (r *relevant) kid(label string) *relevant {
	for g, l := range r.kidOrder {
		if l == label {
			return r.kids[g]
		}
	}
	return nil
}

// Projector is a compiled projection: the relevant tree of a fixed
// path list with every requested path resolved to its universe ID once.
// Build it once per query and reuse it across trees — this is the hot
// entry point for FD checking.
type Projector struct {
	u     *paths.Universe
	rel   *relevant
	first []string // first step of each query path, checked against each tree's root
}

// NewProjector compiles a projection over the universe. Every path
// must be interned in the universe and non-empty.
func NewProjector(u *paths.Universe, ps []dtd.Path) (*Projector, error) {
	pr := &Projector{u: u, rel: newRelevant(), first: make([]string, 0, len(ps))}
	for _, p := range ps {
		if len(p) == 0 {
			return nil, fmt.Errorf("tuples: empty query path")
		}
		id, ok := u.Lookup(p)
		if !ok {
			return nil, fmt.Errorf("tuples: query path %q not in the universe", p)
		}
		pr.first = append(pr.first, p[0])
		cur := pr.rel
		for i := 1; i < len(p); i++ {
			step := p[i]
			if i == len(p)-1 && strings0(step) == '@' {
				cur.attrs = append(cur.attrs, attrReq{name: step[1:], id: id})
				goto next
			}
			if i == len(p)-1 && step == dtd.TextStep {
				cur.textID = id
				goto next
			}
			k := cur.kid(step)
			if k == nil {
				k = newRelevant()
				cur.kids = append(cur.kids, k)
				cur.kidOrder = append(cur.kidOrder, step)
			}
			cur = k
		}
		cur.wanted = id
	next:
	}
	return pr, nil
}

func strings0(s string) byte {
	if s == "" {
		return 0
	}
	return s[0]
}

// Universe returns the universe the projector resolves against.
func (pr *Projector) Universe() *paths.Universe { return pr.u }

// Of enumerates the restrictions of the maximal tuples of the tree to
// the projector's paths, without duplicates. It returns nil when some
// query path does not start at the tree's root label (such a path can
// never be non-null in the tree). Built on Stream plus a binary-key
// set: duplicates (one per group of sibling choices producing the same
// projection) are dropped as they stream by, keeping first
// occurrences, so only the distinct projections are ever materialized
// — no per-level cross-product slabs. Deduplicating the stream keeps
// the exact output order the old recursive cross-product enumeration
// produced: removing duplicates from A×B commutes with removing them
// from A first.
func (pr *Projector) Of(t *xmltree.Tree) []Tuple {
	var out []Tuple
	seen := map[string]bool{}
	var buf []byte
	pr.Stream(t, func(tup Tuple) bool {
		buf = tup.appendKey(buf[:0])
		if seen[string(buf)] {
			return true
		}
		seen[string(buf)] = true
		out = append(out, tup.Clone())
		return true
	})
	return out
}

// Projections enumerates the restrictions of the maximal tuples of the
// tree to the given paths, without duplicates. All paths must start at
// the root label. This is how FD satisfaction is checked without
// materializing the full (possibly exponential) tuple set: branches of
// the tree not mentioned by any path cannot affect the projection.
//
// The resulting tuples are indexed by a query-local universe (the
// prefix closure of the paths); callers that hold a DTD universe should
// compile a Projector against it instead and reuse it across trees.
func Projections(t *xmltree.Tree, ps []dtd.Path) []Tuple {
	ts, err := ProjectionsErr(t, ps)
	if err != nil {
		return nil
	}
	return ts
}

// ProjectionsErr is Projections with the failure modes reported instead
// of swallowed: an empty query path, a path that does not start at the
// tree's root label, or a projector compilation failure each return a
// descriptive error, so callers can tell "no tuples" (an empty slice,
// nil error) from "the query was malformed" (a non-nil error).
func ProjectionsErr(t *xmltree.Tree, ps []dtd.Path) ([]Tuple, error) {
	for _, p := range ps {
		if len(p) == 0 {
			return nil, fmt.Errorf("tuples: empty query path")
		}
		if p[0] != t.Root.Label {
			return nil, fmt.Errorf("tuples: query path %q does not start at the root label %q", p, t.Root.Label)
		}
	}
	u := paths.ForQuery(ps)
	pr, err := NewProjector(u, ps)
	if err != nil {
		return nil, err
	}
	return pr.Of(t), nil
}
