package tuples

// Token-fused tuple enumeration: the streaming enumerators of stream.go
// rebuilt to run straight off an xmltree.WalkTokens token walk (the
// package's own windowed XML scanner), so checking never needs the
// materialized tree at all. The projection streamer
// (Projector.StreamTokens / StartTokens) is the constant-memory path:
// elements on the current spine whose enclosing sibling groups are
// single-choice-point chains are "live" — their assignments go directly
// into the one scratch tuple and completed tuples are emitted the
// moment their deepest node closes — while subtrees under a node with
// two or more relevant child labels (a genuine cross product) are
// collected as plan fragments and enumerated when that node closes.
// Memory is therefore O(depth · |paths|) plus the largest subtree that
// genuinely participates in a cross product; for the common FD shape
// (one constrained child chain, as in the paper's running examples) no
// fragment is ever collected. Elements whose label is irrelevant to the
// projector are skipped with a bare depth counter — no allocation, no
// token inspection. The yield order is exactly Projector.Stream's order
// on the parsed tree, which is what keeps first-conflict witness
// reports bit-identical between the tree and token paths.
//
// The maximal-tuple StreamTokens has no such locality to exploit: every
// node of the tree contributes to every tuple's choice structure, and
// sibling groups are ordered by first occurrence in the document, which
// is unknowable until a node's last child has closed. It therefore
// builds the full enumeration plan from the tokens (memory O(|T|), like
// Stream) and enumerates after the walk — same verdicts, same order,
// but the constant-memory claim belongs to the projection path.

import (
	"fmt"
	"io"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/xmltree"
)

// tokFrame is one open element the token streamer is tracking (its
// label is relevant to the projector). Live frames write into the
// shared scratch tuple; collect frames accumulate a plan fragment.
type tokFrame struct {
	rel    *relevant
	label  string
	live   bool                   // assignments go into the scratch tuple
	single bool                   // live and at most one relevant child label: children stream
	sawKid bool                   // a relevant child closed inside this frame
	setIDs []paths.ID             // live: scratch assignments to clear on close (reused)
	self   []pathValue            // collect: the fragment's own assignments
	kids   map[string][]*planNode // collected child fragments by label (reused)
}

// TokenStream folds a stream of Open/Text/Close events into projected
// tree tuples, yielding them through a reused scratch tuple in exactly
// the order Projector.Stream yields them on the parsed tree (Clone to
// retain a tuple past the callback). Build one with
// Projector.StartTokens and feed it from an xmltree.WalkTokens walk;
// events must describe a single well-formed document — the walker
// guarantees that. Once yield returns false the stream is done and
// ignores further events.
type TokenStream struct {
	pr      *Projector
	yield   func(Tuple) bool
	scratch Tuple
	frames  []tokFrame
	skip    int  // >0: inside an irrelevant subtree, this many unclosed opens
	done    bool // yield stopped, or the root label ruled every tuple out
	started bool
}

// StartTokens returns a TokenStream folding token events into the
// projector's tuple stream. See Projector.StreamTokens for the common
// reader-driven entry point.
func (pr *Projector) StartTokens(yield func(Tuple) bool) *TokenStream {
	return &TokenStream{pr: pr, yield: yield, scratch: NewTuple(pr.u)}
}

// Stopped reports whether the stream stopped early because yield
// returned false.
func (ts *TokenStream) Stopped() bool { return ts.done && ts.started }

// lookupAttr finds an attribute by name. Walkers deliver repeated
// names as written; the last occurrence wins, matching the tree
// parser's attribute-map semantics.
func lookupAttr(attrs []xmltree.Attr, name string) (string, bool) {
	for i := len(attrs) - 1; i >= 0; i-- {
		if attrs[i].Name == name {
			return attrs[i].Value, true
		}
	}
	return "", false
}

// push opens a tracked frame, recording the node's own assignments
// (fresh vertex for a wanted element path, requested attributes).
func (ts *TokenStream) push(rel *relevant, label string, live bool, attrs []xmltree.Attr) {
	n := len(ts.frames)
	if n == cap(ts.frames) {
		ts.frames = append(ts.frames, tokFrame{})
	} else {
		ts.frames = ts.frames[:n+1]
	}
	f := &ts.frames[n]
	f.rel, f.label, f.live = rel, label, live
	f.single = live && len(rel.kidOrder) <= 1
	f.sawKid = false
	f.setIDs = f.setIDs[:0]
	f.self = nil
	if f.kids != nil {
		clear(f.kids)
	}
	if live {
		if rel.wanted != paths.None {
			ts.scratch.SetID(rel.wanted, NodeValue(xmltree.FreshID()))
			f.setIDs = append(f.setIDs, rel.wanted)
		}
		for _, a := range rel.attrs {
			if v, ok := lookupAttr(attrs, a.name); ok {
				ts.scratch.SetID(a.id, StringValue(v))
				f.setIDs = append(f.setIDs, a.id)
			}
		}
		return
	}
	if rel.wanted != paths.None {
		f.self = append(f.self, pathValue{id: rel.wanted, v: NodeValue(xmltree.FreshID())})
	}
	for _, a := range rel.attrs {
		if v, ok := lookupAttr(attrs, a.name); ok {
			f.self = append(f.self, pathValue{id: a.id, v: StringValue(v)})
		}
	}
}

// Open feeds an element start. The attrs slice is not retained.
func (ts *TokenStream) Open(label string, attrs []xmltree.Attr) {
	if ts.done {
		return
	}
	if ts.skip > 0 {
		ts.skip++
		return
	}
	if !ts.started {
		ts.started = true
		// Of/Stream semantics: a query path that does not start at the
		// root label makes every projection empty.
		for _, f := range ts.pr.first {
			if f != label {
				ts.done = true
				return
			}
		}
		ts.push(ts.pr.rel, label, true, attrs)
		return
	}
	if len(ts.frames) == 0 {
		// Only reachable on malformed event streams (second root); the
		// walker rejects those before the events arrive.
		ts.done = true
		return
	}
	parent := &ts.frames[len(ts.frames)-1]
	kr := parent.rel.kids[label]
	if kr == nil {
		ts.skip = 1 // irrelevant subtree: count opens, touch nothing
		return
	}
	// A child can stream only while its parent has a single relevant
	// child label: with two or more, the parent's tuples are a cross
	// product over its groups and must be enumerated at its close.
	ts.push(kr, label, parent.live && parent.single, attrs)
}

// Text feeds the element's character data (delivered once, before its
// Close). The byte slice is not retained.
func (ts *TokenStream) Text(text []byte) {
	if ts.done || ts.skip > 0 || len(ts.frames) == 0 {
		return
	}
	f := &ts.frames[len(ts.frames)-1]
	tid := f.rel.textID
	if tid == paths.None {
		return
	}
	if f.live {
		ts.scratch.SetID(tid, StringValue(string(text)))
		f.setIDs = append(f.setIDs, tid)
		return
	}
	f.self = append(f.self, pathValue{id: tid, v: StringValue(string(text))})
}

// collectGroups assembles a frame's collected child fragments into
// choice-point groups, in relevant-label order with empty (⊥) branches
// dropped — the groups Projector.Stream's walk opens at the node.
func collectGroups(f *tokFrame) [][]*planNode {
	var groups [][]*planNode
	for _, label := range f.rel.kidOrder {
		if kids := f.kids[label]; len(kids) > 0 {
			groups = append(groups, kids)
		}
	}
	return groups
}

// Close feeds an element end, emitting whatever tuples complete here.
func (ts *TokenStream) Close() {
	if ts.done {
		return
	}
	if ts.skip > 0 {
		ts.skip--
		return
	}
	if len(ts.frames) == 0 {
		return
	}
	n := len(ts.frames) - 1
	f := &ts.frames[n]
	switch {
	case f.live && f.single:
		// Streaming chain: relevant children already emitted their
		// tuples during this frame's lifetime; if none closed, this
		// frame's branch contributes exactly one tuple — the spine
		// currently in the scratch.
		if !f.sawKid && !ts.yield(ts.scratch) {
			ts.done = true
		}
	case f.live:
		// Cross product rooted here: the frame's own assignments are
		// in the scratch, its subtrees were collected; enumerate them
		// in plan order under the live spine.
		if !enumerate(&planNode{groups: collectGroups(f)}, ts.scratch, ts.yield) {
			ts.done = true
		}
	default:
		// Collected fragment: hand the completed plan node to the
		// parent's group for its label.
		node := &planNode{self: f.self, groups: collectGroups(f)}
		p := &ts.frames[n-1]
		if p.kids == nil {
			p.kids = make(map[string][]*planNode)
		}
		p.kids[f.label] = append(p.kids[f.label], node)
	}
	if f.live {
		for _, id := range f.setIDs {
			ts.scratch.ClearID(id)
		}
		if n > 0 {
			ts.frames[n-1].sawKid = true
		}
	}
	ts.frames = ts.frames[:n]
}

// StreamTokens enumerates the projections of the document arriving on
// r without ever materializing its tree: tuples stream to yield in
// exactly the order Projector.Stream produces on the parsed tree,
// through a reused scratch tuple (Clone to retain). Memory is bounded
// by nesting depth and the largest subtree participating in a genuine
// cross product of relevant sibling groups — independent of document
// length for chain-shaped projections. maxDepth bounds element nesting
// (<= 0: unlimited); the reader is always consumed to the end of the
// document so structural errors surface exactly as in xmltree.Parse —
// malformed input fails with xmltree.MalformedError (or
// xmltree.DepthError) even when yield has already stopped the tuple
// stream.
func (pr *Projector) StreamTokens(r io.Reader, maxDepth int, yield func(Tuple) bool) error {
	ts := pr.StartTokens(yield)
	return xmltree.WalkTokens(r, maxDepth, xmltree.TokenCallbacks{
		Open:  func(label string, attrs []xmltree.Attr) error { ts.Open(label, attrs); return nil },
		Text:  func(text []byte) error { ts.Text(text); return nil },
		Close: func(string) error { ts.Close(); return nil },
	})
}

// mFrame is one open element of the maximal-tuple plan builder.
type mFrame struct {
	id    paths.ID
	node  *planNode
	kids  map[string][]*planNode
	order []string // first-occurrence label order, as childGroups
}

// StreamTokens enumerates tuples_D(T) (Definition 6) for the document
// arriving on r, yielding maximal tuples in exactly the order Stream
// yields them on the parsed tree, through a reused scratch tuple
// (Clone to retain). Document paths outside the universe are an error,
// with the same message Stream reports; malformed input fails with
// xmltree.MalformedError, nesting beyond a positive maxDepth with
// xmltree.DepthError — in every error case nothing is yielded. Unlike
// the projection streamer this buffers the full enumeration plan
// (memory O(|T|), without the tree's label/attr string storage):
// maximal tuples order sibling groups by first document occurrence,
// which is not known until each node's last child has closed.
func StreamTokens(u *paths.Universe, r io.Reader, maxDepth int, yield func(Tuple) bool) error {
	var stack []mFrame
	var root *planNode
	err := xmltree.WalkTokens(r, maxDepth, xmltree.TokenCallbacks{
		Open: func(label string, attrs []xmltree.Attr) error {
			var id paths.ID
			if len(stack) == 0 {
				rid, ok := u.LookupString(label)
				if !ok {
					return fmt.Errorf("tuples: root %q is not in the path universe", label)
				}
				id = rid
			} else {
				parent := &stack[len(stack)-1]
				cid, ok := u.Child(parent.id, label)
				if !ok {
					return fmt.Errorf("tuples: %s.%s is not in the path universe", u.StringOf(parent.id), label)
				}
				id = cid
			}
			sn := &planNode{self: make([]pathValue, 0, 1+len(attrs))}
			sn.self = append(sn.self, pathValue{id: id, v: NodeValue(xmltree.FreshID())})
			for _, a := range attrs {
				aid, ok := u.Child(id, "@"+a.Name)
				if !ok {
					return fmt.Errorf("tuples: %s.@%s is not in the path universe", u.StringOf(id), a.Name)
				}
				// A repeated attribute overwrites, as in the tree's map.
				replaced := false
				for i := 1; i < len(sn.self); i++ {
					if sn.self[i].id == aid {
						sn.self[i].v = StringValue(a.Value)
						replaced = true
						break
					}
				}
				if !replaced {
					sn.self = append(sn.self, pathValue{id: aid, v: StringValue(a.Value)})
				}
			}
			stack = append(stack, mFrame{id: id, node: sn})
			return nil
		},
		Text: func(text []byte) error {
			f := &stack[len(stack)-1]
			tid, ok := u.Child(f.id, dtd.TextStep)
			if !ok {
				return fmt.Errorf("tuples: %s.%s is not in the path universe", u.StringOf(f.id), dtd.TextStep)
			}
			f.node.self = append(f.node.self, pathValue{id: tid, v: StringValue(string(text))})
			return nil
		},
		Close: func(label string) error {
			n := len(stack) - 1
			f := stack[n]
			for _, l := range f.order {
				f.node.groups = append(f.node.groups, f.kids[l])
			}
			stack = stack[:n]
			if n == 0 {
				root = f.node
				return nil
			}
			p := &stack[n-1]
			if p.kids == nil {
				p.kids = make(map[string][]*planNode)
			}
			if _, seen := p.kids[label]; !seen {
				p.order = append(p.order, label)
			}
			p.kids[label] = append(p.kids[label], f.node)
			return nil
		},
	})
	if err != nil {
		return err
	}
	enumerate(root, NewTuple(u), yield)
	return nil
}
