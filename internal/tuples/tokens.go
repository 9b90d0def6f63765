package tuples

// Token-fused tuple enumeration: the projection walk of stream.go run
// straight off an xmltree.WalkTokens token walk (the package's own
// windowed XML scanner), so checking never needs the materialized tree
// at all. Projector.StreamTokens / StartTokens is the constant-memory
// path: elements on the current spine whose enclosing sibling groups
// are single-choice-point chains are "live" — their assignments go
// directly into the one scratch tuple and completed tuples are emitted
// the moment their deepest node closes — while subtrees under a node
// with two or more relevant child labels (a genuine cross product) are
// collected as xmltree nodes holding only what the projector requests,
// and the projection walk enumerates them under the live spine when
// that node closes. Memory is therefore O(depth · |paths|) plus the
// largest subtree that genuinely participates in a cross product; for
// the common FD shape (one constrained child chain, as in the paper's
// running examples) nothing is ever collected. Elements whose label is
// irrelevant to the projector are skipped with a bare depth counter —
// no allocation, no token inspection. Because the cross products run
// the same walk as Projector.Stream, the yield order is exactly
// Projector.Stream's order on the parsed tree, which is what keeps
// first-conflict witness reports bit-identical between the tree and
// token paths.

import (
	"io"

	"xmlnorm/internal/paths"
	"xmlnorm/internal/xmltree"
)

// tokFrame is one open element the token streamer is tracking (its
// label is relevant to the projector). Live frames write into the
// shared scratch tuple; the other frames, and live frames that root a
// cross product, collect their relevant children into node.
type tokFrame struct {
	rel    *relevant
	live   bool          // assignments go into the scratch tuple
	single bool          // live and at most one relevant child label: children stream
	sawKid bool          // a relevant child closed inside this frame
	setIDs []paths.ID    // live: scratch assignments to clear on close (reused)
	node   *xmltree.Node // collecting: requested values (when not live) and relevant children
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
	w       projWalk // holds the scratch and yield; enumerates cross products
	frames  []tokFrame
	skip    int  // >0: inside an irrelevant subtree, this many unclosed opens
	done    bool // yield stopped, or the root label ruled every tuple out
	started bool
}

// StartTokens returns a TokenStream folding token events into the
// projector's tuple stream. See Projector.StreamTokens for the common
// reader-driven entry point.
func (pr *Projector) StartTokens(yield func(Tuple) bool) *TokenStream {
	return &TokenStream{pr: pr, w: projWalk{scratch: NewTuple(pr.u), yield: yield}}
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

// push opens a tracked frame, recording the node's own requested
// values: a fresh vertex for a wanted element path and the requested
// attributes, into the scratch when live and into a collected node
// otherwise.
func (ts *TokenStream) push(rel *relevant, label string, live bool, attrs []xmltree.Attr) {
	n := len(ts.frames)
	if n == cap(ts.frames) {
		ts.frames = append(ts.frames, tokFrame{})
	} else {
		ts.frames = ts.frames[:n+1]
	}
	f := &ts.frames[n]
	f.rel, f.live = rel, live
	f.single = live && len(rel.kidOrder) <= 1
	f.sawKid = false
	f.setIDs = f.setIDs[:0]
	f.node = nil
	if !f.single {
		f.node = &xmltree.Node{Label: label}
	}
	if live {
		if rel.wanted != paths.None {
			ts.w.scratch.SetID(rel.wanted, NodeValue(xmltree.FreshID()))
			f.setIDs = append(f.setIDs, rel.wanted)
		}
		for _, a := range rel.attrs {
			if v, ok := lookupAttr(attrs, a.name); ok {
				ts.w.scratch.SetID(a.id, StringValue(v))
				f.setIDs = append(f.setIDs, a.id)
			}
		}
		return
	}
	if rel.wanted != paths.None {
		f.node.ID = xmltree.FreshID()
	}
	for _, a := range rel.attrs {
		if v, ok := lookupAttr(attrs, a.name); ok {
			if f.node.Attrs == nil {
				f.node.Attrs = make(map[string]string, len(rel.attrs))
			}
			f.node.Attrs[a.name] = v
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
	kr := parent.rel.kid(label)
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
		ts.w.scratch.SetID(tid, StringValue(string(text)))
		f.setIDs = append(f.setIDs, tid)
		return
	}
	f.node.Text, f.node.HasText = string(text), true
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
		if !f.sawKid && !ts.w.yield(ts.w.scratch) {
			ts.done = true
		}
	case f.live:
		// Cross product rooted here: the frame's own assignments are
		// in the scratch and its relevant children were collected;
		// the projection walk enumerates them under the live spine.
		if !ts.w.children(f.node, f.rel, -1, -1) {
			ts.done = true
		}
	default:
		// Collected node: hand it to the parent, which collects too.
		p := ts.frames[n-1].node
		p.Children = append(p.Children, f.node)
	}
	if f.live {
		for _, id := range f.setIDs {
			ts.w.scratch.ClearID(id)
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
