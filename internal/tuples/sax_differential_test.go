package tuples_test

// Differential property suite for the token-fused enumerator: on
// serialized random documents, Projector.StreamTokens off the raw bytes
// must reproduce Projector.Stream off the parsed tree for random
// projections — same tuples, same order. Vertex IDs are process-global
// and minted afresh by every walk, so streams are compared through a
// canonical rendering that renumbers vertices by first appearance
// across the whole stream: equal renderings mean the streams agree on
// everything the checker layer can observe, including enumeration
// order (which is what makes first-conflict witnesses deterministic)
// and vertex-sharing structure within and across tuples.

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xmltree"
)

// canonStream renders a tuple stream canonically: one line per tuple,
// set paths in ID order, vertices renumbered by first appearance
// across the stream (shared renum map), strings quoted.
type canonStream struct {
	renum map[xmltree.NodeID]int
	lines []string
}

func newCanonStream() *canonStream {
	return &canonStream{renum: make(map[xmltree.NodeID]int)}
}

func (c *canonStream) yield(tup tuples.Tuple) bool {
	u := tup.Universe()
	var b strings.Builder
	for id := paths.ID(0); int(id) < u.Size(); id++ {
		v, ok := tup.GetID(id)
		if !ok {
			continue
		}
		b.WriteString(u.StringOf(id))
		b.WriteByte('=')
		if v.IsNode() {
			n, seen := c.renum[v.Node()]
			if !seen {
				n = len(c.renum)
				c.renum[v.Node()] = n
			}
			b.WriteByte('#')
			b.WriteString(itoa(n))
		} else {
			b.WriteString(quoted(v.Str()))
		}
		b.WriteByte(' ')
	}
	c.lines = append(c.lines, b.String())
	return true
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func quoted(s string) string { return "\"" + s + "\"" }

// TestStreamTokensDifferential drives ≥1000 random instances through
// the projection token streamer and requires the canonical streams to
// match the tree walk's exactly.
func TestStreamTokensDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20020608))
	instances := 0
	projections := 0
	for instances < 1000 {
		d := gen.RandomSimpleDTD(rng)
		doc, err := gen.Document(d, rng, 2, 3)
		if err != nil {
			t.Fatalf("gen.Document: %v", err)
		}
		if tuples.CountTuples(doc, 0) > 2000 {
			continue
		}
		instances++
		text := doc.String()
		tree, err := xmltree.ParseString(text)
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}

		// Projections: random path subsets, tree vs token streams.
		ps, err := d.Paths()
		if err != nil {
			t.Fatalf("Paths: %v", err)
		}
		for rep := 0; rep < 2; rep++ {
			k := 1 + rng.Intn(4)
			sub := make([]dtd.Path, 0, k)
			for i := 0; i < k; i++ {
				sub = append(sub, ps[rng.Intn(len(ps))])
			}
			pu := paths.ForQuery(sub)
			pr, err := tuples.NewProjector(pu, sub)
			if err != nil {
				t.Fatalf("NewProjector(%v): %v", sub, err)
			}
			projections++
			want := newCanonStream()
			pr.Stream(tree, want.yield)
			got := newCanonStream()
			if err := pr.StreamTokens(strings.NewReader(text), 0, got.yield); err != nil {
				t.Fatalf("Projector.StreamTokens(%v): %v", sub, err)
			}
			diffStreams(t, "projection "+pathsString(sub), text, want.lines, got.lines)
		}
	}
	t.Logf("%d documents, %d projections", instances, projections)
}

func pathsString(ps []dtd.Path) string {
	ss := make([]string, len(ps))
	for i, p := range ps {
		ss[i] = p.String()
	}
	sort.Strings(ss)
	return strings.Join(ss, ",")
}

func diffStreams(t *testing.T, what, doc string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: tree stream has %d tuples, token stream %d\ndocument:\n%s\ntree:\n%s\ntokens:\n%s",
			what, len(want), len(got), doc, strings.Join(want, "\n"), strings.Join(got, "\n"))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: tuple %d differs\n tree:  %s\n token: %s\ndocument:\n%s",
				what, i, want[i], got[i], doc)
		}
	}
}

// TestStreamTokensEarlyStop checks that stopping the yield mid-stream
// leaves the walk intact: a stop inside a collected cross product makes
// exactly k calls carrying the first k tuples of the full stream, the
// reader is still consumed, and structural errors still surface.
func TestStreamTokensEarlyStop(t *testing.T) {
	// Each g roots a cross product of its a and b children, enumerated
	// when the g closes: tuples (1,p) (2,p) from the first, (3,q) from
	// the second.
	pr := mustProjector(t, "r.g.a.@x", "r.g.b.@y")
	text := `<r><g><a x="1"/><b y="p"/><a x="2"/></g><g><a x="3"/><b y="q"/></g></r>`
	full := newCanonStream()
	if err := pr.StreamTokens(strings.NewReader(text), 0, full.yield); err != nil {
		t.Fatal(err)
	}
	if len(full.lines) != 3 {
		t.Fatalf("full stream has %d tuples, want 3:\n%s", len(full.lines), strings.Join(full.lines, "\n"))
	}
	for k := 1; k <= len(full.lines); k++ {
		got := newCanonStream()
		if err := pr.StreamTokens(strings.NewReader(text), 0, func(tup tuples.Tuple) bool {
			got.yield(tup)
			return len(got.lines) < k
		}); err != nil {
			t.Fatalf("stop at %d: %v", k, err)
		}
		diffStreams(t, "stop at "+itoa(k), text, full.lines[:k], got.lines)
	}
	// Stopped inside the first g's cross product, the truncated rest
	// of the document must still fail.
	truncated := text[:strings.Index(text, "</g>")+len("</g><g>")]
	calls := 0
	if err := pr.StreamTokens(strings.NewReader(truncated), 0, func(tuples.Tuple) bool {
		calls++
		return false
	}); err == nil {
		t.Fatal("truncated document after a stop: want error, got nil")
	}
	if calls != 1 {
		t.Fatalf("yield ran %d times after stopping, want 1", calls)
	}
	// The error must surface even when the projection yields nothing
	// relevant.
	irrelevant := mustProjector(t, "z.q")
	if err := irrelevant.StreamTokens(strings.NewReader("<r><c>"), 0, func(tuples.Tuple) bool { return true }); err == nil {
		t.Fatal("truncated document: want error, got nil")
	}
}
