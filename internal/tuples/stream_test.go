package tuples_test

// Suite for the projection walk: Projector.Stream must cover exactly
// Of's deduplicated tuple set, stop the moment yield says so, and run
// in time linear in its output; the saturating CountTuples must clamp
// at the cap where the naive product would wrap past MaxInt.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xmltree"
)

// TestStreamEarlyStop checks that a yield returning false stops the
// enumeration immediately instead of draining the product:
// Projector.Stream and StreamPinned on seeded random instances, where
// stopping at the k-th yield must make exactly k calls carrying the
// first k tuples of the full sequence. Every witness short-circuit
// relies on this.
func TestStreamEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(20020608))
	stopped := 0
	for instances := 0; instances < 300; {
		d := gen.RandomSimpleDTD(rng)
		doc, err := gen.Document(d, rng, 2, 3)
		if err != nil {
			t.Fatalf("gen.Document: %v", err)
		}
		if tuples.CountTuples(doc, 0) > 2000 {
			continue
		}
		instances++
		all, err := d.Paths()
		if err != nil {
			t.Fatal(err)
		}
		var ps []dtd.Path
		for j := 0; j < 1+rng.Intn(3); j++ {
			ps = append(ps, all[rng.Intn(len(all))])
		}
		pr, err := tuples.NewProjector(paths.ForQuery(ps), ps)
		if err != nil {
			t.Fatalf("NewProjector(%v): %v", ps, err)
		}
		// A random spine the projection sees, from the root down.
		spine, labels := []*xmltree.Node{doc.Root}, []string{doc.Root.Label}
		for n := doc.Root; rng.Intn(3) > 0; {
			var seen []*xmltree.Node
			for _, c := range n.Children {
				if pr.Sees(append(labels[:len(labels):len(labels)], c.Label)) {
					seen = append(seen, c)
				}
			}
			if len(seen) == 0 {
				break
			}
			n = seen[rng.Intn(len(seen))]
			spine, labels = append(spine, n), append(labels, n.Label)
		}
		for _, s := range []struct {
			name string
			run  func(yield func(tuples.Tuple) bool)
		}{
			{"Projector.Stream", func(yield func(tuples.Tuple) bool) { pr.Stream(doc, yield) }},
			{"StreamPinned", func(yield func(tuples.Tuple) bool) { pr.StreamPinned(doc, spine, yield) }},
		} {
			var full [][]byte
			s.run(func(tup tuples.Tuple) bool {
				full = append(full, tup.AppendKey(nil))
				return true
			})
			if len(full) == 0 {
				continue
			}
			for _, k := range []int{1, 2, 1 + rng.Intn(len(full)), len(full)} {
				if k > len(full) {
					continue
				}
				calls := 0
				s.run(func(tup tuples.Tuple) bool {
					if calls < len(full) && !bytes.Equal(tup.AppendKey(nil), full[calls]) {
						t.Fatalf("instance %d %s: yield %d differs from the full sequence's\nquery %v\nDTD:\n%s\ndoc:\n%s",
							instances, s.name, calls, ps, d, doc)
					}
					calls++
					return calls < k
				})
				if calls != k {
					t.Fatalf("instance %d %s: yield called %d times after stopping at %d of %d\nquery %v\nDTD:\n%s\ndoc:\n%s",
						instances, s.name, calls, k, len(full), ps, d, doc)
				}
				stopped++
			}
		}
	}
	if stopped < 1000 {
		t.Fatalf("only %d early stops exercised", stopped)
	}
}

// TestProjectorStreamMatchesOf checks, over ≥1000 random instances and
// random queries, that Projector.Stream yields exactly Of's tuple set:
// Stream does not deduplicate, so it may repeat tuples, but its set of
// distinct binary keys must equal Of's and every Of tuple must appear.
func TestProjectorStreamMatchesOf(t *testing.T) {
	rng := rand.New(rand.NewSource(20020605))
	instances := 0
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
		all, err := d.Paths()
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 3; q++ {
			var ps []dtd.Path
			for j := 0; j < 1+rng.Intn(3); j++ {
				ps = append(ps, all[rng.Intn(len(all))])
			}
			u := paths.ForQuery(ps)
			pr, err := tuples.NewProjector(u, ps)
			if err != nil {
				t.Fatalf("NewProjector(%v): %v", ps, err)
			}
			ofKeys := map[string]bool{}
			var buf []byte
			for _, tup := range pr.Of(doc) {
				buf = tup.AppendKey(buf[:0])
				ofKeys[string(buf)] = true
			}
			streamKeys := map[string]bool{}
			streamed := 0
			pr.Stream(doc, func(tup tuples.Tuple) bool {
				streamed++
				buf = tup.AppendKey(buf[:0])
				streamKeys[string(buf)] = true
				return true
			})
			if len(streamKeys) != len(ofKeys) {
				t.Fatalf("instance %d query %v: %d distinct streamed tuples, Of has %d\nDTD:\n%s\ndoc:\n%s",
					instances, ps, len(streamKeys), len(ofKeys), d, doc)
			}
			for k := range ofKeys {
				if !streamKeys[k] {
					t.Fatalf("instance %d query %v: Of tuple missing from stream\nDTD:\n%s\ndoc:\n%s",
						instances, ps, d, doc)
				}
			}
			if streamed < len(ofKeys) {
				t.Fatalf("instance %d query %v: %d yields < %d distinct tuples", instances, ps, streamed, len(ofKeys))
			}
		}
	}
}

// TestWalkLinearInOutput drains the projection {r.a.@x, r.a.t.S,
// r.b.@y} of <r> holding n × <a x><t>…</t></a> and two <b y/> — 2n
// tuples, from a cross product at the root over a wide child list —
// through Projector.Stream, StreamPinned on the root-only spine and
// Projector.StreamTokens. Each must take at most 24 times as long at
// n = 16000 as at n = 2000 (best of 5 runs each): a walk linear in its
// output reads about 8, while one that rescans the root's children
// every time it resumes the b group reads far more.
func TestWalkLinearInOutput(t *testing.T) {
	pr := mustProjector(t, "r.a.@x", "r.a.t.S", "r.b.@y")
	drain := func(n *int) func(tuples.Tuple) bool {
		return func(tuples.Tuple) bool { *n++; return true }
	}
	streams := []struct {
		name string
		run  func(text string, tree *xmltree.Tree) int
	}{
		{"Projector.Stream", func(_ string, tree *xmltree.Tree) (n int) {
			pr.Stream(tree, drain(&n))
			return n
		}},
		{"StreamPinned", func(_ string, tree *xmltree.Tree) (n int) {
			pr.StreamPinned(tree, []*xmltree.Node{tree.Root}, drain(&n))
			return n
		}},
		{"Projector.StreamTokens", func(text string, _ *xmltree.Tree) (n int) {
			if err := pr.StreamTokens(strings.NewReader(text), 0, drain(&n)); err != nil {
				t.Fatal(err)
			}
			return n
		}},
	}
	best := func(run func(string, *xmltree.Tree) int, n int) time.Duration {
		var b strings.Builder
		b.WriteString("<r>")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, `<a x="%d"><t>%d</t></a>`, i, i%7)
		}
		b.WriteString(`<b y="p"/><b y="q"/></r>`)
		text := b.String()
		tree := xmltree.MustParseString(text)
		var min time.Duration
		for i := 0; i < 5; i++ {
			start := time.Now()
			got := run(text, tree)
			d := time.Since(start)
			if got != 2*n {
				t.Fatalf("n = %d: %d tuples, want %d", n, got, 2*n)
			}
			if i == 0 || d < min {
				min = d
			}
		}
		return min
	}
	for _, s := range streams {
		small, large := best(s.run, 2000), best(s.run, 16000)
		if ratio := float64(large) / float64(small); ratio > 24 {
			t.Errorf("%s: %v at n = 16000 against %v at n = 2000, ratio %.1f > 24", s.name, large, small, ratio)
		} else {
			t.Logf("%s: %v at n = 16000 against %v at n = 2000, ratio %.1f", s.name, large, small, ratio)
		}
	}
}

// TestCountTuplesOverflowClamp builds a tree whose exact tuple count
// is 32^13 = 2^65 — past MaxInt64, so the naive per-node product would
// wrap — and checks that the saturating count clamps at the cap
// instead.
func TestCountTuplesOverflowClamp(t *testing.T) {
	root := xmltree.NewNode("r")
	for i := 0; i < 13; i++ {
		for j := 0; j < 32; j++ {
			root.Children = append(root.Children, xmltree.NewNode(fmt.Sprintf("c%d", i)))
		}
	}
	doc := xmltree.NewTree(root)
	if got := tuples.CountTuples(doc, 0); got != tuples.MaxTuples {
		t.Fatalf("CountTuples(overflowing, 0) = %d, want the MaxTuples cap %d", got, tuples.MaxTuples)
	}
	if got := tuples.CountTuples(doc, 12345); got != 12345 {
		t.Fatalf("CountTuples(overflowing, 12345) = %d, want the cap 12345", got)
	}
	const maxInt = int(^uint(0) >> 1)
	if got := tuples.CountTuples(doc, maxInt); got != maxInt {
		t.Fatalf("CountTuples(overflowing, MaxInt) = %d, want the cap %d", got, maxInt)
	}
}

// TestProjectionsErr checks the error-reporting projection entry
// point: Projections keeps its nil-on-error contract while
// ProjectionsErr distinguishes "no tuples" from "bad query".
func TestProjectionsErr(t *testing.T) {
	doc, err := xmltree.ParseString("<r><c k=\"1\"/></r>")
	if err != nil {
		t.Fatal(err)
	}
	good := []dtd.Path{dtd.MustParsePath("r.c.@k")}
	ts, err := tuples.ProjectionsErr(doc, good)
	if err != nil || len(ts) != 1 {
		t.Fatalf("ProjectionsErr(good) = %v tuples, err %v", len(ts), err)
	}
	bad := []dtd.Path{dtd.MustParsePath("s.c")} // wrong root label
	if _, err := tuples.ProjectionsErr(doc, bad); err == nil {
		t.Fatal("ProjectionsErr should reject a query not rooted at the document root")
	}
	if got := tuples.Projections(doc, bad); got != nil {
		t.Fatalf("Projections(bad) = %v, want nil", got)
	}
}
