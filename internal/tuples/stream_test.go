package tuples_test

// Differential suite for the streaming enumerators: Stream must agree
// with the materializing TuplesOf tuple for tuple (same sequence, not
// just the same multiset), Projector.Stream must cover exactly Of's
// deduplicated tuple set, and the saturating CountTuples must clamp at
// the cap where the naive product would wrap past MaxInt.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xmltree"
)

// collectStream drains Stream into a slice of cloned tuples.
func collectStream(t *testing.T, u *paths.Universe, doc *xmltree.Tree) []tuples.Tuple {
	t.Helper()
	var out []tuples.Tuple
	if err := tuples.Stream(u, doc, func(tup tuples.Tuple) bool {
		out = append(out, tup.Clone())
		return true
	}); err != nil {
		t.Fatalf("Stream: %v", err)
	}
	return out
}

// TestStreamMatchesTuplesOfSequence runs ≥1000 random (DTD, document)
// instances and checks that the backtracking enumeration yields
// exactly the tuple sequence TuplesOf materializes — position by
// position, compared by binary key. Sequence equality is strictly
// stronger than the multiset agreement the consumers need; it also
// pins witness and report ordering to the materialized behavior.
func TestStreamMatchesTuplesOfSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(20020604))
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
		u, err := paths.New(d)
		if err != nil {
			t.Fatalf("paths.New: %v", err)
		}
		want, err := tuples.TuplesOf(u, doc, 0)
		if err != nil {
			t.Fatalf("TuplesOf: %v", err)
		}
		got := collectStream(t, u, doc)
		if len(got) != len(want) {
			t.Fatalf("instance %d: Stream yielded %d tuples, TuplesOf %d\nDTD:\n%s\ndoc:\n%s",
				instances, len(got), len(want), d, doc)
		}
		var gk, wk []byte
		for i := range want {
			gk = got[i].AppendKey(gk[:0])
			wk = want[i].AppendKey(wk[:0])
			if !bytes.Equal(gk, wk) {
				t.Fatalf("instance %d: tuple %d differs\n stream %s\n  slab  %s\nDTD:\n%s\ndoc:\n%s",
					instances, i, got[i].Canonical(), want[i].Canonical(), d, doc)
			}
		}
	}
}

// TestStreamEarlyStop checks that a yield returning false stops the
// enumeration immediately instead of draining the product: the
// maximal-tuple Stream on a fixed family, then Projector.Stream and
// StreamPinned on seeded random instances, where stopping at the k-th
// yield must make exactly k calls carrying the first k tuples of the
// full sequence. Every witness short-circuit relies on this.
func TestStreamEarlyStop(t *testing.T) {
	doc, err := xmltree.ParseString(
		"<r><c><l/><l/></c><c><l/><l/></c><c><l/><l/></c></r>")
	if err != nil {
		t.Fatal(err)
	}
	u := tuples.UniverseForTree(doc)
	if n := tuples.CountTuples(doc, 0); n != 6 {
		t.Fatalf("family should have 6 tuples, has %d", n)
	}
	calls := 0
	if err := tuples.Stream(u, doc, func(tuples.Tuple) bool {
		calls++
		return calls < 2
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("yield called %d times after stopping at 2", calls)
	}

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

// TestStreamErrorsMatchTuplesOf checks that tree paths outside the
// universe are reported identically by both enumerators, before the
// first yield.
func TestStreamErrorsMatchTuplesOf(t *testing.T) {
	doc, err := xmltree.ParseString("<r><c/></r>")
	if err != nil {
		t.Fatal(err)
	}
	u := paths.ForQuery([]dtd.Path{dtd.MustParsePath("r")}) // r.c missing
	_, wantErr := tuples.TuplesOf(u, doc, 0)
	if wantErr == nil {
		t.Fatal("TuplesOf should reject a tree path outside the universe")
	}
	yields := 0
	gotErr := tuples.Stream(u, doc, func(tuples.Tuple) bool {
		yields++
		return true
	})
	if gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("Stream error %v, TuplesOf error %v", gotErr, wantErr)
	}
	if yields != 0 {
		t.Fatalf("Stream yielded %d tuples before reporting the error", yields)
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
