package xfd_test

// Differential suite for fragment-local checking: folding the
// fragments of SplitFragments into FoldStates and merging them — in
// any association order, with a serialization round trip in the middle
// — must reproduce the whole-document verdict FD for FD, and the
// witness report re-derived from the merged verdict must be
// bit-identical to CheckerSet.Violations. Run under -race in CI:
// fragments share the original tree's nodes, so the parallel fold is
// also a concurrency test.

import (
	"bytes"
	"context"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/paperdata"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/pool"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

// violatedIndices extracts the Σ indices of a Violations report.
func violatedIndices(cs *xfd.CheckerSet, report []xfd.Violated) []int {
	var out []int
	for i := 0; i < cs.Len(); i++ {
		for _, v := range report {
			if v.FD.Equal(cs.FDAt(i)) {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// violatedOf lists a fold state's ViolatedSet in Σ order.
func violatedOf(cs *xfd.CheckerSet, st *xfd.FoldState) []int {
	bad := st.ViolatedSet()
	var out []int
	for i := 0; i < cs.Len(); i++ {
		if bad[i] {
			out = append(out, i)
		}
	}
	return out
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mergeAll merges the states pairwise in a random association order
// (a binary tree shaped by rng), exercising associativity and
// commutativity beyond the plain left fold.
func mergeAll(t *testing.T, states []*xfd.FoldState, rng *rand.Rand) *xfd.FoldState {
	t.Helper()
	for len(states) > 1 {
		i := rng.Intn(len(states) - 1)
		if err := states[i].Merge(states[i+1]); err != nil {
			t.Fatalf("Merge: %v", err)
		}
		states = append(states[:i+1], states[i+2:]...)
	}
	return states[0]
}

// TestFoldStateDifferential runs ≥1000 random (DTD, document, σ)
// instances and checks, per instance and for several fragment counts:
//
//   - a FoldState folded from the whole document reports exactly the
//     violated indices of CheckerSet.Violations;
//   - folding each SplitFragments fragment independently (in parallel,
//     over the worker pool) and merging — left fold and random
//     association order — reproduces that verdict;
//   - a MarshalBinary/UnmarshalFoldState round trip of every fragment
//     state before merging changes nothing;
//   - folding each fragment from a serialize/reparse round trip of its
//     tree — fresh vertex IDs, as a remote worker would mint — merges
//     to a state whose canonical encoding is bit-identical to the
//     whole-document fold's (the portable-addressing contract; the
//     random σ draws element-valued sides regularly);
//   - WitnessReport over the merged verdict is bit-identical to the
//     sequential Violations report.
func TestFoldStateDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20020808))
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
		all, err := d.Paths()
		if err != nil {
			t.Fatal(err)
		}
		sigma := make([]xfd.FD, 3)
		for k := range sigma {
			var f xfd.FD
			for j := 0; j < 1+rng.Intn(2); j++ {
				f.LHS = append(f.LHS, all[rng.Intn(len(all))])
			}
			f.RHS = []dtd.Path{all[rng.Intn(len(all))]}
			sigma[k] = f
		}
		cs, err := xfd.NewCheckerSet(u, sigma)
		if err != nil {
			t.Fatalf("NewCheckerSet: %v", err)
		}
		seq := cs.Violations(doc)
		want := violatedIndices(cs, seq)

		whole := cs.NewFoldState()
		if err := whole.FoldFragment(context.Background(), xfd.Fragment{Tree: doc}); err != nil {
			t.Fatal(err)
		}
		if got := violatedOf(cs, whole); !sameInts(got, want) {
			t.Fatalf("instance %d: whole-document fold violated %v, Violations %v\nDTD:\n%s\ndoc:\n%s",
				instances, got, want, d, doc)
		}
		wholeBytes, err := whole.MarshalBinary()
		if err != nil {
			t.Fatalf("MarshalBinary: %v", err)
		}

		for _, k := range []int{1, 2, 3, 7} {
			frags := cs.SplitFragments(doc, k)
			states := make([]*xfd.FoldState, len(frags))
			remote := make([]*xfd.FoldState, len(frags))
			if err := pool.ForEach(4, len(frags), func(i int) error {
				states[i] = cs.NewFoldState()
				if err := states[i].FoldFragment(context.Background(), frags[i]); err != nil {
					return err
				}
				// The cross-process leg: re-fold the fragment from a
				// serialize/reparse round trip, which mints fresh
				// vertex IDs exactly like a worker process would.
				reparsed, err := xmltree.ParseString(frags[i].Tree.String())
				if err != nil {
					return err
				}
				remote[i] = cs.NewFoldState()
				return remote[i].FoldFragment(context.Background(), xfd.Fragment{Tree: reparsed, Label: frags[i].Label, Start: frags[i].Start})
			}); err != nil {
				t.Fatal(err)
			}
			// Serialization round trip for every fragment state.
			for i, st := range states {
				data, err := st.MarshalBinary()
				if err != nil {
					t.Fatalf("MarshalBinary: %v", err)
				}
				if states[i], err = cs.UnmarshalFoldState(data); err != nil {
					t.Fatalf("UnmarshalFoldState: %v", err)
				}
			}
			merged := mergeAll(t, states, rng)
			if got := violatedOf(cs, merged); !sameInts(got, want) {
				t.Fatalf("instance %d: %d fragments merged violated %v, want %v\nDTD:\n%s\ndoc:\n%s",
					instances, len(frags), got, want, d, doc)
			}
			if got := len(merged.ViolatedSet()) == 0; got != (len(want) == 0) {
				t.Fatalf("instance %d: merged Satisfied = %v, want %v", instances, got, len(want) == 0)
			}
			sameReports(t, seq, cs.WitnessReport(doc, merged.ViolatedSet()), "fragment-merged report")

			remoteMerged := mergeAll(t, remote, rng)
			remoteBytes, err := remoteMerged.MarshalBinary()
			if err != nil {
				t.Fatalf("MarshalBinary: %v", err)
			}
			if string(remoteBytes) != string(wholeBytes) {
				t.Fatalf("instance %d: k=%d reparsed-fragment merge is not bit-identical to the whole-document fold\nDTD:\n%s\ndoc:\n%s",
					instances, k, d, doc)
			}
		}
	}
}

// FuzzFragmentMerge holds the fragment boundary — SplitFragments, a
// fold per fragment, the wire round trip, Merge — to the
// whole-document check on arbitrary documents: for every input
// xmltree.Parse accepts, at a fuzzed fragment count and a fuzzed
// association order, the merged violated set must equal that of
// Violations, and WitnessReport on it must render the same canonical
// report. Σ has an element-valued side (r.c, keyed by positional
// address across fragments) and, like FuzzCheckReader's, a cluster
// that branches at r (a, b) and at a (t, d, e).
func FuzzFragmentMerge(f *testing.F) {
	cs, err := xfd.NewCheckerSetFor([]xfd.FD{
		xfd.MustParse("r.c.@k -> r.c.@v"),
		xfd.MustParse("r.c.@k -> r.c"),
		xfd.MustParse("r.a.@x, r.b.@y -> r.a.t.S"),
		xfd.MustParse("r.a.d.@p, r.a.e.@q -> r.a.@x"),
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []string{
		`<r><c k="1" v="a"/><c k="2" v="b"/><c k="1" v="a"/></r>`,
		`<r><c k="1" v="a"/><o/><c k="1" v="b"/><c k="3"/></r>`,
		`<r><c k="1"/><c k="1"/><c/></r>`,
		`<r><a x="1"><t>u</t><d p="1"/><e q="1"/></a><b y="p"/><a x="2"><t>v</t><d p="1"/><e q="1"/><d p="2"/></a><b y="q"/></r>`,
		`<r><a x="1"><t>u</t></a><a x="1"><t>w</t></a><b y="p"/><b y="p"/><c k="1"/></r>`,
		`<r/>`,
	} {
		f.Add([]byte(s), uint8(2), uint64(1))
		f.Add([]byte(s), uint8(3), uint64(7))
	}
	f.Fuzz(func(t *testing.T, data []byte, k uint8, order uint64) {
		doc, err := xmltree.Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		frags := cs.SplitFragments(doc, int(k))
		states := make([]*xfd.FoldState, len(frags))
		for i, fr := range frags {
			st := cs.NewFoldState()
			if err := st.FoldFragment(context.Background(), fr); err != nil {
				t.Fatal(err)
			}
			blob, err := st.MarshalBinary()
			if err != nil {
				t.Fatalf("MarshalBinary: %v", err)
			}
			if states[i], err = cs.UnmarshalFoldState(blob); err != nil {
				t.Fatalf("UnmarshalFoldState of a marshaled state: %v", err)
			}
		}
		merged := mergeAll(t, states, rand.New(rand.NewSource(int64(order))))
		want := cs.Violations(doc)
		if got, w := violatedOf(cs, merged), violatedIndices(cs, want); !sameInts(got, w) {
			t.Fatalf("%d fragments merged violated %v, Violations %v\ninput: %q", len(frags), got, w, data)
		}
		if got, w := xfd.CanonicalReport(cs.WitnessReport(doc, merged.ViolatedSet())), xfd.CanonicalReport(want); got != w {
			t.Fatalf("reports differ\nmerged:\n%s\nViolations:\n%s\ninput: %q", got, w, data)
		}
	})
}

// TestSplitFragmentsPartition pins the structural contract: the chosen
// sibling group's children are dealt to the fragments exactly once in
// document order, each fragment carries the split label and the global
// starting ordinal of its run, every other child rides along in each
// fragment, and all fragment roots share the original root's vertex
// ID.
func TestSplitFragmentsPartition(t *testing.T) {
	doc, err := xmltree.ParseString(
		"<r><c k=\"1\"/><c k=\"2\"/><c k=\"3\"/><c k=\"4\"/><c k=\"5\"/><o/><o/></r>")
	if err != nil {
		t.Fatal(err)
	}
	sigma := []xfd.FD{xfd.New([]string{"r.c.@k"}, []string{"r.c"})}
	cs, err := xfd.NewCheckerSetFor(sigma)
	if err != nil {
		t.Fatal(err)
	}
	frags := cs.SplitFragments(doc, 3)
	if len(frags) != 3 {
		t.Fatalf("got %d fragments, want 3", len(frags))
	}
	var seen []string
	for _, f := range frags {
		if f.Tree.Root.ID != doc.Root.ID {
			t.Fatalf("fragment root ID %d, want the original %d", f.Tree.Root.ID, doc.Root.ID)
		}
		if f.Label != "c" {
			t.Fatalf("fragment split label %q, want \"c\"", f.Label)
		}
		if f.Start != len(seen) {
			t.Fatalf("fragment starting ordinal %d, want %d", f.Start, len(seen))
		}
		others := 0
		for _, c := range f.Tree.Root.Children {
			switch c.Label {
			case "c":
				seen = append(seen, c.Attrs["k"])
			case "o":
				others++
			}
		}
		if others != 2 {
			t.Fatalf("fragment carries %d 'o' children, want all 2", others)
		}
	}
	if got := strings.Join(seen, ""); got != "12345" {
		t.Fatalf("fragments cover the c group as %q, want \"12345\"", got)
	}

	// More fragments than children caps at one child per fragment.
	if got := len(cs.SplitFragments(doc, 99)); got != 5 {
		t.Fatalf("k=99 gives %d fragments, want 5", got)
	}
	// k < 2 and documents with nothing splittable return the whole
	// document as the single offset-free fragment.
	if got := cs.SplitFragments(doc, 1); len(got) != 1 || got[0].Tree != doc || got[0].Label != "" || got[0].Start != 0 {
		t.Fatalf("k=1 must return the document itself as the whole fragment")
	}
	single, err := xmltree.ParseString("<r><c k=\"1\"/></r>")
	if err != nil {
		t.Fatal(err)
	}
	if got := cs.SplitFragments(single, 4); len(got) != 1 || got[0].Tree != single {
		t.Fatalf("a one-child group must not split")
	}
	foreign, err := xmltree.ParseString("<z><c/><c/></z>")
	if err != nil {
		t.Fatal(err)
	}
	if got := cs.SplitFragments(foreign, 4); len(got) != 1 || got[0].Tree != foreign {
		t.Fatalf("a foreign root label must not split")
	}
}

// TestFoldStateErrors pins the failure contracts: merging states of
// different checker sets fails, and corrupt, mismatched or
// non-canonical encodings are rejected with errors rather than
// silently misfolding.
func TestFoldStateErrors(t *testing.T) {
	csA, err := xfd.NewCheckerSetFor([]xfd.FD{xfd.New([]string{"r.c.@k"}, []string{"r.c"})})
	if err != nil {
		t.Fatal(err)
	}
	csB, err := xfd.NewCheckerSetFor([]xfd.FD{
		xfd.New([]string{"r.c.@k"}, []string{"r.c"}),
		xfd.New([]string{"r.c"}, []string{"r.c.@k"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := csA.NewFoldState().Merge(csB.NewFoldState()); err == nil {
		t.Fatal("merging states of different checker sets must fail")
	}
	data, err := csB.NewFoldState().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := csA.UnmarshalFoldState(data); err == nil {
		t.Fatal("unmarshaling a two-FD state into a one-FD set must fail")
	}
	if _, err := csA.UnmarshalFoldState([]byte("bogus")); err == nil {
		t.Fatal("bad magic must fail")
	}
	if _, err := csA.UnmarshalFoldState(data[:len(data)-1]); err == nil {
		t.Fatal("truncated input must fail")
	}
	doc, err := xmltree.ParseString("<r><c k=\"1\"/><c k=\"2\"/></r>")
	if err != nil {
		t.Fatal(err)
	}
	st := csA.NewFoldState()
	if err := st.FoldFragment(context.Background(), xfd.Fragment{Tree: doc}); err != nil {
		t.Fatal(err)
	}
	good, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := csA.UnmarshalFoldState(append(good, 0)); err == nil {
		t.Fatal("trailing bytes must fail")
	}
	// One FD, not violated, two groups that share LHS key k1 with RHS
	// keys va and vb: a conflict a decoder keeping either pair would
	// read as satisfied. MarshalBinary writes LHS keys strictly
	// ascending, so repeated or descending keys are not canonical.
	for _, blob := range []string{
		"xnfFS1\x00\x01\x00\x02\x02k1\x02va\x02k1\x02vb",
		"xnfFS1\x00\x01\x00\x02\x02k2\x02va\x02k1\x02va",
	} {
		if _, err := csA.UnmarshalFoldState([]byte(blob)); err == nil || !strings.Contains(err.Error(), "not canonical") {
			t.Fatalf("UnmarshalFoldState(%q) = %v, want a not-canonical error", blob, err)
		}
	}
	back, err := csA.UnmarshalFoldState(good)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if len(back.ViolatedSet()) != 0 {
		t.Fatal("round-tripped satisfied state must stay satisfied")
	}
}

// TestShardedCheckAllocs bounds what an in-process sharded check
// allocates on a satisfied 256-course, 8-student University document
// under the courses spec's Σ. The fragments share the document's nodes
// and their fold states never leave the process, so each folds keyed
// by vertex ID; building a positional address for every node of every
// fragment, as a shipped state needs, about triples the count. The
// group tables allocate nothing per group, so the ceiling also fails a
// fold that allocates per group again: the document's 2,048 FD2 groups
// alone would cost two key strings each.
func TestShardedCheckAllocs(t *testing.T) {
	_, fds, _ := strings.Cut(paperdata.MustRead("courses.spec"), "%%\n")
	sigma, err := xfd.ParseSet(fds)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := xfd.NewCheckerSetFor(sigma)
	if err != nil {
		t.Fatal(err)
	}
	doc := gen.University(256, 8, 512, 200, rand.New(rand.NewSource(1)))
	ctx := context.Background()
	allocs := testing.AllocsPerRun(5, func() {
		vs, err := cs.ViolationsShardedCtx(ctx, doc, 2)
		if err != nil || vs != nil {
			t.Fatalf("sharded check: %d violations, error %v; want a satisfied document", len(vs), err)
		}
	})
	t.Logf("%.0f allocs per sharded check", allocs)
	if allocs > 1000 {
		t.Errorf("sharded check allocates %.0f objects, want <= 1000", allocs)
	}
}

// TestFoldStateWireGolden pins MarshalBinary's bytes: coordinators and
// workers built from different revisions exchange these states, so a
// change to the fold's storage must not change what it ships. Σ has a
// string-valued FD with groups met out of key order, an FD whose LHS
// is element-valued (positional addresses) with a text RHS that one
// member lacks, and an FD the document violates; the states are the
// whole document's and the second fragment's of a two-way split, whose
// addresses carry its starting ordinal.
func TestFoldStateWireGolden(t *testing.T) {
	cs, err := xfd.NewCheckerSetFor([]xfd.FD{
		xfd.MustParse("r.c.@k -> r.c.@v"),
		xfd.MustParse("r.c -> r.c.t.S"),
		xfd.MustParse("r.c.@v -> r.c.@k"),
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.ParseString(`<r><c k="2" v="a"><t>x</t></c><c k="1" v="b"><t>y</t></c><c k="2" v="a"/><c k="3" v="a"><t>z</t></c></r>`)
	if err != nil {
		t.Fatal(err)
	}
	frags := cs.SplitFragments(doc, 2)
	if len(frags) != 2 || frags[1].Start != 2 {
		t.Fatalf("split into %d fragments, want 2 with the second starting at ordinal 2", len(frags))
	}
	for _, c := range []struct {
		name string
		frag xfd.Fragment
		want string
	}{
		{"whole document", xfd.Fragment{Tree: doc},
			"786e6646533100030003030201310302016203020132030201610302013303020161000403010100030201780301010103020179030101020100030101030302017a01"},
		{"second fragment", frags[1],
			"786e6646533100030002030201320302016103020133030201610002030101020100030101030302017a01"},
	} {
		st := cs.NewFoldState()
		if err := st.FoldFragment(context.Background(), c.frag); err != nil {
			t.Fatal(err)
		}
		blob, err := st.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(blob); got != c.want {
			t.Errorf("%s: MarshalBinary =\n%s\nwant\n%s", c.name, got, c.want)
		}
	}
}
