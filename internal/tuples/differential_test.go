package tuples_test

// Differential property test for the interned-path representation: the
// ID-indexed tuple extraction and the compiled FD checkers must answer
// exactly like a thin string-keyed reference implementation that knows
// nothing about path IDs or bitsets. The reference mirrors the paper's
// definitions over map[string]value tuples — the representation the
// package used before paths were interned.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

// refTuplesOf is the string-keyed reference for tuples_D(T): maximal
// tuples as maps from dotted path strings to rendered values (vertices
// as "#id", strings quoted — the Value.String forms). Each tuple picks
// one child per label at every node, label groups in first-occurrence
// order, exactly Definition 6.
func refTuplesOf(t *xmltree.Tree) []map[string]string {
	var enum func(n *xmltree.Node, prefix string) []map[string]string
	enum = func(n *xmltree.Node, prefix string) []map[string]string {
		base := map[string]string{prefix: fmt.Sprintf("#%d", n.ID)}
		for a, v := range n.Attrs {
			base[prefix+".@"+a] = fmt.Sprintf("%q", v)
		}
		if n.HasText {
			base[prefix+"."+dtd.TextStep] = fmt.Sprintf("%q", n.Text)
		}
		acc := []map[string]string{base}
		var order []string
		groups := map[string][]*xmltree.Node{}
		for _, c := range n.Children {
			if _, ok := groups[c.Label]; !ok {
				order = append(order, c.Label)
			}
			groups[c.Label] = append(groups[c.Label], c)
		}
		for _, label := range order {
			var sub []map[string]string
			for _, c := range groups[label] {
				sub = append(sub, enum(c, prefix+"."+label)...)
			}
			var next []map[string]string
			for _, a := range acc {
				for _, b := range sub {
					m := make(map[string]string, len(a)+len(b))
					for k, v := range a {
						m[k] = v
					}
					for k, v := range b {
						m[k] = v
					}
					next = append(next, m)
				}
			}
			acc = next
		}
		return acc
	}
	return enum(t.Root, t.Root.Label)
}

// refCanonical renders a reference tuple in Tuple.Canonical's format:
// "path=value" entries sorted by path string, joined with ';'.
func refCanonical(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + m[k]
	}
	return strings.Join(parts, ";")
}

// refSatisfies is the string-keyed reference for T ⊨ S → R under the
// Atzeni–Morfuni null semantics: no pair of maximal tuples agrees
// non-null on every LHS path while disagreeing (⊥ vs value counts as
// disagreement, ⊥ = ⊥ as agreement) on some RHS path.
func refSatisfies(tups []map[string]string, f xfd.FD) bool {
	lhs := make([]string, len(f.LHS))
	for i, p := range f.LHS {
		lhs[i] = p.String()
	}
	rhs := make([]string, len(f.RHS))
	for i, p := range f.RHS {
		rhs[i] = p.String()
	}
	for i := 0; i < len(tups); i++ {
	pair:
		for j := i + 1; j < len(tups); j++ {
			a, b := tups[i], tups[j]
			for _, l := range lhs {
				av, aok := a[l]
				bv, bok := b[l]
				if !aok || !bok || av != bv {
					continue pair
				}
			}
			for _, r := range rhs {
				av, aok := a[r]
				bv, bok := b[r]
				if aok != bok || av != bv {
					return false
				}
			}
		}
	}
	return true
}

// TestDifferentialAgainstStringReference runs ≥1000 random (DTD,
// document) instances and checks, per instance:
//
//   - ID-based extraction: TuplesOf over the DTD's interned universe
//     yields exactly the reference tuple multiset (canonical renderings
//     compared as sorted lists);
//   - FD satisfaction: for three random FDs, both the query-universe
//     path (xfd.Satisfies) and a DTD-universe compiled Checker agree
//     with the reference pairwise scan.
func TestDifferentialAgainstStringReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20020603))
	instances := 0
	for instances < 1000 {
		d := gen.RandomSimpleDTD(rng)
		doc, err := gen.Document(d, rng, 2, 3)
		if err != nil {
			t.Fatalf("gen.Document: %v", err)
		}
		if tuples.CountTuples(doc, 0) > 2000 {
			continue // keep the quadratic reference scan fast
		}
		instances++

		u, err := paths.New(d)
		if err != nil {
			t.Fatalf("paths.New: %v", err)
		}
		got, err := tuples.TuplesOf(u, doc, 0)
		if err != nil {
			t.Fatalf("TuplesOf: %v", err)
		}
		gotCanon := make([]string, len(got))
		for i, tup := range got {
			gotCanon[i] = tup.Canonical()
		}
		ref := refTuplesOf(doc)
		refCanon := make([]string, len(ref))
		for i, m := range ref {
			refCanon[i] = refCanonical(m)
		}
		sort.Strings(gotCanon)
		sort.Strings(refCanon)
		if len(gotCanon) != len(refCanon) {
			t.Fatalf("instance %d: %d tuples, reference has %d\nDTD:\n%s", instances, len(gotCanon), len(refCanon), d)
		}
		for i := range gotCanon {
			if gotCanon[i] != refCanon[i] {
				t.Fatalf("instance %d: tuple %d differs\n got %s\n ref %s\nDTD:\n%s", instances, i, gotCanon[i], refCanon[i], d)
			}
		}

		ps, err := d.Paths()
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			var f xfd.FD
			for j := 0; j < 1+rng.Intn(2); j++ {
				f.LHS = append(f.LHS, ps[rng.Intn(len(ps))])
			}
			f.RHS = []dtd.Path{ps[rng.Intn(len(ps))]}
			want := refSatisfies(ref, f)
			if got := xfd.Satisfies(doc, f); got != want {
				t.Fatalf("instance %d: Satisfies(%s) = %v, reference %v\nDTD:\n%s\ndoc:\n%s", instances, f, got, want, d, doc)
			}
			chk, err := xfd.NewCheckerSet(u, []xfd.FD{f})
			if err != nil {
				t.Fatalf("NewCheckerSet(%s): %v", f, err)
			}
			if got := chk.SatisfiesAll(doc); got != want {
				t.Fatalf("instance %d: CheckerSet.SatisfiesAll(%s) = %v, reference %v\nDTD:\n%s\ndoc:\n%s", instances, f, got, want, d, doc)
			}
		}
	}
}
