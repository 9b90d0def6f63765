package implication

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

// bomDTD is a recursive part hierarchy (recursion below a non-root
// type, per Definition 1's root assumption).
func bomDTD(t *testing.T) *dtd.DTD {
	t.Helper()
	d := dtd.MustParse(`
<!ELEMENT bom (part*)>
<!ELEMENT part (part*)>
<!ATTLIST part
    pid CDATA #REQUIRED
    supplier CDATA #REQUIRED>`)
	if !d.IsRecursive() {
		t.Fatal("fixture must be recursive")
	}
	return d
}

func TestImpliesBoundedRecursive(t *testing.T) {
	d := bomDTD(t)
	sigma := []xfd.FD{
		// pid keys the top-level parts.
		xfd.MustParse("bom.part.@pid -> bom.part"),
	}
	// The key propagates: pid determines the top-level supplier.
	ans, err := ImpliesBounded(d, sigma,
		xfd.MustParse("bom.part.@pid -> bom.part.@supplier"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Implied {
		t.Error("top-level key should determine the supplier")
	}
	// But not the second level: two sub-parts of different parents can
	// share a pid with different suppliers.
	ans, err = ImpliesBounded(d, sigma,
		xfd.MustParse("bom.part.part.@pid -> bom.part.part.@supplier"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Implied {
		t.Error("second-level pids are unconstrained")
	}
	if ans.Counterexample == nil || !ans.Verified {
		t.Fatal("refutation must be verified")
	}
	// The counterexample really is a conforming recursive document.
	if err := xmltree.ConformsUnordered(ans.Counterexample, d); err != nil {
		t.Errorf("counterexample does not conform: %v", err)
	}

	// Trivial structure works across the recursion: a part determines
	// its own attributes at any unfolded depth.
	ans, err = ImpliesBounded(d, nil,
		xfd.MustParse("bom.part.part.part -> bom.part.part.part.@pid"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Implied {
		t.Error("attributes are total at every depth")
	}
	// Prefix triviality too.
	ans, err = ImpliesBounded(d, nil,
		xfd.MustParse("bom.part.part -> bom.part"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Implied {
		t.Error("prefixes are determined")
	}
}

func TestImpliesBoundedDepthGuard(t *testing.T) {
	d := bomDTD(t)
	q := xfd.MustParse("bom.part.part.@pid -> bom.part.part.@supplier")
	if _, err := ImpliesBounded(d, nil, q, 2); err == nil {
		t.Error("bound shallower than the query should error")
	}
}

// TestImpliesBoundedAgreesOnNonRecursive: on a non-recursive DTD the
// bounded unfolding at the DTD's depth (its deepest path's steps, or
// its deepest element path's, the tightest complete bound) or above it
// is the whole unfolding, which buildSkeleton(d, 0) interns by
// paths.New: the same paths in the same pre-order, with the same
// parents, children, multiplicities and disjunction groups, compared
// by rendering. The bounded decider, at the DTD's depth and at a bound
// above it (at least 8), answers as the exact one does, counterexample
// documents byte for byte: on the fixed DTD for every single-path pair,
// elsewhere for 40 sampled queries of one or two LHS paths. The DTDs
// are a fixed one, seeded random specs with disjunctions, seeded
// random simple DTDs and the chain family at depths 1–18.
func TestImpliesBoundedAgreesOnNonRecursive(t *testing.T) {
	type spec struct {
		d     *dtd.DTD
		sigma []xfd.FD
	}
	specs := []spec{{dtd.MustParse(`
<!ELEMENT r (a+, b*)>
<!ELEMENT a EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ELEMENT b EMPTY>
<!ATTLIST b y CDATA #REQUIRED>`), []xfd.FD{xfd.MustParse("r.a.@x -> r.b.@y")}}}
	rng := rand.New(rand.NewSource(20021026))
	for i := 0; i < 100; i++ {
		d, sigma, _ := randomSpec(rng)
		specs = append(specs, spec{d, sigma})
	}
	for i := 0; i < 40; i++ {
		d := gen.RandomSimpleDTD(rng)
		ps, err := d.Paths()
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec{d, randomSigma(rng, ps, rng.Intn(4))})
	}
	for depth := 1; depth <= 18; depth++ {
		specs = append(specs, spec{gen.ChainDTD(depth, 2), gen.ChainFDs(depth, 2)})
	}
	qrng := rand.New(rand.NewSource(1938))
	groups, queries, refuted := 0, 0, 0
	for si, sp := range specs {
		ps, err := sp.d.Paths()
		if err != nil {
			t.Fatal(err)
		}
		depth, elemDepth := 0, 0
		for _, p := range ps {
			depth = max(depth, len(p))
			if p.IsElem() {
				elemDepth = max(elemDepth, len(p))
			}
		}
		exact, err := buildSkeleton(sp.d, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := renderSkeleton(exact)
		groups += len(exact.groups)
		above := max(8, depth+2)
		for _, bound := range []int{elemDepth, depth, above} {
			bounded, err := buildSkeleton(sp.d, bound)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderSkeleton(bounded); got != want {
				t.Fatalf("spec %d:\n%sbuildSkeleton(d, %d):\n%s\nbuildSkeleton(d, 0):\n%s", si, sp.d, bound, got, want)
			}
		}
		var qs []xfd.FD
		if si == 0 {
			for _, l := range ps {
				for _, r := range ps {
					qs = append(qs, xfd.FD{LHS: []dtd.Path{l}, RHS: []dtd.Path{r}})
				}
			}
		} else {
			for k := 0; k < 40; k++ {
				q := xfd.FD{RHS: []dtd.Path{ps[qrng.Intn(len(ps))]}}
				for j := 0; j < 1+qrng.Intn(2); j++ {
					q.LHS = append(q.LHS, ps[qrng.Intn(len(ps))])
				}
				qs = append(qs, q)
			}
		}
		for _, q := range qs {
			want, err := Implies(sp.d, sp.sigma, q)
			if err != nil {
				t.Fatal(err)
			}
			queries++
			if !want.Implied {
				refuted++
			}
			for _, bound := range []int{depth, above} {
				got, err := ImpliesBounded(sp.d, sp.sigma, q, bound)
				if err != nil {
					t.Fatal(err)
				}
				if got.Implied != want.Implied {
					t.Fatalf("spec %d:\n%sΣ = %s\n%s at bound %d: exact=%v bounded=%v", si, sp.d, xfd.FormatSet(sp.sigma), q, bound, want.Implied, got.Implied)
				}
				if !want.Implied && got.Counterexample.String() != want.Counterexample.String() {
					t.Fatalf("spec %d: %s at bound %d: bounded counterexample\n%s\nexact\n%s", si, q, bound, got.Counterexample, want.Counterexample)
				}
			}
		}
	}
	t.Logf("%d specs (%d disjunction groups), %d queries, %d refuted", len(specs), groups, queries, refuted)
}

// renderSkeleton prints a skeleton in its pre-order, one path per line
// with its parent, depth, kind, multiplicity, group and children, then
// its disjunction groups, all by path name, so skeletons over
// different universes compare as text.
func renderSkeleton(sk *skeleton) string {
	name := func(id paths.ID) string {
		if id == paths.None {
			return "-"
		}
		return sk.u.StringOf(id)
	}
	var b strings.Builder
	for _, id := range sk.order {
		n := sk.nodes[id]
		fmt.Fprintf(&b, "%s parent=%s depth=%d elem=%v mult=%q group=%d kids=[", name(id), name(n.parent), n.depth, n.elem, n.mult, n.group)
		for _, k := range n.kids {
			b.WriteString(" " + name(k))
		}
		b.WriteString(" ]\n")
	}
	for gi, g := range sk.groups {
		fmt.Fprintf(&b, "group %d at %s nullable=%v members=[", gi, name(g.parent), g.nullable)
		for _, m := range g.members {
			b.WriteString(" " + name(m))
		}
		b.WriteString(" ]\n")
	}
	return b.String()
}

// TestBoundedRelativeKeysRecursive: relative keys at two unfolded
// levels chain like in the chain-DTD tests.
func TestBoundedRelativeKeysRecursive(t *testing.T) {
	d := bomDTD(t)
	sigma := []xfd.FD{
		xfd.MustParse("bom.part.@pid -> bom.part"),
		xfd.MustParse("bom.part, bom.part.part.@pid -> bom.part.part"),
	}
	// Top pid + sub pid pin the sub-part, hence its supplier.
	ans, err := ImpliesBounded(d, sigma,
		xfd.MustParse("bom.part.@pid, bom.part.part.@pid -> bom.part.part.@supplier"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Implied {
		t.Error("chained relative keys should determine the sub-part supplier")
	}
	// The sub pid alone still does not.
	ans, err = ImpliesBounded(d, sigma,
		xfd.MustParse("bom.part.part.@pid -> bom.part.part.@supplier"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Implied {
		t.Error("sub pid alone is relative, not absolute")
	}
}
