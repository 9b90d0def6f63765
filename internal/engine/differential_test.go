package engine

// Differential test: over random specs, the engine must answer every
// query exactly like the one-shot direct decider.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/implication"
	"xmlnorm/internal/xfd"
)

// diffDTD builds a small random simple DTD for answer comparisons.
func diffDTD(rng *rand.Rand) *dtd.DTD {
	mults := []string{"", "?", "+", "*"}
	var b strings.Builder
	nChildren := 1 + rng.Intn(2)
	var rootParts []string
	for c := 0; c < nChildren; c++ {
		rootParts = append(rootParts, fmt.Sprintf("c%d%s", c, mults[rng.Intn(4)]))
	}
	fmt.Fprintf(&b, "<!ELEMENT r (%s)>\n", strings.Join(rootParts, ","))
	for c := 0; c < nChildren; c++ {
		fmt.Fprintf(&b, "<!ELEMENT c%d (l%d*)>\n", c, c)
		fmt.Fprintf(&b, "<!ATTLIST c%d k CDATA #REQUIRED>\n", c)
		fmt.Fprintf(&b, "<!ELEMENT l%d EMPTY>\n", c)
		fmt.Fprintf(&b, "<!ATTLIST l%d v CDATA #REQUIRED>\n", c)
	}
	d, err := dtd.Parse(b.String())
	if err != nil {
		panic(err)
	}
	return d
}

// TestCachedAnswersMatchDirectDecider: over random specs and queries,
// the engine answers exactly like the direct closure decider, and a
// repeated query repeats the answer.
func TestCachedAnswersMatchDirectDecider(t *testing.T) {
	rng := rand.New(rand.NewSource(20020603))
	queries := 0
	for spec := 0; spec < 60; spec++ {
		d := diffDTD(rng)
		ps, err := d.Paths()
		if err != nil {
			t.Fatal(err)
		}
		var sigma []xfd.FD
		for i := 0; i < rng.Intn(3); i++ {
			var f xfd.FD
			f.LHS = []dtd.Path{ps[rng.Intn(len(ps))]}
			f.RHS = []dtd.Path{ps[rng.Intn(len(ps))]}
			sigma = append(sigma, f)
		}
		e, err := New(d, sigma, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 5; qi++ {
			var q xfd.FD
			q.LHS = []dtd.Path{ps[rng.Intn(len(ps))]}
			if rng.Intn(3) == 0 {
				q.LHS = append(q.LHS, ps[rng.Intn(len(ps))])
			}
			q.RHS = []dtd.Path{ps[rng.Intn(len(ps))]}
			direct, err := implication.Implies(d, sigma, q)
			if err != nil {
				t.Fatalf("Implies: %v", err)
			}
			first, err := e.Implies(q)
			if err != nil {
				t.Fatalf("engine.Implies: %v", err)
			}
			again, err := e.Implies(q)
			if err != nil {
				t.Fatalf("engine.Implies (repeat): %v", err)
			}
			queries++
			if first.Implied != direct.Implied || again.Implied != direct.Implied {
				t.Fatalf("answer disagreement on q=%s: direct=%v engine=%v repeat=%v\nΣ=%s\nDTD:\n%s",
					q, direct.Implied, first.Implied, again.Implied, xfd.FormatSet(sigma), d)
			}
		}
	}
	if queries < 300 {
		t.Fatalf("only %d queries compared", queries)
	}
}
