package engine

// Differential test for the interned cache keys: the ID-rendered query
// key must induce exactly the same equivalence classes as the
// historical sorted-string rendering, and the cached engine must answer
// every query exactly like the string-free direct decider.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/implication"
	"xmlnorm/internal/xfd"
)

// diffDTD builds a small random simple DTD for key/answer comparisons.
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

// canonicalQuery renders a single-RHS query as its canonical string
// key, the reference for the engine's ID keys: the LHS as a sorted,
// deduplicated path set (FD semantics is set-based, see xfd.FD.Equal),
// then the RHS path.
func canonicalQuery(q xfd.FD) string {
	lhs := make([]string, 0, len(q.LHS))
	seen := map[string]bool{}
	for _, p := range q.LHS {
		s := p.String()
		if !seen[s] {
			seen[s] = true
			lhs = append(lhs, s)
		}
	}
	sort.Strings(lhs)
	var b strings.Builder
	for _, s := range lhs {
		b.WriteString(s)
		b.WriteByte('\x1f')
	}
	b.WriteString("->")
	b.WriteString(q.RHS[0].String())
	return b.String()
}

// queryKey resolves a single-RHS query and renders the closure cache
// key the engine files its answer under.
func queryKey(t *testing.T, e *Engine, q xfd.FD) string {
	t.Helper()
	lhs, rhs, err := e.imp.Resolve(q)
	if err != nil {
		t.Fatal(err)
	}
	return string(appendKey(nil, closureSpace, lhs, rhs))
}

// TestQueryKeyMatchesStringReference: over random single-RHS queries —
// including permuted and duplicated LHS variants — the ID key and the
// canonical string key agree on equality.
func TestQueryKeyMatchesStringReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d := diffDTD(rand.New(rand.NewSource(1)))
	ps, err := d.Paths()
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(d, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	randQuery := func() xfd.FD {
		var q xfd.FD
		for j := 0; j < 1+rng.Intn(3); j++ {
			q.LHS = append(q.LHS, ps[rng.Intn(len(ps))])
		}
		q.RHS = []dtd.Path{ps[rng.Intn(len(ps))]}
		return q
	}
	qs := make([]xfd.FD, 0, 220)
	for i := 0; i < 100; i++ {
		q := randQuery()
		qs = append(qs, q)
		// A permuted-and-duplicated LHS variant: same set, so both key
		// renderings must collapse it onto q.
		perm := xfd.FD{RHS: q.RHS}
		for _, k := range rng.Perm(len(q.LHS)) {
			perm.LHS = append(perm.LHS, q.LHS[k])
		}
		perm.LHS = append(perm.LHS, q.LHS[rng.Intn(len(q.LHS))])
		qs = append(qs, perm)
	}
	for i := range qs {
		for j := range qs {
			bin := queryKey(t, e, qs[i]) == queryKey(t, e, qs[j])
			str := canonicalQuery(qs[i]) == canonicalQuery(qs[j])
			if bin != str {
				t.Fatalf("key disagreement between %s and %s: binary equal=%v, string equal=%v",
					qs[i], qs[j], bin, str)
			}
		}
	}
}

// TestCachedAnswersMatchDirectDecider: over random specs and queries,
// the engine (interned keys, cache on) answers exactly like the direct
// closure decider, and a repeated query — a guaranteed cache hit under
// the binary key — repeats the answer.
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
			cached, err := e.Implies(q)
			if err != nil {
				t.Fatalf("engine.Implies: %v", err)
			}
			again, err := e.Implies(q)
			if err != nil {
				t.Fatalf("engine.Implies (repeat): %v", err)
			}
			queries++
			if cached.Implied != direct.Implied || again.Implied != direct.Implied {
				t.Fatalf("answer disagreement on q=%s: direct=%v cached=%v repeat=%v\nΣ=%s\nDTD:\n%s",
					q, direct.Implied, cached.Implied, again.Implied, xfd.FormatSet(sigma), d)
			}
		}
		if hits := e.Stats().Hits; hits == 0 {
			t.Fatalf("spec %d: repeated queries produced no cache hits", spec)
		}
	}
	if queries < 300 {
		t.Fatalf("only %d queries compared", queries)
	}
}
