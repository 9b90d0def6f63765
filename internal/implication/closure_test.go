package implication

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/xfd"
)

// randomSpec builds a small random DTD with simple content models and an
// optional disjunction, plus a random FD set. The shapes are kept tiny
// so the brute-force ground truth stays within bounds.
func randomSpec(rng *rand.Rand) (*dtd.DTD, []xfd.FD, bool) {
	mults := []string{"", "?", "+", "*"}
	var b strings.Builder
	// Root with one or two children; children with up to two leaves.
	nChildren := 1 + rng.Intn(2)
	nLeaves := 1 + rng.Intn(2)
	useDisj := rng.Intn(4) == 0

	var rootParts []string
	for c := 0; c < nChildren; c++ {
		rootParts = append(rootParts, fmt.Sprintf("c%d%s", c, mults[rng.Intn(4)]))
	}
	fmt.Fprintf(&b, "<!ELEMENT r (%s)>\n", strings.Join(rootParts, ","))
	for c := 0; c < nChildren; c++ {
		var leafParts []string
		if useDisj && c == 0 && nLeaves == 2 {
			opt := ""
			if rng.Intn(2) == 0 {
				opt = "?" // nullable disjunction group
			}
			leafParts = append(leafParts, fmt.Sprintf("(l%d0|l%d1)%s", c, c, opt))
		} else {
			for l := 0; l < nLeaves; l++ {
				leafParts = append(leafParts, fmt.Sprintf("l%d%d%s", c, l, mults[rng.Intn(4)]))
			}
		}
		fmt.Fprintf(&b, "<!ELEMENT c%d (%s)>\n", c, strings.Join(leafParts, ","))
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&b, "<!ATTLIST c%d k CDATA #REQUIRED>\n", c)
		}
		for l := 0; l < nLeaves; l++ {
			fmt.Fprintf(&b, "<!ELEMENT l%d%d EMPTY>\n", c, l)
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&b, "<!ATTLIST l%d%d v CDATA #REQUIRED>\n", c, l)
			}
		}
	}
	d, err := dtd.Parse(b.String())
	if err != nil {
		panic(err)
	}
	paths, err := d.Paths()
	if err != nil {
		panic(err)
	}
	// Random Σ: up to two FDs over random paths.
	var sigma []xfd.FD
	for i := 0; i < rng.Intn(3); i++ {
		nl := 1 + rng.Intn(2)
		var f xfd.FD
		for j := 0; j < nl; j++ {
			f.LHS = append(f.LHS, paths[rng.Intn(len(paths))])
		}
		f.RHS = []dtd.Path{paths[rng.Intn(len(paths))]}
		sigma = append(sigma, f)
	}
	return d, sigma, useDisj
}

// TestRandomCrossValidation compares the closure decider against the
// brute-force semantic checker on hundreds of random (DTD, Σ, query)
// triples. Any disagreement is a bug in the closure rules (if the brute
// force found a counterexample) or evidence of a spurious scenario (the
// closure must certify its refutations, so those cannot disagree
// silently).
func TestRandomCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation is slow")
	}
	rng := rand.New(rand.NewSource(20020603)) // PODS 2002 started June 3
	specs, queriesRun, skipped := 0, 0, 0
	for specs < 120 {
		d, sigma, _ := randomSpec(rng)
		paths, _ := d.Paths()
		if len(paths) > 12 {
			continue
		}
		specs++
		for qi := 0; qi < 6; qi++ {
			var q xfd.FD
			q.LHS = []dtd.Path{paths[rng.Intn(len(paths))]}
			if rng.Intn(3) == 0 {
				q.LHS = append(q.LHS, paths[rng.Intn(len(paths))])
			}
			q.RHS = []dtd.Path{paths[rng.Intn(len(paths))]}
			fast, err := Implies(d, sigma, q)
			if err != nil {
				t.Fatalf("Implies error on\n%s\nΣ=%v q=%s: %v", d, sigma, q, err)
			}
			slow, err := BruteForce(d, sigma, q, Bounds{MaxValuePositions: 8, MaxTrees: 120000})
			if errors.Is(err, ErrBoundsExceeded) {
				skipped++
				continue
			}
			if err != nil {
				t.Fatalf("BruteForce error: %v", err)
			}
			queriesRun++
			if fast.Implied != slow.Implied {
				t.Errorf("disagreement on\n%sΣ = %s\nq = %s\nclosure = %v, brute force = %v",
					d, xfd.FormatSet(sigma), q, fast.Implied, slow.Implied)
				if slow.Counterexample != nil {
					t.Logf("brute-force counterexample:\n%s", slow.Counterexample)
				}
			}
			if !fast.Implied && !fast.Verified {
				t.Errorf("unverified refutation for %s on\n%s", q, d)
			}
		}
	}
	t.Logf("%d specs, %d queries cross-validated, %d skipped for bounds", specs, queriesRun, skipped)
	if queriesRun < 300 {
		t.Errorf("only %d queries were actually compared; generator or bounds too tight", queriesRun)
	}
}

// TestClosureIdempotent: re-running a query gives the same answer
// (guards against state leakage in the engine).
func TestClosureIdempotent(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT r (a+, b*)>
<!ELEMENT a EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ELEMENT b EMPTY>
<!ATTLIST b y CDATA #REQUIRED>`)
	sigma := []xfd.FD{xfd.MustParse("r.a.@x -> r.b.@y")}
	eng, err := NewEngine(d, sigma)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		a1, err := eng.Implies(xfd.MustParse("r -> r.b.@y"))
		if err != nil || !a1.Implied {
			t.Fatalf("run %d: %+v %v", i, a1, err)
		}
		a2, err := eng.Implies(xfd.MustParse("r -> r.a.@x"))
		if err != nil || a2.Implied {
			t.Fatalf("run %d: %+v %v", i, a2, err)
		}
	}
}

// runParentsFirst is the closure loop run replaced, kept as the oracle
// for run's sweep order: every round visits the nodes parents-first
// only, so R1 and R5 climb one level per round. It returns the rounds
// it completed and whether the assignment is feasible.
func (s *state) runParentsFirst() (rounds int, feasible bool) {
	for changed := true; changed && !s.infeasible; rounds++ {
		changed = false
		s.computeMaxOk()
		for _, id := range s.sk.order {
			if s.visit(id) {
				changed = true
			}
			if s.infeasible {
				return rounds, false
			}
		}
		if s.fireSigma() {
			changed = true
		}
	}
	return rounds, !s.infeasible
}

// randomSigma draws n FDs with one or two LHS paths and one RHS path.
func randomSigma(rng *rand.Rand, ps []dtd.Path, n int) []xfd.FD {
	sigma := make([]xfd.FD, n)
	for i := range sigma {
		for j := 0; j < 1+rng.Intn(2); j++ {
			sigma[i].LHS = append(sigma[i].LHS, ps[rng.Intn(len(ps))])
		}
		sigma[i].RHS = []dtd.Path{ps[rng.Intn(len(ps))]}
	}
	return sigma
}

// TestRunMatchesParentsFirst is the differential oracle for run's
// two-way sweeps: over 500+ seeded (spec, query) pairs — shallow
// random specs with disjunction groups, random simple DTDs with random
// Σ, and the chain family at depths 2–18 — every branch assignment
// must close to the same feasibility as the parents-first loop, to the
// same eq, nn1 and nn2 state when feasible, and in no more rounds. The
// state under test is reset for each assignment of a pair, as a query
// reuses it; the reference state is fresh each time.
func TestRunMatchesParentsFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(20020604))
	type spec struct {
		d     *dtd.DTD
		sigma []xfd.FD
	}
	var specs []spec
	for i := 0; i < 200; i++ {
		d, sigma, _ := randomSpec(rng)
		specs = append(specs, spec{d, sigma})
	}
	for i := 0; i < 200; i++ {
		d := gen.RandomSimpleDTD(rng)
		ps, err := d.Paths()
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec{d, randomSigma(rng, ps, rng.Intn(4))})
	}
	for depth := 2; depth <= 18; depth++ {
		for i := 0; i < 8; i++ {
			specs = append(specs, spec{gen.ChainDTD(depth, 2), gen.ChainFDs(depth, 2)})
		}
	}
	pairs, runs, newRounds, refRounds := 0, 0, 0, 0
	for si, sp := range specs {
		sk, err := buildSkeleton(sp.d, 0)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := compileFDs(sk, sp.sigma)
		if err != nil {
			t.Fatal(err)
		}
		hyp := sk.u.NewSet()
		for j := 0; j < 1+rng.Intn(2); j++ {
			hyp.Add(paths.ID(rng.Intn(len(sk.nodes))))
		}
		goal := paths.ID(rng.Intn(len(sk.nodes)))
		pairs++
		got := newState(sk, compiled) // reset for every assignment, as a query does
		for ai, asg := range enumerateAssignments(sk) {
			got.reset(asg, hyp, goal)
			want := newState(sk, compiled)
			want.reset(asg, hyp, goal)
			where := fmt.Sprintf("spec %d, assignment %d:\n%sΣ = %s\nhyp %v goal %d", si, ai, sp.d, xfd.FormatSet(sp.sigma), hyp.IDs(), goal)
			if got.infeasible != want.infeasible {
				t.Fatalf("%s: infeasible after reset = %v, fresh state %v", where, got.infeasible, want.infeasible)
			}
			if got.infeasible {
				continue
			}
			runs++
			feasible := got.run()
			rounds, wantFeasible := want.runParentsFirst()
			newRounds += got.rounds
			refRounds += rounds
			if feasible != wantFeasible {
				t.Fatalf("%s: feasible = %v, parents-first %v", where, feasible, wantFeasible)
			}
			if got.rounds > rounds {
				t.Fatalf("%s: %d rounds, parents-first %d", where, got.rounds, rounds)
			}
			if !feasible {
				continue
			}
			for _, c := range []struct {
				name      string
				got, want []bool
			}{{"eq", got.eq, want.eq}, {"nn1", got.nn1, want.nn1}, {"nn2", got.nn2, want.nn2}} {
				if !slices.Equal(c.got, c.want) {
					t.Fatalf("%s: %s = %v, parents-first %v", where, c.name, c.got, c.want)
				}
			}
		}
	}
	if pairs < 500 {
		t.Fatalf("only %d (spec, query) pairs generated", pairs)
	}
	t.Logf("%d pairs, %d closure runs: %d rounds two-way, %d parents-first", pairs, runs, newRounds, refRounds)
}

// TestLCPLenMatchesChains: for every node pair of 200 seeded random
// simple DTDs and chain-18, lcpLen equals the common-prefix length of
// the two nodes' ancestor chains, and computing it allocates nothing.
func TestLCPLenMatchesChains(t *testing.T) {
	rng := rand.New(rand.NewSource(20021025))
	var ds []*dtd.DTD
	for i := 0; i < 200; i++ {
		ds = append(ds, gen.RandomSimpleDTD(rng))
	}
	ds = append(ds, gen.ChainDTD(18, 2))
	pairs := 0
	for di, d := range ds {
		sk, err := buildSkeleton(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range sk.order {
			ca := chain(sk, a)
			for _, b := range sk.order {
				cb := chain(sk, b)
				want := 0
				for want < len(ca) && want < len(cb) && ca[want] == cb[want] {
					want++
				}
				if got := sk.lcpLen(a, b); got != want {
					t.Fatalf("DTD %d:\n%slcpLen(%s, %s) = %d, want %d", di, d, sk.u.StringOf(a), sk.u.StringOf(b), got, want)
				}
				pairs++
			}
		}
	}
	sk, err := buildSkeleton(gen.ChainDTD(18, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	deep, shallow := sk.order[len(sk.order)-1], sk.order[1]
	if allocs := testing.AllocsPerRun(100, func() { sk.lcpLen(deep, shallow) }); allocs != 0 {
		t.Errorf("lcpLen allocates %.0f objects per call, want 0", allocs)
	}
	t.Logf("%d node pairs", pairs)
}

// chain returns the IDs of a path's ancestors (inclusive), root first.
func chain(sk *skeleton, id paths.ID) []paths.ID {
	var out []paths.ID
	for ; id != paths.None; id = sk.nodes[id].parent {
		out = append(out, id)
	}
	slices.Reverse(out)
	return out
}

// TestImpliesIDsAllocs: a query builds one closure state and resets it
// for each branch assignment, so its allocations do not grow with the
// number of assignments. On gen.DisjunctiveDTD with 1–4 groups (N_D 2
// to 16, so 4 to 256 assignments), an implied query allocates the same
// handful of objects at every size.
func TestImpliesIDsAllocs(t *testing.T) {
	sigma := []xfd.FD{{LHS: []dtd.Path{{"r", "p", "@k"}}, RHS: []dtd.Path{{"r", "p"}}}}
	q := xfd.FD{LHS: []dtd.Path{{"r", "p", "@k"}}, RHS: []dtd.Path{{"r", "p", "b0_0", "@v"}}}
	var first float64
	for groups := 1; groups <= 4; groups++ {
		eng, err := NewEngine(gen.DisjunctiveDTD(groups, 2), sigma)
		if err != nil {
			t.Fatal(err)
		}
		lhs, rhs, err := eng.Resolve(q)
		if err != nil {
			t.Fatal(err)
		}
		if ans := eng.ImpliesIDs(lhs, rhs); !ans.Implied {
			t.Fatalf("%d groups: %s not implied", groups, q)
		}
		allocs := testing.AllocsPerRun(20, func() { eng.ImpliesIDs(lhs, rhs) })
		t.Logf("%d groups, %d assignments: %.0f allocations per query", groups, len(eng.asgs), allocs)
		if groups == 1 {
			first = allocs
		}
		if allocs > first || allocs >= 100 {
			t.Errorf("%d groups, %d assignments: %.0f allocations per query, %.0f with one group; want no growth, under 100",
				groups, len(eng.asgs), allocs, first)
		}
	}
}
