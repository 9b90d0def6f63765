// Package implication decides implication of XML functional
// dependencies: (D, Σ) ⊢ φ iff every tree conforming to D and
// satisfying Σ satisfies φ (Section 4 of Arenas & Libkin, PODS 2002).
//
// Three deciders are provided, matching the complexity landscape of
// Section 7 of the paper:
//
//   - Implies: the closure ("chase") algorithm for non-recursive
//     disjunctive DTDs. For simple DTDs there is a single branch
//     assignment, giving the polynomial bound of Theorem 3; general
//     disjunctive DTDs enumerate branch assignments, exponential only in
//     the number of unrestricted disjunctions (Theorem 4).
//   - BruteForce: a bounded semantic checker that enumerates conforming
//     trees, the coNP baseline of Theorem 5 and the ground truth that the
//     closure algorithm is property-tested against.
//   - Trivial: implication from the DTD alone ((D, ∅) ⊢ φ).
//
// Refutations are *certified*: a negative answer carries a concrete
// counterexample tree that has been re-checked semantically (conformance,
// Σ-satisfaction, φ-violation).
package implication

import (
	"fmt"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

// MaxAssignments caps the branch-assignment enumeration for disjunctive
// DTDs (the paper's N_D measure bounds this for the tractable class).
const MaxAssignments = 1 << 20

// Answer is the result of an implication test.
type Answer struct {
	Implied bool
	// Counterexample is a tree T ⊨ D with T ⊨ Σ and T ⊭ φ, set when
	// Implied is false.
	Counterexample *xmltree.Tree
	// Verified reports that the counterexample passed the independent
	// semantic re-check. It is always true for answers produced by this
	// package unless noted otherwise.
	Verified bool
}

// Implies decides (D, Σ) ⊢ φ for a non-recursive disjunctive DTD using
// the closure algorithm. A query with several RHS paths is implied iff
// each single-RHS split is.
func Implies(d *dtd.DTD, sigma []xfd.FD, q xfd.FD) (Answer, error) {
	sk, err := buildSkeleton(d)
	if err != nil {
		return Answer{}, err
	}
	return impliesSk(sk, sigma, q)
}

// Engine is a reusable implication engine for one (D, Σ) pair; it
// amortizes skeleton construction, FD compilation and branch-assignment
// enumeration across many queries (the XNF checker issues O(|Σ|) of
// them). Σ is compiled twice, once for the closure and once as an
// xfd.CheckerSet over the skeleton's universe, and D's content models
// are compiled once into an xmltree.Conformer; the last two certify
// every refutation. An Engine is read-only after construction, so
// concurrent queries (internal/engine's worker pool) share all of it.
//
// The skeleton, the conformer and the branch assignments depend on D
// alone. WithSigma derives an engine for another Σ over the same DTD
// that shares exactly these read-only parts and compiles only its own
// Σ, which is what lets a caller testing many reduced FD sets
// (xnf.MinimalCover) build the DTD's half once.
type Engine struct {
	// Σ-independent, shared with every engine WithSigma derives.
	sk      *skeleton
	conform *xmltree.Conformer
	asgs    []assignment
	// Σ, compiled for the closure and for certifying refutations.
	compiled []compiledFD
	sigma    *xfd.CheckerSet
}

// NewEngine builds an engine. The DTD must be non-recursive and
// disjunctive. Σ is copied and each FD resolved against the DTD's
// interned path universe, so downstream consumers (the answer cache,
// XNF search) can reuse the bitset sides.
func NewEngine(d *dtd.DTD, sigma []xfd.FD) (*Engine, error) {
	sk, err := buildSkeleton(d)
	if err != nil {
		return nil, err
	}
	return newEngine(sk, sigma)
}

// newEngine builds the Σ-independent half of an engine over a built
// skeleton, whose universe sk.u interns every skeleton path, then
// compiles Σ through WithSigma. NewEngine and the one-shot deciders
// (Implies, ImpliesBounded) all build their engine here.
func newEngine(sk *skeleton, sigma []xfd.FD) (*Engine, error) {
	total := 1
	for _, g := range sk.groups {
		k := len(g.members)
		if g.nullable {
			k++
		}
		total *= k * k
		if total > MaxAssignments {
			return nil, fmt.Errorf("implication: more than %d branch assignments (N_D too large); use BruteForce", MaxAssignments)
		}
	}
	base := &Engine{sk: sk, conform: xmltree.NewConformer(sk.d), asgs: enumerateAssignments(sk)}
	return base.WithSigma(sigma)
}

// WithSigma returns an engine for (D, sigma) over e's DTD. It shares
// e's skeleton, conformer and branch assignments, all read-only, and
// compiles only sigma: copied, resolved against the skeleton's
// universe, compiled for the closure and as a CheckerSet. The result
// answers every query exactly as NewEngine(D, sigma) would, and e is
// left unchanged, so both stay safe for concurrent use.
func (e *Engine) WithSigma(sigma []xfd.FD) (*Engine, error) {
	sigma = append([]xfd.FD(nil), sigma...)
	for i := range sigma {
		if err := sigma[i].Resolve(e.sk.u); err != nil {
			return nil, fmt.Errorf("implication: %v", err)
		}
	}
	compiled, err := compileFDs(e.sk, sigma)
	if err != nil {
		return nil, err
	}
	check, err := xfd.NewCheckerSet(e.sk.u, sigma)
	if err != nil {
		return nil, err
	}
	return &Engine{sk: e.sk, conform: e.conform, asgs: e.asgs, compiled: compiled, sigma: check}, nil
}

// Universe returns the interned path universe of the engine's DTD.
func (e *Engine) Universe() *paths.Universe { return e.sk.u }

// Implies decides (D, Σ) ⊢ q.
func (e *Engine) Implies(q xfd.FD) (Answer, error) {
	for _, single := range q.SingleRHS() {
		hyp, goal, err := compileQuery(e.sk, single)
		if err != nil {
			return Answer{}, err
		}
		ans := e.impliesSingle(hyp, goal)
		if !ans.Implied {
			return ans, nil
		}
	}
	return Answer{Implied: true}, nil
}

func impliesSk(sk *skeleton, sigma []xfd.FD, q xfd.FD) (Answer, error) {
	eng, err := newEngine(sk, sigma)
	if err != nil {
		return Answer{}, err
	}
	return eng.Implies(q)
}

func compileFDs(sk *skeleton, sigma []xfd.FD) ([]compiledFD, error) {
	var out []compiledFD
	for _, f := range sigma {
		for _, single := range f.SingleRHS() {
			c := compiledFD{}
			for _, p := range single.LHS {
				n := sk.node(p)
				if n == nil {
					return nil, fmt.Errorf("implication: FD %s: %q is not a path of the DTD", f, p)
				}
				c.lhs = append(c.lhs, n.id)
			}
			r := sk.node(single.RHS[0])
			if r == nil {
				return nil, fmt.Errorf("implication: FD %s: %q is not a path of the DTD", f, single.RHS[0])
			}
			c.rhs = r.id
			for _, l := range c.lhs {
				c.lcp = append(c.lcp, sk.lcpLen(l, c.rhs))
			}
			out = append(out, c)
		}
	}
	return out, nil
}

func compileQuery(sk *skeleton, q xfd.FD) (hyp []int, goal int, err error) {
	for _, p := range q.LHS {
		n := sk.node(p)
		if n == nil {
			return nil, 0, fmt.Errorf("implication: query %s: %q is not a path of the DTD", q, p)
		}
		hyp = append(hyp, n.id)
	}
	r := sk.node(q.RHS[0])
	if r == nil {
		return nil, 0, fmt.Errorf("implication: query %s: %q is not a path of the DTD", q, q.RHS[0])
	}
	return hyp, r.id, nil
}

// impliesSingle runs the closure for every branch assignment. The query
// is implied iff no feasible assignment leaves eq[goal] underivable —
// and every refutation is realized into a concrete tree and re-checked;
// a scenario that fails realization is treated as no refutation (this
// never occurred across the randomized cross-validation suite, see
// closure_test.go, but keeps negative answers trustworthy by
// construction).
func (e *Engine) impliesSingle(hyp []int, goal int) Answer {
	for _, asg := range e.asgs {
		st := newState(e.sk, e.compiled, asg, hyp, goal)
		if st.infeasible {
			continue
		}
		if !st.run() {
			continue // infeasible assignment
		}
		if st.eq[goal] {
			continue // implied under this assignment
		}
		// Candidate refutation: realize and verify.
		tree, err := realize(st)
		if err != nil {
			// Spurious scenario; treat as implied under this assignment.
			continue
		}
		if e.verifyCounterexample(queryOf(e.sk, hyp, goal), tree) {
			return Answer{Implied: false, Counterexample: tree, Verified: true}
		}
	}
	return Answer{Implied: true}
}

func queryOf(sk *skeleton, hyp []int, goal int) xfd.FD {
	var q xfd.FD
	for _, h := range hyp {
		q.LHS = append(q.LHS, sk.nodes[h].path)
	}
	q.RHS = []dtd.Path{sk.nodes[goal].path}
	return q
}

// enumerateAssignments lists every pair of branch choices for every
// group. With no groups there is exactly one (empty) assignment.
func enumerateAssignments(sk *skeleton) []assignment {
	n := len(sk.groups)
	out := []assignment{{b1: make([]int, n), b2: make([]int, n)}}
	if n == 0 {
		return out
	}
	var res []assignment
	cur := assignment{b1: make([]int, n), b2: make([]int, n)}
	var rec func(g int)
	rec = func(g int) {
		if g == n {
			c := assignment{b1: append([]int(nil), cur.b1...), b2: append([]int(nil), cur.b2...)}
			res = append(res, c)
			return
		}
		choices := append([]int(nil), sk.groups[g].members...)
		if sk.groups[g].nullable {
			choices = append(choices, -1)
		}
		for _, c1 := range choices {
			for _, c2 := range choices {
				cur.b1[g], cur.b2[g] = c1, c2
				rec(g + 1)
			}
		}
	}
	rec(0)
	return res
}

// verifyCounterexample certifies a candidate refutation with three
// semantic checks on the realized tree, each against a structure the
// engine or the skeleton already holds: [T] ⊨ D through the engine's
// compiled content models, T ⊨ Σ through its compiled Σ (verdict-only,
// stopping at the first violated FD), and T ⊭ q through q compiled
// over the skeleton's universe, which interns every path q can name.
func (e *Engine) verifyCounterexample(q xfd.FD, tree *xmltree.Tree) bool {
	if err := e.conform.ConformsUnordered(tree); err != nil {
		return false
	}
	if !e.sigma.SatisfiesAll(tree) {
		return false
	}
	qc, err := xfd.NewCheckerSet(e.sk.u, []xfd.FD{q})
	if err != nil {
		return false // unreachable: q's paths are skeleton paths
	}
	return !qc.SatisfiesAll(tree)
}

// Method identifies which decider produced an Answer.
type Method string

// Decider methods.
const (
	MethodClosure    Method = "closure"
	MethodBruteForce Method = "bruteforce"
)

// Decide picks a decider automatically: the polynomial closure for
// non-recursive disjunctive DTDs (which covers every simple DTD), and
// the bounded brute-force semantic checker otherwise — e.g. for content
// models like the FAQ DTD of Section 7 that fall outside the tractable
// classes. The returned method reports which ran.
func Decide(d *dtd.DTD, sigma []xfd.FD, q xfd.FD, bounds Bounds) (Answer, Method, error) {
	if !d.IsRecursive() && d.IsDisjunctive() {
		ans, err := Implies(d, sigma, q)
		return ans, MethodClosure, err
	}
	ans, err := BruteForce(d, sigma, q, bounds)
	return ans, MethodBruteForce, err
}

// Trivial decides whether φ is a trivial FD: (D, ∅) ⊢ φ.
func Trivial(d *dtd.DTD, q xfd.FD) (bool, error) {
	ans, err := Implies(d, nil, q)
	if err != nil {
		return false, err
	}
	return ans.Implied, nil
}
