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
	"sync/atomic"

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
	sk, err := buildSkeleton(d, 0)
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
// every refutation. An Engine is read-only after construction, except
// for its query counter, so concurrent queries (the worker pool of
// internal/engine) share all of it.
//
// The skeleton, the conformer and the branch assignments depend on D
// alone. They form the engine's Σ-independent half, together with the
// (D, ∅) engine that answers Trivial and the counter behind Queries.
// WithSigma derives an engine for another Σ over the same DTD that
// shares exactly this half and compiles only its own Σ, which is what
// lets a caller testing many reduced FD sets (xnf.MinimalCover) build
// the DTD's half once. Every engine of one half asks (D, ∅) questions
// of the same (D, ∅) engine and counts its decisions on the same
// counter.
//
// A query is asked by path ID in the engine's universe (ImpliesIDs,
// TrivialIDs): an LHS set and an RHS path. Implies and Trivial resolve
// an xfd.FD query into that form first (Resolve).
type Engine struct {
	*half
	// Σ, compiled for the closure and for certifying refutations.
	compiled []compiledFD
	sigma    *xfd.CheckerSet
}

// half is the Σ-independent part of an engine, shared by every engine
// WithSigma derives from it.
type half struct {
	sk      *skeleton
	conform *xmltree.Conformer
	asgs    []assignment
	// triv is the (D, ∅) engine over this half.
	triv *Engine
	// queries counts the single-RHS closure decisions made over this
	// half, by any of its engines.
	queries atomic.Uint64
}

// NewEngine builds an engine. The DTD must be non-recursive and
// disjunctive, and every path of Σ a path of the DTD: Σ is compiled
// through WithSigma, whose two compilers each look its paths up once
// in the DTD's interned path universe.
func NewEngine(d *dtd.DTD, sigma []xfd.FD) (*Engine, error) {
	sk, err := buildSkeleton(d, 0)
	if err != nil {
		return nil, err
	}
	return newEngine(sk, sigma)
}

// newEngine builds the Σ-independent half of an engine over a built
// skeleton, whose universe sk.u interns every skeleton path, with its
// (D, ∅) engine, then compiles Σ through WithSigma. NewEngine and the
// one-shot deciders (Implies, ImpliesBounded) all build their engine
// here.
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
	h := &half{sk: sk, conform: xmltree.NewConformer(sk.d), asgs: enumerateAssignments(sk)}
	empty, err := xfd.NewCheckerSet(sk.u, nil)
	if err != nil {
		return nil, err // unreachable: an empty Σ looks nothing up
	}
	h.triv = &Engine{half: h, sigma: empty}
	return h.triv.WithSigma(sigma)
}

// WithSigma returns an engine for (D, sigma) over e's DTD. It shares
// e's Σ-independent half, read-only but for the query counter, and
// compiles only sigma, for the closure and as a CheckerSet, each
// looking its paths up in the skeleton's universe; an empty sigma
// gives the half's (D, ∅) engine itself. The result answers every
// query exactly as NewEngine(D, sigma) would, and e is left unchanged,
// so both stay safe for concurrent use.
func (e *Engine) WithSigma(sigma []xfd.FD) (*Engine, error) {
	if len(sigma) == 0 {
		return e.triv, nil
	}
	compiled, err := compileFDs(e.sk, sigma)
	if err != nil {
		return nil, err
	}
	check, err := xfd.NewCheckerSet(e.sk.u, sigma)
	if err != nil {
		return nil, err
	}
	return &Engine{half: e.half, compiled: compiled, sigma: check}, nil
}

// DTD returns the engine's DTD.
func (e *Engine) DTD() *dtd.DTD { return e.sk.d }

// Queries returns the number of single-RHS closure decisions made over
// the engine's half: by this engine, by the engines WithSigma derives
// from the half, and by its (D, ∅) engine. A query that fails to
// resolve decides nothing.
func (e *Engine) Queries() uint64 { return e.queries.Load() }

// Universe returns the interned path universe of the engine's DTD.
func (e *Engine) Universe() *paths.Universe { return e.sk.u }

// Implies decides (D, Σ) ⊢ q: each single-RHS split is resolved in the
// engine's universe and asked through ImpliesIDs, and q is implied iff
// every split is.
func (e *Engine) Implies(q xfd.FD) (Answer, error) {
	for _, single := range q.SingleRHS() {
		lhs, rhs, err := e.Resolve(single)
		if err != nil {
			return Answer{}, err
		}
		if ans := e.ImpliesIDs(lhs, rhs); !ans.Implied {
			return ans, nil
		}
	}
	return Answer{Implied: true}, nil
}

// Trivial decides whether q follows from the DTD alone: (D, ∅) ⊢ q,
// asked of the half's (D, ∅) engine exactly as Implies asks.
func (e *Engine) Trivial(q xfd.FD) (bool, error) {
	ans, err := e.triv.Implies(q)
	return ans.Implied, err
}

// TrivialIDs decides (D, ∅) ⊢ lhs → rhs for paths of the engine's
// universe. lhs is only read.
func (e *Engine) TrivialIDs(lhs paths.Set, rhs paths.ID) bool {
	return e.triv.ImpliesIDs(lhs, rhs).Implied
}

// Resolve looks the paths of a single-RHS query up in the engine's
// universe: q.LHS as a set, q.RHS[0] as an ID. A path outside the
// universe fails the query, naming q and the path.
func (e *Engine) Resolve(q xfd.FD) (paths.Set, paths.ID, error) {
	u := e.sk.u
	lhs := u.NewSet()
	for _, p := range q.LHS {
		id, ok := u.Lookup(p)
		if !ok {
			return nil, paths.None, fmt.Errorf("implication: query %s: %q is not a path of the DTD", q, p)
		}
		lhs.Add(id)
	}
	rhs, ok := u.Lookup(q.RHS[0])
	if !ok {
		return nil, paths.None, fmt.Errorf("implication: query %s: %q is not a path of the DTD", q, q.RHS[0])
	}
	return lhs, rhs, nil
}

func impliesSk(sk *skeleton, sigma []xfd.FD, q xfd.FD) (Answer, error) {
	eng, err := newEngine(sk, sigma)
	if err != nil {
		return Answer{}, err
	}
	return eng.Implies(q)
}

// compileFDs compiles Σ for the closure, one compiledFD per single-RHS
// split; the splits of one FD share its LHS IDs, read-only. Every path
// of every FD, LHS before RHS, must be a path of the skeleton; the
// first that is not fails the compile.
func compileFDs(sk *skeleton, sigma []xfd.FD) ([]compiledFD, error) {
	var out []compiledFD
	for _, f := range sigma {
		idOf := func(p dtd.Path) (paths.ID, error) {
			id, ok := sk.u.Lookup(p)
			if !ok {
				return paths.None, fmt.Errorf("implication: xfd: %s: %q is not in the path universe", f, p)
			}
			return id, nil
		}
		lhs := make([]paths.ID, len(f.LHS))
		for i, p := range f.LHS {
			id, err := idOf(p)
			if err != nil {
				return nil, err
			}
			lhs[i] = id
		}
		for _, p := range f.RHS {
			rhs, err := idOf(p)
			if err != nil {
				return nil, err
			}
			c := compiledFD{lhs: lhs, rhs: rhs}
			for _, l := range lhs {
				c.lcp = append(c.lcp, sk.lcpLen(l, rhs))
			}
			out = append(out, c)
		}
	}
	return out, nil
}

// ImpliesIDs decides (D, Σ) ⊢ lhs → rhs for paths of the engine's
// universe. It runs the closure for every branch assignment: the query
// is implied iff no feasible assignment leaves eq[rhs] underivable —
// and every refutation is realized into a concrete tree and re-checked;
// a scenario that fails realization is treated as no refutation (this
// never occurred across the randomized cross-validation suite, see
// closure_test.go, but keeps negative answers trustworthy by
// construction). lhs is only read. The query builds one closure state
// and resets it for each assignment; a realized counterexample is a
// fresh tree that shares nothing with it. Each call is one decision on
// the half's query counter.
func (e *Engine) ImpliesIDs(lhs paths.Set, rhs paths.ID) Answer {
	e.queries.Add(1)
	st := newState(e.sk, e.compiled)
	for _, asg := range e.asgs {
		st.reset(asg, lhs, rhs)
		if st.infeasible {
			continue
		}
		if !st.run() {
			continue // infeasible assignment
		}
		if st.eq[rhs] {
			continue // implied under this assignment
		}
		// Candidate refutation: realize and verify.
		tree, err := realize(st)
		if err != nil {
			// Spurious scenario; treat as implied under this assignment.
			continue
		}
		if e.verifyCounterexample(queryOf(e.sk.u, lhs, rhs), tree) {
			return Answer{Implied: false, Counterexample: tree, Verified: true}
		}
	}
	return Answer{Implied: true}
}

// queryOf renders a query by ID back to paths, for the certificate.
func queryOf(u *paths.Universe, lhs paths.Set, rhs paths.ID) xfd.FD {
	q := xfd.FD{RHS: []dtd.Path{u.PathOf(rhs)}}
	lhs.ForEach(func(id paths.ID) { q.LHS = append(q.LHS, u.PathOf(id)) })
	return q
}

// enumerateAssignments lists every pair of branch choices for every
// group. With no groups there is exactly one (empty) assignment.
func enumerateAssignments(sk *skeleton) []assignment {
	n := len(sk.groups)
	out := []assignment{{b1: make([]paths.ID, n), b2: make([]paths.ID, n)}}
	if n == 0 {
		return out
	}
	var res []assignment
	cur := assignment{b1: make([]paths.ID, n), b2: make([]paths.ID, n)}
	var rec func(g int)
	rec = func(g int) {
		if g == n {
			c := assignment{b1: append([]paths.ID(nil), cur.b1...), b2: append([]paths.ID(nil), cur.b2...)}
			res = append(res, c)
			return
		}
		choices := append([]paths.ID(nil), sk.groups[g].members...)
		if sk.groups[g].nullable {
			choices = append(choices, paths.None)
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
