package implication

import (
	"xmlnorm/internal/paths"
	"xmlnorm/internal/regex"
)

// The closure engine decides FD implication for disjunctive DTDs by
// reasoning about a hypothetical pair (t1, t2) of maximal tree tuples of
// some tree T ⊨ (D, Σ) that would witness non-implication of S → p:
// t1.S = t2.S ≠ ⊥ and t1.p ≠ t2.p (w.l.o.g. t1.p ≠ ⊥).
//
// For each path q it maintains three propositions:
//
//	eq[q]  — t1.q = t2.q (⊥ = ⊥ counts as equal; for element paths,
//	         equality of vertices)
//	nn1[q] — t1.q ≠ ⊥
//	nn2[q] — t2.q ≠ ⊥
//
// and closes them under rules that hold in every tree conforming to the
// DTD and satisfying Σ (see doc.go for the full derivation):
//
//	(R1) nnᵢ[q.x] ⇒ nnᵢ[q]                       (⊥ propagates down)
//	(R2) nnᵢ[q] ⇒ nnᵢ[q.x] for required children  (maximality)
//	(R3) eq[q] ⇒ eq[q.x] for at-most-once children (shared vertex)
//	(R4) eq[q] ∧ nnᵢ[q] ⇒ nn_j[q]                 (equal values share nullness)
//	(R5) eq[q.x] ∧ nn[q.x] ⇒ eq[q] for element paths (unique parents)
//	(R6) FDs of Σ fire between t1, t2 — or between one of them and a
//	     *crossover* tuple obtained by swapping whole branches below a
//	     shared ancestor, which relaxes the firing condition for LHS
//	     paths under a swappable branch from "equal and non-null" to
//	     "non-null in the source tuple".
//
// Disjunction factors are handled by enumerating, per group and per
// tuple, which branch the tuple's node takes (an assignment); unchosen
// branches are forced to ⊥ and a shared vertex with divergent branch
// choices makes the assignment infeasible.
//
// The query S → p is implied iff every feasible assignment forces eq[p].

// assignment chooses, for each disjunction group and each of the two
// tuples, the branch taken: a member path, or paths.None for the ε
// branch.
type assignment struct {
	b1, b2 []paths.ID // indexed by group
}

// state is the proposition state of a closure run; a query resets one
// state for each branch assignment. Every per-path slice is indexed by
// paths.ID.
type state struct {
	sk         *skeleton
	sigma      []compiledFD
	asg        assignment
	eq         []bool
	nn1, nn2   []bool
	forced1    []bool // forced ⊥ for t1 under the assignment
	forced2    []bool
	maxOk      []int // per path: depth of the deepest element ancestor usable as a swap point (0 = none)
	infeasible bool
	rounds     int // rounds run has completed
}

// compiledFD is a single-RHS FD of Σ by path ID. lcp[i] is the length
// of the common chain prefix of lhs[i] and rhs, precomputed so that the
// crossover ("coverable") test in fires() is O(1): a swap point u on
// the chain of lhs[i] avoids the RHS exactly when its depth exceeds
// that common prefix.
type compiledFD struct {
	lhs []paths.ID
	rhs paths.ID
	lcp []int
}

// newState allocates the proposition state of closure runs over sk
// and Σ: one backing array for the five per-path bool slices, one for
// maxOk. A query builds one and resets it for each branch assignment.
func newState(sk *skeleton, sigma []compiledFD) *state {
	n := len(sk.nodes)
	flags := make([]bool, 5*n)
	return &state{
		sk: sk, sigma: sigma,
		eq:  flags[:n],
		nn1: flags[n : 2*n], nn2: flags[2*n : 3*n],
		forced1: flags[3*n : 4*n], forced2: flags[4*n:],
		maxOk: make([]int, n),
	}
}

// reset clears the state and initializes the propositions for branch
// assignment asg, hypothesis hyp (asserted equal and non-null in both
// tuples) and goal (asserted non-null in t1, with its whole chain, so
// that a violation t1.goal ≠ t2.goal is possible).
func (s *state) reset(asg assignment, hyp paths.Set, goal paths.ID) {
	clear(s.eq)
	clear(s.nn1)
	clear(s.nn2)
	clear(s.forced1)
	clear(s.forced2) // maxOk needs no clearing: run recomputes it before every use
	s.asg, s.infeasible, s.rounds = asg, false, 0
	s.computeForced()
	root := s.sk.order[0] // t1.r = t2.r = the root vertex
	s.markEq(root)
	s.markNN(root, true)
	s.markNN(root, false)
	hyp.ForEach(func(h paths.ID) {
		s.markEq(h)
		s.markNN(h, true)
		s.markNN(h, false)
	})
	for p := goal; p != paths.None; p = s.sk.nodes[p].parent {
		s.markNN(p, true)
	}
}

// computeForced derives the forced-⊥ sets from the assignment: each
// unchosen branch of each group, together with its whole subtree.
func (s *state) computeForced() {
	for gi, g := range s.sk.groups {
		for _, m := range g.members {
			if s.asg.b1[gi] != m {
				s.forceDown(s.forced1, m)
			}
			if s.asg.b2[gi] != m {
				s.forceDown(s.forced2, m)
			}
		}
	}
}

// forceDown forces id and its whole subtree to ⊥ in forced.
func (s *state) forceDown(forced []bool, id paths.ID) {
	if forced[id] {
		return
	}
	forced[id] = true
	for _, k := range s.sk.nodes[id].kids {
		s.forceDown(forced, k)
	}
}

func (s *state) markEq(id paths.ID) {
	if !s.eq[id] {
		s.eq[id] = true
	}
}

func (s *state) markNN(id paths.ID, first bool) {
	nn, forced := s.nn1, s.forced1
	if !first {
		nn, forced = s.nn2, s.forced2
	}
	if nn[id] {
		return
	}
	if forced[id] {
		s.infeasible = true
		return
	}
	nn[id] = true
}

// computeMaxOk refreshes, for every path, the depth of the deepest
// element ancestor (or the path itself) whose parent is a shared
// non-null vertex — the candidate branch-swap points of the crossover
// rule. One sweep in the skeleton's pre-order, parents first.
func (s *state) computeMaxOk() {
	for _, id := range s.sk.order {
		n := &s.sk.nodes[id]
		best := 0
		if n.parent != paths.None {
			best = s.maxOk[n.parent]
			if n.elem && s.eq[n.parent] && s.nn1[n.parent] && s.nn2[n.parent] && int(n.depth) > best {
				best = int(n.depth)
			}
		}
		s.maxOk[id] = best
	}
}

// run closes the propositions under the rules, returning false when the
// assignment is infeasible. Each round sweeps the node rules (visit)
// parents-first and, when that changed anything, children-first, then
// fires Σ (R6); rounds repeat until one changes nothing. A sweep
// carries a fact along a whole chain only in its own direction — R2,
// R3 and R7 down, R1 and R5 up — so the second sweep saves the upward
// rules a round per level. Each round derives everything a
// parents-first round would, and the rules are monotone, so the
// closure reaches the same least fixpoint in no more rounds
// (closure_test.go holds it to the parents-first loop). A sweep that
// changes nothing shows the state closed under the node rules, so the
// last round costs one sweep.
func (s *state) run() bool {
	for changed := true; changed && !s.infeasible; s.rounds++ {
		s.computeMaxOk()
		changed = s.sweep(false)
		if changed && !s.infeasible {
			s.sweep(true)
		}
		if s.infeasible {
			return false
		}
		if s.fireSigma() {
			changed = true
		}
	}
	return !s.infeasible
}

// sweep visits every path once in the skeleton's pre-order — parents
// first, or children first when reverse is set — stopping early once
// the assignment turns out infeasible, and reports whether any
// proposition changed.
func (s *state) sweep(reverse bool) bool {
	order := s.sk.order
	changed := false
	for i := range order {
		id := order[i]
		if reverse {
			id = order[len(order)-1-i]
		}
		if s.visit(id) {
			changed = true
		}
		if s.infeasible {
			break
		}
	}
	return changed
}

// visit applies every rule anchored at one path — R1, R4 and R5 at the
// path itself, R2, R3 and R7 towards its children — and the branch
// feasibility check, reporting whether any proposition changed.
func (s *state) visit(id paths.ID) bool {
	n := &s.sk.nodes[id]
	changed := false
	step := func(did bool) {
		if did {
			changed = true
		}
	}
	// R1: non-nullness propagates to the parent.
	if n.parent != paths.None {
		if s.nn1[id] && !s.nn1[n.parent] {
			s.markNN(n.parent, true)
			step(true)
		}
		if s.nn2[id] && !s.nn2[n.parent] {
			s.markNN(n.parent, false)
			step(true)
		}
	}
	// R4: equal values share nullness.
	if s.eq[id] {
		if s.nn1[id] && !s.nn2[id] {
			s.markNN(id, false)
			step(true)
		}
		if s.nn2[id] && !s.nn1[id] {
			s.markNN(id, true)
			step(true)
		}
	}
	// R5: a shared non-null element vertex has a shared parent.
	if n.elem && n.parent != paths.None && s.eq[id] && s.nn1[id] && !s.eq[n.parent] {
		s.markEq(n.parent)
		step(true)
	}
	// R2 and R3: downward propagation to children.
	for _, k := range n.kids {
		kid := &s.sk.nodes[k]
		if required(kid) {
			if s.nn1[id] && !s.nn1[k] {
				s.markNN(k, true)
				step(true)
			}
			if s.nn2[id] && !s.nn2[k] {
				s.markNN(k, false)
				step(true)
			}
		} else if kid.group >= 0 {
			// Chosen group branches are required per tuple.
			if s.asg.b1[kid.group] == k && s.nn1[id] && !s.nn1[k] {
				s.markNN(k, true)
				step(true)
			}
			if s.asg.b2[kid.group] == k && s.nn2[id] && !s.nn2[k] {
				s.markNN(k, false)
				step(true)
			}
		}
		if s.eq[id] && !s.eq[k] && atMostOnce(kid) {
			s.markEq(k)
			step(true)
		}
		// R7 (maximality): a shared vertex that has a child with
		// some label in one tuple has children with that label in
		// the tree, so the other maximal tuple must also contain
		// one (not necessarily the same one).
		if kid.elem && s.eq[id] && s.nn1[id] && s.nn2[id] {
			if s.nn1[k] && !s.nn2[k] {
				s.markNN(k, false)
				step(true)
			}
			if s.nn2[k] && !s.nn1[k] {
				s.markNN(k, true)
				step(true)
			}
		}
	}
	// Feasibility: a shared non-null vertex cannot take two
	// different group branches.
	if n.elem && s.eq[id] && s.nn1[id] && s.nn2[id] {
		for g := range s.sk.groups {
			if s.sk.groups[g].parent == id && s.asg.b1[g] != s.asg.b2[g] {
				s.infeasible = true
			}
		}
	}
	return changed
}

// fireSigma applies R6 — every FD of Σ in both orientations — and
// reports whether some RHS equality was derived.
func (s *state) fireSigma() bool {
	changed := false
	for _, fd := range s.sigma {
		if s.eq[fd.rhs] {
			continue
		}
		if s.fires(fd, true) || s.fires(fd, false) {
			s.markEq(fd.rhs)
			changed = true
		}
	}
	return changed
}

// required reports whether the child is present whenever the parent is:
// attributes, text content, and element children with multiplicity one
// or plus (group members are handled separately, per assignment).
func required(kid *pnode) bool {
	if !kid.elem {
		return true
	}
	if kid.group >= 0 {
		return false
	}
	return kid.mult == regex.One || kid.mult == regex.PlusM
}

// atMostOnce reports whether a node can have at most one child on this
// path step, so vertex equality of parents propagates to the children:
// attributes, text, element children with multiplicity one or ?, and
// all disjunction-group members.
func atMostOnce(kid *pnode) bool {
	if !kid.elem {
		return true
	}
	if kid.group >= 0 {
		return true
	}
	return kid.mult == regex.One || kid.mult == regex.OptM
}

// fires decides whether the FD fires for the pair via a crossover with
// source tuple src (true = t1): every LHS path must be non-null in both
// tuples and equal — or coverable by a branch swap below a shared
// ancestor that does not contain the RHS, in which case non-nullness in
// the source tuple alone suffices.
func (s *state) fires(fd compiledFD, src bool) bool {
	nnSrc := s.nn1
	if !src {
		nnSrc = s.nn2
	}
	for i, l := range fd.lhs {
		if s.eq[l] && s.nn1[l] && s.nn2[l] {
			continue
		}
		if !nnSrc[l] {
			return false
		}
		// Coverable: some element-path ancestor u of l (possibly l
		// itself) is a swap point below a shared non-null vertex and
		// does not contain the RHS. The swap points on l's chain have
		// their depths folded into maxOk; u avoids the RHS exactly when
		// deeper than the common prefix of l and the RHS.
		if s.maxOk[l] <= fd.lcp[i] {
			return false
		}
	}
	return true
}
