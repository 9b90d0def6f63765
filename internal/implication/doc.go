package implication

// This file documents the derivation of the closure algorithm. The PODS
// 2002 paper states Theorem 3 (implication over simple DTDs is decidable
// in quadratic time) without giving the construction, so the algorithm
// here is re-derived from the paper's definitions. Soundness follows
// from the arguments below; completeness is validated empirically
// against the brute-force semantic checker (TestRandomCrossValidation
// and TestClosureAgainstBruteForce cross-validate hundreds of random
// specifications with zero disagreements), and every negative answer is
// additionally *certified* by a concrete counterexample document.
//
// # Setting
//
// (D, Σ) ⊢ S → p fails iff there exist a tree T ⊨ D with T ⊨ Σ and two
// maximal tuples t1, t2 ∈ tuples_D(T) with t1.S = t2.S ≠ ⊥ and
// t1.p ≠ t2.p. Since ⊥ = ⊥ would make them equal, w.l.o.g. t1.p ≠ ⊥.
//
// The engine reasons about such a hypothetical pair through three
// propositions per path q: eq[q] ("t1.q = t2.q, counting ⊥ = ⊥"),
// nn1[q], nn2[q] ("tᵢ.q ≠ ⊥"). It derives all facts forced in every
// witnessing (T, t1, t2); the query is implied iff eq[p] is forced.
//
// # Rules and why they hold
//
// Initialization: eq/nn on the root (both tuples contain the root
// vertex, Definition 4), eq/nn on every path of S (the hypothesis), and
// nn1 on every prefix of p (the w.l.o.g. above; prefixes by downward ⊥
// propagation).
//
// R1 (↑ nullness): tᵢ.q.x ≠ ⊥ ⇒ tᵢ.q ≠ ⊥. Definition 4: if t.p1 = ⊥ and
// p1 is a prefix of p2 then t.p2 = ⊥.
//
// R2 (↓ required): if tᵢ.q ≠ ⊥ then tᵢ.q.x ≠ ⊥ when x is an attribute
// of last(q) (Definition 3 makes declared attributes total), the text
// step of a #PCDATA element, or an element child whose multiplicity in
// the (simple) content model is 1 or +: the node then has at least one
// x-child and a maximal tuple must include one.
//
// R3 (↓ shared): if t1.q = t2.q ≠ ⊥ (same vertex), then for a child
// step x that occurs at most once per node (attribute, text, element
// with multiplicity 1 or ?, or a branch of a simple disjunction), both
// tuples see the same unique child or both ⊥ — so eq[q.x]. With
// t1.q = t2.q = ⊥, all extensions are ⊥ on both sides and eq[q.x] holds
// trivially; hence the rule needs no non-nullness premise.
//
// R4 (null symmetry): eq[q] ∧ nnᵢ[q] ⇒ nn_j[q]: equal values are either
// both ⊥ or both non-null.
//
// R5 (↑ shared): a vertex has a unique parent, so t1.q.x = t2.q.x ≠ ⊥
// for an element path q.x forces t1.q = t2.q.
//
// R7 (maximality): if t1.q = t2.q ≠ ⊥ and t1.q.x ≠ ⊥ for an element
// child x, the shared node has at least one x-child, so the *maximal*
// tuple t2 must also contain one: nn2[q.x] (not necessarily the same
// vertex). This rule is what makes e.g. (D, ∅) ⊬ r → r.a for a starred
// a: the engine is forced to give t2 an a-child as well, and the two
// children refute the query.
//
// R6 (FD firing with crossovers): an FD S' → p' ∈ Σ constrains every
// pair of maximal tuples of T — not only (t1, t2). If u is an element
// path with t1.parent(u) = t2.parent(u) ≠ ⊥, the tuple m obtained from
// t2 by replacing its whole u-subtree selection with t1's is also a
// maximal tuple of T (the swap happens below a shared vertex, and
// choices for different child labels are independent). For the pair
// (t1, m): paths under u agree with t1 automatically (they need only be
// non-null in t1), paths outside u agree iff t1 and t2 do. So S' → p'
// fires and forces t1.p' = m.p' = t2.p' provided p' is not under any
// swapped u. Hence the firing condition implemented in fires():
// for every l ∈ S', nn[l] in both tuples and either eq[l] or some
// element-path ancestor u of l with a shared non-null parent and p'
// not below u ("coverable"). Swaps at several incomparable u's compose,
// which is why coverability is checked per-path. Both orientations
// (source t1 or t2) are tried.
//
// # Disjunctions
//
// A simple-disjunction factor (a1|...|ak) gives a node exactly one child
// among the aᵢ (or none if the factor is nullable). The engine
// enumerates, per group and per tuple, which branch the tuple's node
// takes; unchosen branches are forced ⊥ (conflicts with derived
// non-nullness make the assignment infeasible), and a shared non-null
// vertex whose two tuples chose different branches is infeasible. The
// query is implied iff every feasible assignment forces eq[p]. The
// number of assignments is the square of (essentially) the paper's N_D
// measure, giving Theorem 4's bound: polynomial when N_D ≤ k·log |D|.
//
// # Certification
//
// When some feasible assignment fails to force eq[p], the final
// proposition state is *realized*: two concrete tuples are built that
// are non-null exactly on the nn sets and share vertices/values exactly
// on the eq set, glued with trees_D, and the resulting document is
// re-checked semantically ([T] ⊨ D, T ⊨ Σ, T ⊭ query), against
// content models and a Σ checker the engine compiled once. Only a
// verified document is reported as a refutation, so false negatives
// cannot escape silently even if a closure rule were too weak.
