package relational

import (
	"fmt"
	"sort"
	"strings"
)

// This file rounds out the classical normal forms the paper situates
// XNF against (Section 1 names BCNF, 3NF and 4NF; Section 8 lists
// multivalued dependencies as future work): the 3NF test and synthesis
// algorithm, multivalued dependencies with the standard FD+MVD
// inference on a fixed attribute universe, and the 4NF test and
// decomposition.

// IsPrime reports whether the attribute occurs in some candidate key.
func IsPrime(a string, s Schema, fds []FD) bool {
	for _, k := range Keys(s, fds) {
		if k.Contains(a) {
			return true
		}
	}
	return false
}

// Is3NF checks third normal form: for every non-trivial implied
// X → A over the schema, X is a superkey or A is prime.
func Is3NF(s Schema, fds []FD) (bool, []Violation) {
	keys := Keys(s, fds)
	prime := AttrSet{}
	for _, k := range keys {
		for a := range k {
			prime[a] = true
		}
	}
	var viols []Violation
	attrs := s.Attrs.Sorted()
	for size := 1; size < len(attrs); size++ {
		subsets(attrs, size, func(sub []string) {
			x := NewAttrSet(sub...)
			cl := Closure(x, fds).Intersect(s.Attrs)
			if cl.ContainsAll(s.Attrs) {
				return // superkey
			}
			bad := AttrSet{}
			for a := range cl.Minus(x) {
				if !prime[a] {
					bad[a] = true
				}
			}
			if len(bad) > 0 {
				viols = append(viols, Violation{FD: FD{LHS: x, RHS: bad}})
			}
		})
	}
	return len(viols) == 0, viols
}

// Synthesize3NF is the classical 3NF synthesis algorithm: one schema
// per minimal-cover FD (merging equal LHSs), plus a key schema if no
// fragment contains a candidate key. The result is dependency
// preserving and lossless.
func Synthesize3NF(s Schema, fds []FD) []Schema {
	mc := MinimalCover(fds)
	// Merge FDs with the same LHS.
	byLHS := map[string]AttrSet{}
	var order []string
	for _, f := range mc {
		k := f.LHS.String()
		if _, ok := byLHS[k]; !ok {
			byLHS[k] = f.LHS.Clone()
			order = append(order, k)
		}
		for a := range f.RHS {
			byLHS[k][a] = true
		}
	}
	var out []Schema
	for i, k := range order {
		attrs := byLHS[k].Intersect(s.Attrs)
		if len(attrs) == 0 {
			continue
		}
		out = append(out, Schema{Name: fmt.Sprintf("%s%d", s.Name, i+1), Attrs: attrs})
	}
	// Drop fragments subsumed by others.
	var kept []Schema
	for i, f := range out {
		subsumed := false
		for j, g := range out {
			if i != j && g.Attrs.ContainsAll(f.Attrs) && (len(g.Attrs) > len(f.Attrs) || j < i) {
				subsumed = true
				break
			}
		}
		if !subsumed {
			kept = append(kept, f)
		}
	}
	out = kept
	// Ensure some fragment contains a candidate key.
	keys := Keys(s, fds)
	hasKey := false
	for _, f := range out {
		for _, k := range keys {
			if f.Attrs.ContainsAll(k) {
				hasKey = true
			}
		}
	}
	if !hasKey {
		key := s.Attrs
		if len(keys) > 0 {
			key = keys[0]
		}
		out = append(out, Schema{Name: s.Name + "K", Attrs: key.Clone()})
	}
	return out
}

// MVD is a multivalued dependency X →→ Y over a fixed universe U.
type MVD struct {
	LHS, RHS AttrSet
}

// ParseMVD reads "A B ->> C D".
func ParseMVD(s string) (MVD, error) {
	parts := strings.Split(s, "->>")
	if len(parts) != 2 {
		return MVD{}, fmt.Errorf("relational: MVD %q needs exactly one \"->>\"", s)
	}
	lhs := NewAttrSet(strings.Fields(parts[0])...)
	rhs := NewAttrSet(strings.Fields(parts[1])...)
	if len(lhs) == 0 || len(rhs) == 0 {
		return MVD{}, fmt.Errorf("relational: MVD %q has an empty side", s)
	}
	return MVD{LHS: lhs, RHS: rhs}, nil
}

// MustParseMVD panics on error; for tests and literals.
func MustParseMVD(s string) MVD {
	m, err := ParseMVD(s)
	if err != nil {
		panic(err)
	}
	return m
}

// String renders "A ->> B".
func (m MVD) String() string { return m.LHS.String() + " ->> " + m.RHS.String() }

// TrivialMVD reports whether X →→ Y is trivial over the universe U:
// Y ⊆ X or X ∪ Y = U.
func TrivialMVD(m MVD, u AttrSet) bool {
	return m.LHS.ContainsAll(m.RHS) || m.LHS.Union(m.RHS).Equal(u)
}

// DependencyBasis computes the dependency basis of X over the universe
// U under the given FDs and MVDs (Beeri's algorithm): the unique
// partition of U − X such that X →→ Y holds iff Y is a union of blocks
// (together with subsets of X). FDs contribute X → A as X →→ A.
func DependencyBasis(x AttrSet, u AttrSet, fds []FD, mvds []MVD) []AttrSet {
	// Start with a single block U − X, refine with the dependencies.
	rest := u.Minus(x)
	if len(rest) == 0 {
		return nil
	}
	blocks := []AttrSet{rest.Clone()}
	deps := append([]MVD{}, mvds...)
	for _, f := range fds {
		// An FD X' → Y is the MVD X' →→ A for each A ∈ Y, and also
		// splits singletons; treating it as an MVD is sound for the
		// basis computation.
		deps = append(deps, MVD{LHS: f.LHS.Clone(), RHS: f.RHS.Clone()})
	}
	changed := true
	for changed {
		changed = false
		for _, d := range deps {
			// Standard refinement: if some block B intersects both
			// d.RHS' and its complement where d applies, split it.
			// d applies to a block B when d.LHS ∩ B = ∅ is not required
			// in general; we use the textbook condition: if
			// B ∩ d.LHS = ∅ and B intersects both d.RHS and U − d.LHS − d.RHS,
			// replace B by B ∩ W and B − W where W = d.RHS.
			var next []AttrSet
			for _, b := range blocks {
				inter := b.Intersect(d.LHS)
				if len(inter) != 0 {
					next = append(next, b)
					continue
				}
				in := b.Intersect(d.RHS)
				outSide := b.Minus(d.RHS)
				if len(in) > 0 && len(outSide) > 0 {
					next = append(next, in, outSide)
					changed = true
				} else {
					next = append(next, b)
				}
			}
			blocks = next
		}
		// FD singletons: every A with A ∈ Closure(x) − x is its own block.
		cl := Closure(x, fds).Intersect(u).Minus(x)
		var next []AttrSet
		for _, b := range blocks {
			det := b.Intersect(cl)
			rest := b.Minus(cl)
			if len(det) > 0 && (len(rest) > 0 || len(det) > 1) {
				for _, a := range det.Sorted() {
					next = append(next, NewAttrSet(a))
				}
				if len(rest) > 0 {
					next = append(next, rest)
				}
				changed = changed || len(rest) > 0 || len(det) > 1
			} else {
				next = append(next, b)
			}
		}
		blocks = next
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].String() < blocks[j].String() })
	return blocks
}

// ImpliesMVD decides whether X →→ Y follows from the FDs and MVDs over
// the universe U, via the dependency basis.
func ImpliesMVD(u AttrSet, fds []FD, mvds []MVD, q MVD) bool {
	if TrivialMVD(q, u) {
		return true
	}
	basis := DependencyBasis(q.LHS, u, fds, mvds)
	target := q.RHS.Minus(q.LHS)
	covered := AttrSet{}
	for _, b := range basis {
		if target.ContainsAll(b) {
			covered = covered.Union(b)
		}
	}
	return covered.Equal(target)
}

// Is4NF checks fourth normal form: for every non-trivial implied MVD
// X →→ Y over the schema, X is a superkey. It sweeps attribute subsets
// by increasing size and skips any subset containing an LHS already
// found to violate: such an X only repeats its subset's defect. The
// violations returned are therefore exactly those with an
// inclusion-minimal LHS, in sweep order; the verdict and the first
// violation are those of the exhaustive sweep.
func Is4NF(s Schema, fds []FD, mvds []MVD) (bool, []MVD) {
	var viols []MVD
	attrs := s.Attrs.Sorted()
	for size := 1; size < len(attrs); size++ {
		subsets(attrs, size, func(sub []string) {
			x := NewAttrSet(sub...)
			for _, v := range viols {
				if x.ContainsAll(v.LHS) {
					return
				}
			}
			if IsSuperkey(x, s, fds) {
				return
			}
			for _, b := range DependencyBasis(x, s.Attrs, fds, mvds) {
				m := MVD{LHS: x, RHS: b}
				if TrivialMVD(m, s.Attrs) {
					continue
				}
				viols = append(viols, m)
			}
		})
	}
	return len(viols) == 0, viols
}

// Decompose4NF splits on 4NF-violating MVDs until every fragment is in
// 4NF (with dependencies projected naively: FDs via Project, MVDs kept
// when their attributes survive — the standard textbook treatment).
func Decompose4NF(s Schema, fds []FD, mvds []MVD) []Schema {
	ok, viols := Is4NF(s, fds, mvds)
	if ok || len(s.Attrs) <= 2 {
		return []Schema{s}
	}
	v := viols[0]
	left := Schema{Name: s.Name + "1", Attrs: v.LHS.Union(v.RHS)}
	right := Schema{Name: s.Name + "2", Attrs: s.Attrs.Minus(v.RHS)}
	projectMVDs := func(attrs AttrSet) []MVD {
		var out []MVD
		for _, m := range mvds {
			if attrs.ContainsAll(m.LHS.Union(m.RHS)) {
				out = append(out, m)
			}
		}
		return out
	}
	var out []Schema
	out = append(out, Decompose4NF(left, Project(fds, left.Attrs), projectMVDs(left.Attrs))...)
	out = append(out, Decompose4NF(right, Project(fds, right.Attrs), projectMVDs(right.Attrs))...)
	return out
}
