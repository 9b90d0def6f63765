// Package relational implements the classical relational design theory
// the paper builds on: functional dependencies with Armstrong closure,
// candidate keys, BCNF testing and decomposition, minimal covers, and
// the encoding of a relational schema as an XML specification used by
// Proposition 4 (Section 5, "BCNF and XNF").
package relational

import (
	"fmt"
	"sort"
	"strings"
)

// AttrSet is a set of attribute names.
type AttrSet map[string]bool

// NewAttrSet builds a set from names.
func NewAttrSet(names ...string) AttrSet {
	s := AttrSet{}
	for _, n := range names {
		s[n] = true
	}
	return s
}

// Clone copies the set.
func (s AttrSet) Clone() AttrSet {
	c := make(AttrSet, len(s))
	for a := range s {
		c[a] = true
	}
	return c
}

// Contains reports a ∈ s.
func (s AttrSet) Contains(a string) bool { return s[a] }

// ContainsAll reports o ⊆ s.
func (s AttrSet) ContainsAll(o AttrSet) bool {
	for a := range o {
		if !s[a] {
			return false
		}
	}
	return true
}

// Equal reports set equality.
func (s AttrSet) Equal(o AttrSet) bool {
	return len(s) == len(o) && s.ContainsAll(o)
}

// Union returns s ∪ o.
func (s AttrSet) Union(o AttrSet) AttrSet {
	c := s.Clone()
	for a := range o {
		c[a] = true
	}
	return c
}

// Intersect returns s ∩ o.
func (s AttrSet) Intersect(o AttrSet) AttrSet {
	c := AttrSet{}
	for a := range s {
		if o[a] {
			c[a] = true
		}
	}
	return c
}

// Minus returns s \ o.
func (s AttrSet) Minus(o AttrSet) AttrSet {
	c := AttrSet{}
	for a := range s {
		if !o[a] {
			c[a] = true
		}
	}
	return c
}

// Sorted returns the attribute names in sorted order.
func (s AttrSet) Sorted() []string {
	out := make([]string, 0, len(s))
	for a := range s {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// String renders the set as "A B C".
func (s AttrSet) String() string { return strings.Join(s.Sorted(), " ") }

// FD is a relational functional dependency X → Y.
type FD struct {
	LHS, RHS AttrSet
}

// ParseFD reads "A B -> C D".
func ParseFD(s string) (FD, error) {
	parts := strings.Split(s, "->")
	if len(parts) != 2 {
		return FD{}, fmt.Errorf("relational: FD %q needs exactly one \"->\"", s)
	}
	lhs := NewAttrSet(strings.Fields(parts[0])...)
	rhs := NewAttrSet(strings.Fields(parts[1])...)
	if len(lhs) == 0 || len(rhs) == 0 {
		return FD{}, fmt.Errorf("relational: FD %q has an empty side", s)
	}
	return FD{LHS: lhs, RHS: rhs}, nil
}

// MustParseFD panics on error; for tests and literals.
func MustParseFD(s string) FD {
	fd, err := ParseFD(s)
	if err != nil {
		panic(err)
	}
	return fd
}

// String renders "A B -> C".
func (f FD) String() string { return f.LHS.String() + " -> " + f.RHS.String() }

// Trivial reports Y ⊆ X.
func (f FD) Trivial() bool { return f.LHS.ContainsAll(f.RHS) }

// Schema is a relation schema: a name and a set of attributes.
type Schema struct {
	Name  string
	Attrs AttrSet
}

// Closure computes X⁺ under the FDs (the standard fixpoint).
func Closure(x AttrSet, fds []FD) AttrSet {
	out := x.Clone()
	for changed := true; changed; {
		changed = false
		for _, f := range fds {
			if out.ContainsAll(f.LHS) && !out.ContainsAll(f.RHS) {
				for a := range f.RHS {
					out[a] = true
				}
				changed = true
			}
		}
	}
	return out
}

// Implies decides F ⊨ X → Y via the closure.
func Implies(fds []FD, f FD) bool {
	return Closure(f.LHS, fds).ContainsAll(f.RHS)
}

// IsSuperkey reports whether X determines all attributes of the schema.
func IsSuperkey(x AttrSet, s Schema, fds []FD) bool {
	return Closure(x, fds).ContainsAll(s.Attrs)
}

// Keys enumerates the candidate keys of the schema (minimal superkeys).
// Exponential in the number of attributes; intended for the small
// schemas of design theory.
func Keys(s Schema, fds []FD) []AttrSet {
	attrs := s.Attrs.Sorted()
	var keys []AttrSet
	n := len(attrs)
	// Enumerate subsets by increasing size so minimality is a subset
	// check against previously found keys.
	for size := 0; size <= n; size++ {
		subsets(attrs, size, func(sub []string) {
			x := NewAttrSet(sub...)
			for _, k := range keys {
				if x.ContainsAll(k) {
					return // a subset is already a key
				}
			}
			if IsSuperkey(x, s, fds) {
				keys = append(keys, x)
			}
		})
	}
	return keys
}

// subsets calls fn for each size-k subset of items, in lexicographic
// order over their positions, reusing one slice for every subset.
func subsets[T any](items []T, k int, fn func([]T)) {
	sub := make([]T, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(sub) == k {
			fn(sub)
			return
		}
		for i := start; i < len(items); i++ {
			sub = append(sub, items[i])
			rec(i + 1)
			sub = sub[:len(sub)-1]
		}
	}
	rec(0)
}

// Violation is a BCNF violation: a non-trivial FD whose LHS is not a
// superkey.
type Violation struct {
	FD FD
}

// IsBCNF checks the schema against the (projected) FDs: every
// non-trivial implied FD X → A with X, A ⊆ Attrs must have X a
// superkey. Following the standard algorithm, it suffices to check FDs
// X → X⁺∩Attrs for X drawn from the given FD set's LHSs projected to
// the schema... for exactness on projections, all subsets are checked;
// schemas in design problems are small.
func IsBCNF(s Schema, fds []FD) (bool, []Violation) {
	var viols []Violation
	attrs := s.Attrs.Sorted()
	for size := 1; size < len(attrs); size++ {
		subsets(attrs, size, func(sub []string) {
			x := NewAttrSet(sub...)
			cl := Closure(x, fds).Intersect(s.Attrs)
			if cl.Equal(x) {
				return // only trivial consequences
			}
			if cl.ContainsAll(s.Attrs) {
				return // superkey
			}
			viols = append(viols, Violation{FD: FD{LHS: x, RHS: cl.Minus(x)}})
		})
	}
	return len(viols) == 0, viols
}

// Project computes a cover of the FDs projected onto the attribute set:
// {X → X⁺ ∩ attrs : X ⊆ attrs}. Exponential; used by Decompose.
func Project(fds []FD, attrs AttrSet) []FD {
	var out []FD
	names := attrs.Sorted()
	for size := 1; size <= len(names); size++ {
		subsets(names, size, func(sub []string) {
			x := NewAttrSet(sub...)
			rhs := Closure(x, fds).Intersect(attrs).Minus(x)
			if len(rhs) > 0 {
				out = append(out, FD{LHS: x, RHS: rhs})
			}
		})
	}
	return out
}

// Decompose performs the classical BCNF decomposition: it repeatedly
// splits a schema on a violating FD X → Y into (X ∪ Y) and
// (Attrs − Y), until every fragment is in BCNF. The result is a
// lossless-join decomposition (dependency preservation is not
// guaranteed, as usual for BCNF).
func Decompose(s Schema, fds []FD) []Schema {
	ok, viols := IsBCNF(s, fds)
	if ok || len(s.Attrs) <= 2 {
		return []Schema{s}
	}
	v := viols[0].FD
	left := Schema{Name: s.Name + "1", Attrs: v.LHS.Union(v.RHS)}
	right := Schema{Name: s.Name + "2", Attrs: s.Attrs.Minus(v.RHS)}
	var out []Schema
	out = append(out, Decompose(left, Project(fds, left.Attrs))...)
	out = append(out, Decompose(right, Project(fds, right.Attrs))...)
	return out
}

// MinimalCover computes a minimal cover of the FD set: singleton RHS,
// no redundant FDs, no extraneous LHS attributes.
func MinimalCover(fds []FD) []FD {
	// Split RHS.
	var work []FD
	for _, f := range fds {
		for _, a := range f.RHS.Sorted() {
			if f.LHS.Contains(a) {
				continue
			}
			work = append(work, FD{LHS: f.LHS.Clone(), RHS: NewAttrSet(a)})
		}
	}
	// Remove extraneous LHS attributes.
	for i := range work {
		for _, a := range work[i].LHS.Sorted() {
			if len(work[i].LHS) == 1 {
				break
			}
			smaller := work[i].LHS.Minus(NewAttrSet(a))
			if Closure(smaller, work).ContainsAll(work[i].RHS) {
				work[i] = FD{LHS: smaller, RHS: work[i].RHS}
			}
		}
	}
	// Remove redundant FDs.
	var out []FD
	for i := range work {
		rest := append(append([]FD{}, out...), work[i+1:]...)
		if !Implies(rest, work[i]) {
			out = append(out, work[i])
		}
	}
	return out
}
