package relational

import (
	"fmt"
	"math/bits"
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
// (together with subsets of X). FDs contribute X → A as X →→ A. The
// blocks are sorted by their rendering. It runs on the column-mask
// kernel, so U together with every other attribute X and the
// dependencies name may hold at most 64 attributes; a larger universe
// panics.
func DependencyBasis(x AttrSet, u AttrSet, fds []FD, mvds []MVD) []AttrSet {
	k := newMaskKernel(u.Sorted(), fds, mvds, x)
	xm := k.mask(x)
	blocks := k.basis(xm, k.closure(xm), k.mask(u))
	if len(blocks) == 0 {
		return nil
	}
	return k.sortedSets(blocks)
}

// ImpliesMVD decides whether X →→ Y follows from the FDs and MVDs over
// the universe U, via the dependency basis: it does when it is trivial
// or Y − X is a union of basis blocks. The universe limit of
// DependencyBasis applies, with q's attributes counted too.
func ImpliesMVD(u AttrSet, fds []FD, mvds []MVD, q MVD) bool {
	k := newMaskKernel(u.Sorted(), fds, mvds, q.LHS, q.RHS)
	um, x, y := k.mask(u), k.mask(q.LHS), k.mask(q.RHS)
	if y&^x == 0 || x|y == um {
		return true // trivial: Y ⊆ X or X ∪ Y = U, as TrivialMVD
	}
	target, covered := y&^x, uint64(0)
	for _, b := range k.basis(x, k.closure(x), um) {
		if b&^target == 0 {
			covered |= b
		}
	}
	return covered == target
}

// Is4NF checks fourth normal form: for every non-trivial implied MVD
// X →→ Y over the schema, X is a superkey. It sweeps attribute subsets
// by increasing size, each size in lexicographic order over the sorted
// names, and skips any subset containing an LHS already found to
// violate: such an X only repeats its subset's defect. The violations
// returned are therefore exactly those with an inclusion-minimal LHS,
// in sweep order, each subset's blocks sorted by their rendering; the
// verdict and the first violation are those of the exhaustive sweep.
//
// The sweep runs on column masks: the schema's attributes in sorted
// order, then any other attribute a dependency names, one bit each, so
// together they may number at most 64; a larger universe panics. A
// subset that yields no violation allocates nothing.
func Is4NF(s Schema, fds []FD, mvds []MVD) (bool, []MVD) {
	attrs := s.Attrs.Sorted()
	k := newMaskKernel(attrs, fds, mvds)
	n := len(attrs)
	all := k.mask(s.Attrs)
	bit := make([]uint64, n) // bit[i] is the mask of attrs[i]
	for i := range bit {
		bit[i] = 1 << i
	}
	var viols []MVD
	var bad []uint64 // the violating LHSs found so far
	for size := 1; size < n; size++ {
		subsets(bit, size, func(sub []uint64) {
			x := uint64(0)
			for _, b := range sub {
				x |= b
			}
			if v := k.violations(x, all, bad); v != nil {
				viols = append(viols, v...)
				bad = append(bad, x)
			}
		})
	}
	return len(viols) == 0, viols
}

// Decompose4NF splits on 4NF-violating MVDs until every fragment is in
// 4NF (with dependencies projected naively: FDs via Project, MVDs kept
// when their attributes survive — the standard textbook treatment).
// Each split is Is4NF's first violation, so Is4NF's limit of 64
// attributes applies.
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

// maxMaskAttrs is the most attributes the 4NF kernel can number: one
// bit of a uint64 column mask each.
const maxMaskAttrs = 64

// maskDep is a dependency compiled to column masks.
type maskDep struct{ lhs, rhs uint64 }

// maskKernel runs the 4NF sweep and the dependency basis on column
// masks over one numbered universe. Its block buffers are reused from
// one basis to the next, so one kernel serves one goroutine.
type maskKernel struct {
	names []string       // bit i is attribute names[i]
	bit   map[string]int // the inverse of names
	fds   []maskDep      // the FDs, for closures
	deps  []maskDep      // the MVDs, then the FDs: the refinement order
	// blocks and next hold a basis under refinement; at most 64 blocks
	// each, so they never grow.
	blocks, next []uint64
}

// newMaskKernel numbers first (sorted names) as bits 0, 1, …, then
// every other attribute the dependencies or more name, sorted, and
// compiles each FD and MVD to one mask pair. It panics when the
// universe exceeds maxMaskAttrs.
func newMaskKernel(first []string, fds []FD, mvds []MVD, more ...AttrSet) *maskKernel {
	k := &maskKernel{names: first, bit: make(map[string]int, len(first))}
	for i, a := range first {
		k.bit[a] = i
	}
	others := AttrSet{}
	note := func(s AttrSet) {
		for a := range s {
			if _, ok := k.bit[a]; !ok {
				others[a] = true
			}
		}
	}
	for _, f := range fds {
		note(f.LHS)
		note(f.RHS)
	}
	for _, m := range mvds {
		note(m.LHS)
		note(m.RHS)
	}
	for _, s := range more {
		note(s)
	}
	if n := len(first) + len(others); n > maxMaskAttrs {
		panic(fmt.Sprintf("relational: %d attributes exceed the 4NF kernel's limit of %d (one bit of a uint64 each)", n, maxMaskAttrs))
	}
	k.names = append(k.names[:len(first):len(first)], others.Sorted()...)
	for i, a := range k.names[len(first):] {
		k.bit[a] = len(first) + i
	}
	for _, m := range mvds {
		k.deps = append(k.deps, maskDep{k.mask(m.LHS), k.mask(m.RHS)})
	}
	for _, f := range fds {
		d := maskDep{k.mask(f.LHS), k.mask(f.RHS)}
		k.fds = append(k.fds, d)
		k.deps = append(k.deps, d)
	}
	k.blocks = make([]uint64, 0, maxMaskAttrs)
	k.next = make([]uint64, 0, maxMaskAttrs)
	return k
}

// mask returns the bits of a set's attributes, which must be numbered.
func (k *maskKernel) mask(s AttrSet) uint64 {
	m := uint64(0)
	for a := range s {
		m |= 1 << k.bit[a]
	}
	return m
}

// set returns the attributes of a mask.
func (k *maskKernel) set(m uint64) AttrSet {
	s := make(AttrSet, bits.OnesCount64(m))
	for ; m != 0; m &= m - 1 {
		s[k.names[bits.TrailingZeros64(m)]] = true
	}
	return s
}

// sortedSets converts basis blocks to attribute sets sorted by their
// rendering.
func (k *maskKernel) sortedSets(blocks []uint64) []AttrSet {
	out := make([]AttrSet, len(blocks))
	for i, b := range blocks {
		out[i] = k.set(b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// closure computes X⁺ under the FDs (the standard fixpoint).
func (k *maskKernel) closure(x uint64) uint64 {
	for changed := true; changed; {
		changed = false
		for _, f := range k.fds {
			if x&f.lhs == f.lhs && x&f.rhs != f.rhs {
				x |= f.rhs
				changed = true
			}
		}
	}
	return x
}

// basis refines U − X into the dependency basis of X, whose closure
// X⁺ is xplus, and returns its blocks in refinement order, in a buffer
// the next call reuses. Each
// pass splits, dependency by dependency, every block B with
// B ∩ LHS = ∅ that the RHS cuts into B ∩ RHS and B − RHS; then every
// attribute of X⁺ − X becomes a singleton block, in sorted order ahead
// of its block's rest. Passes repeat until one changes nothing.
func (k *maskKernel) basis(x, xplus, u uint64) []uint64 {
	rest := u &^ x
	if rest == 0 {
		return nil
	}
	det := xplus & rest
	blocks, next := append(k.blocks[:0], rest), k.next
	for changed := true; changed; {
		changed = false
		for _, d := range k.deps {
			next = next[:0]
			for _, b := range blocks {
				in, out := b&d.rhs, b&^d.rhs
				if b&d.lhs == 0 && in != 0 && out != 0 {
					next = append(next, in, out)
					changed = true
				} else {
					next = append(next, b)
				}
			}
			blocks, next = next, blocks
		}
		next = next[:0]
		for _, b := range blocks {
			fd, rest := b&det, b&^det
			if fd == 0 || (rest == 0 && fd&(fd-1) == 0) {
				next = append(next, b)
				continue
			}
			for ; fd != 0; fd &= fd - 1 {
				next = append(next, fd&-fd)
			}
			if rest != 0 {
				next = append(next, rest)
			}
			changed = true
		}
		blocks, next = next, blocks
	}
	k.blocks, k.next = blocks, next
	return blocks
}

// violations decides one subset X of the sweep over the schema all:
// nil when X contains a violating LHS in bad, is a superkey, or has
// only the trivial basis block all − X; otherwise the violations
// X →→ B, one per basis block, sorted by rendering.
func (k *maskKernel) violations(x, all uint64, bad []uint64) []MVD {
	for _, v := range bad {
		if x&v == v {
			return nil
		}
	}
	xplus := k.closure(x)
	if xplus&all == all {
		return nil // superkey
	}
	blocks := k.basis(x, xplus, all)
	if len(blocks) < 2 {
		return nil // one block, all − X: trivial
	}
	lhs := k.set(x)
	out := make([]MVD, 0, len(blocks))
	for _, b := range k.sortedSets(blocks) {
		out = append(out, MVD{LHS: lhs, RHS: b})
	}
	return out
}
