package tuples

import (
	"math/bits"
	"slices"
	"unsafe"

	"xmlnorm/internal/paths"
)

// Slab keeps copies of tuples over one universe in flat slices, so
// keeping a tuple allocates nothing beyond the slices' amortized
// growth, where Clone allocates a bitset and a value slice per tuple.
// A fold that keeps one tuple per group (the witness fold's first
// tuples) keeps them here and recycles the slab with its table. The
// zero value is empty.
type Slab struct {
	u      *paths.Universe
	words  []uint64 // each tuple's set, len(set) words apiece
	vals   []Value  // each tuple's non-null values, in ascending ID order
	starts []int    // where each tuple's values begin in vals
}

// Add keeps a copy of t, which must be over the universe of the
// tuples the slab already keeps, as the slab's last tuple.
func (s *Slab) Add(t Tuple) {
	s.u = t.u
	s.starts = append(s.starts, len(s.vals))
	s.words = append(s.words, t.set...)
	// Grow by doubling: append grows a large slice by about a quarter
	// at a time, which would copy a slab of many tuples several times.
	if n := t.set.Count(); cap(s.vals)-len(s.vals) < n {
		s.vals = slices.Grow(s.vals, len(s.vals)+n)
	}
	for i, w := range t.set {
		for ; w != 0; w &= w - 1 {
			s.vals = append(s.vals, t.vals[i<<6|bits.TrailingZeros64(w)])
		}
	}
}

// Tuple returns a copy of the i-th tuple kept. The copy shares no
// memory with the slab, so it stays valid after Reset.
func (s *Slab) Tuple(i int) Tuple {
	t := NewTuple(s.u)
	n := len(t.set)
	copy(t.set, s.words[i*n:(i+1)*n])
	v := s.starts[i]
	for j, w := range t.set {
		for ; w != 0; w &= w - 1 {
			t.vals[j<<6|bits.TrailingZeros64(w)] = s.vals[v]
			v++
		}
	}
	return t
}

// Reset empties the slab, keeping its slices' capacity. The values
// are cleared, so a reset slab holds no string of the tuples it kept.
func (s *Slab) Reset() {
	clear(s.vals)
	s.u, s.words, s.vals, s.starts = nil, s.words[:0], s.vals[:0], s.starts[:0]
}

// Bytes returns the capacity of the slab's slices in bytes.
func (s *Slab) Bytes() int {
	return 8*cap(s.words) + int(unsafe.Sizeof(Value{}))*cap(s.vals) + 8*cap(s.starts)
}
