package paths

import "math/bits"

// Set is a bitset over the IDs of one Universe. The zero value is an
// empty set that grows on Add; universes hand out pre-sized sets via
// NewSet/SetOf. Operations tolerate operands of different word lengths
// (missing high words read as zero), so sets from the same universe
// always compose even if one was grown lazily.
type Set []uint64

// NewSet returns an empty set sized for n IDs.
func NewSet(n int) Set { return make(Set, (n+63)/64) }

// Add inserts an ID, growing the set if needed.
func (s *Set) Add(id ID) {
	w := int(id) >> 6
	for w >= len(*s) {
		*s = append(*s, 0)
	}
	(*s)[w] |= 1 << (uint(id) & 63)
}

// Remove deletes an ID; absent IDs are a no-op.
func (s Set) Remove(id ID) {
	w := int(id) >> 6
	if w < len(s) {
		s[w] &^= 1 << (uint(id) & 63)
	}
}

// Has reports membership.
func (s Set) Has(id ID) bool {
	w := int(id) >> 6
	return w < len(s) && s[w]&(1<<(uint(id)&63)) != 0
}

// Or unions o into s in place, growing s if o is longer.
func (s *Set) Or(o Set) {
	for len(*s) < len(o) {
		*s = append(*s, 0)
	}
	for i, w := range o {
		(*s)[i] |= w
	}
}

// And intersects o into s in place.
func (s Set) And(o Set) {
	for i := range s {
		if i < len(o) {
			s[i] &= o[i]
		} else {
			s[i] = 0
		}
	}
}

// AndNot removes o's members from s in place.
func (s Set) AndNot(o Set) {
	for i := range s {
		if i < len(o) {
			s[i] &^= o[i]
		}
	}
}

// SubsetOf reports s ⊆ o.
func (s Set) SubsetOf(o Set) bool {
	for i, w := range s {
		var ow uint64
		if i < len(o) {
			ow = o[i]
		}
		if w&^ow != 0 {
			return false
		}
	}
	return true
}

// Equal reports set equality.
func (s Set) Equal(o Set) bool {
	long, short := s, o
	if len(long) < len(short) {
		long, short = short, long
	}
	for i, w := range long {
		var sw uint64
		if i < len(short) {
			sw = short[i]
		}
		if w != sw {
			return false
		}
	}
	return true
}

// Empty reports whether no ID is set.
func (s Set) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of IDs in the set.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns a copy.
func (s Set) Clone() Set { return append(Set(nil), s...) }

// ForEach calls f for every member in ascending ID order.
func (s Set) ForEach(f func(ID)) {
	for i, w := range s {
		base := ID(i << 6)
		for w != 0 {
			f(base + ID(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// IDs returns the members in ascending order.
func (s Set) IDs() []ID {
	out := make([]ID, 0, s.Count())
	s.ForEach(func(id ID) { out = append(out, id) })
	return out
}

// AppendWords appends the set's words to dst in little-endian byte
// order, dropping trailing zero words first so that equal sets always
// serialize identically regardless of allocation length. Used to build
// binary tuple keys (tuples.Tuple.AppendKey).
func (s Set) AppendWords(dst []byte) []byte {
	n := len(s)
	for n > 0 && s[n-1] == 0 {
		n--
	}
	for _, w := range s[:n] {
		dst = append(dst,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return dst
}
