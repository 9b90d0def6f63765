package xfd

// The group table behind both folds. Every checking path decides
// T ⊨ S1 → S2 by grouping tuples on their LHS key and testing RHS
// agreement inside each group: the witness fold (checkerset.go) and
// FoldState (fragment.go) both file each tuple's (LHS key, RHS key) in
// one groupTable per FD, and a group conflicts as soon as a second RHS
// key reaches it. The table holds one bounded entry per group — the
// finiteness of the per-path fold — and keeps no Go object per group:
// each group's key bytes are appended to one arena, an entry records
// where they lie, and open-addressing slots map a seeded hash of the
// LHS key to the entry. None of the three slices holds a pointer, so
// the garbage collector scans three slice headers per table whatever
// its size, and adding a group allocates nothing beyond amortized
// slice growth.

import (
	"bytes"
	"hash/maphash"
	"slices"
)

// groupSeed keys every table's hash. It is drawn once per process, so
// input crafted to collide cannot target one probe chain, and it is
// never written after initialization, so concurrent folds share it.
var groupSeed = maphash.MakeSeed()

// minGroupSlots is the slot count of a table's first allocation.
const minGroupSlots = 8

// groupTable maps each group's LHS key to its RHS key, iterating in
// insertion order. The zero value is an empty table.
type groupTable struct {
	// slots is a power-of-two array probed linearly. 0 marks an empty
	// slot; an occupied one holds the LHS key hash's bits above the
	// index mask (the tag) or'ed with the entry index plus one. The
	// load factor stays at most 3/4, so the index fits under the mask.
	slots   []uint64
	entries []groupEntry
	arena   []byte
}

// groupEntry locates one group's keys in the arena: the LHS key is
// arena[lhs:rhs], the RHS key arena[rhs:end]. Offsets are ints, so
// they do not wrap however long a stream the table grows over.
type groupEntry struct{ lhs, rhs, end int }

// newGroupTable returns an empty table with room for hint groups.
func newGroupTable(hint int) *groupTable {
	t := &groupTable{entries: make([]groupEntry, 0, hint)}
	n := minGroupSlots
	for n*3 < hint*4 {
		n *= 2
	}
	t.rehash(n)
	return t
}

// len returns the number of groups.
func (t *groupTable) len() int { return len(t.entries) }

// keys returns the LHS and RHS keys of entry e. They alias the arena,
// which puts only ever append to: do not modify them.
func (t *groupTable) keys(e int) (lhs, rhs []byte) {
	g := t.entries[e]
	return t.arena[g.lhs:g.rhs], t.arena[g.rhs:g.end]
}

// put files one tuple's keys, the one conflict test both folds share.
// When no group has LHS key lhs it adds one holding rhs and returns
// its entry index with added set; otherwise it leaves the table as it
// is and returns the group's entry, with conflict set when the group's
// RHS key differs from rhs. A hash tag match is confirmed by comparing
// the whole LHS key, so colliding hashes never merge two groups.
func (t *groupTable) put(lhs, rhs []byte) (e int, added, conflict bool) {
	if len(t.slots) == 0 {
		t.rehash(minGroupSlots)
	}
	h := maphash.Bytes(groupSeed, lhs)
	mask := uint64(len(t.slots) - 1)
	tag := h &^ mask
	i := h & mask
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		s := t.slots[i]
		if s&^mask != tag {
			continue
		}
		e = int(s&mask) - 1
		g := t.entries[e]
		if bytes.Equal(t.arena[g.lhs:g.rhs], lhs) {
			return e, false, !bytes.Equal(t.arena[g.rhs:g.end], rhs)
		}
	}
	e = len(t.entries)
	start := len(t.arena)
	t.arena = append(append(t.arena, lhs...), rhs...)
	t.entries = append(t.entries, groupEntry{lhs: start, rhs: start + len(lhs), end: len(t.arena)})
	if 4*len(t.entries) > 3*len(t.slots) {
		t.rehash(2 * len(t.slots))
	} else {
		t.slots[i] = tag | uint64(e+1)
	}
	return e, true, false
}

// rehash replaces the slots by n empty ones (a power of two above
// 4/3 of the entry count) and re-files every entry, hashing its LHS
// key again from the arena.
func (t *groupTable) rehash(n int) {
	t.slots = make([]uint64, n)
	mask := uint64(n - 1)
	for e, g := range t.entries {
		h := maphash.Bytes(groupSeed, t.arena[g.lhs:g.rhs])
		i := h & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = h&^mask | uint64(e+1)
	}
}

// reset empties the table, keeping its slices' capacity.
func (t *groupTable) reset() {
	clear(t.slots)
	t.entries = t.entries[:0]
	t.arena = t.arena[:0]
}

// byLHS returns the entry indices in ascending LHS-key order, the
// order of the canonical wire encoding.
func (t *groupTable) byLHS() []int {
	order := make([]int, len(t.entries))
	for e := range order {
		order[e] = e
	}
	slices.SortFunc(order, func(a, b int) int {
		ga, gb := t.entries[a], t.entries[b]
		return bytes.Compare(t.arena[ga.lhs:ga.rhs], t.arena[gb.lhs:gb.rhs])
	})
	return order
}
