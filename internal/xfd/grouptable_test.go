package xfd

import (
	"bytes"
	"hash/maphash"
	"math/rand"
	"sort"
	"testing"
)

// TestGroupTableMatchesMap holds the group table to a Go map over
// 30,000 puts of random LHS keys of 1–64 bytes: fresh keys, keys
// sharing a prefix with a known key, and known keys with only their
// last byte changed, so probes meet equal tags and near-equal keys.
// Every put of an absent key must add an entry at the next index,
// every put of a known key must find its entry, leave the table
// unchanged and report a conflict exactly when the RHS key differs.
// The puts grow the table from its first slots many times over; at the
// end the entries must iterate in insertion order and byLHS must sort
// them as sort.Strings sorts the keys.
func TestGroupTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	oracle := map[string]string{}
	var order []string // the oracle's keys in insertion order
	lhsKey := func() []byte {
		if len(order) == 0 {
			return randBytes(1 + rng.Intn(64))
		}
		known := []byte(order[rng.Intn(len(order))])
		switch rng.Intn(4) {
		case 0: // a known key
			return known
		case 1: // a known key's prefix with a fresh tail
			k := append([]byte(nil), known[:rng.Intn(len(known))]...)
			return append(k, randBytes(1+rng.Intn(64-len(k)))...)
		case 2: // a known key differing only in its last byte
			k := append([]byte(nil), known...)
			k[len(k)-1] ^= byte(1 + rng.Intn(255))
			return k
		}
		return randBytes(1 + rng.Intn(64))
	}
	var tab groupTable
	slotCounts := map[int]bool{}
	for i := 0; i < 30000; i++ {
		lhs := lhsKey()
		want, known := oracle[string(lhs)]
		rhs := randBytes(rng.Intn(4))
		if known && rng.Intn(2) == 0 {
			rhs = []byte(want)
		}
		e, added, conflict := tab.put(lhs, rhs)
		if !known {
			if !added || conflict || e != len(order) {
				t.Fatalf("put %d of absent key %x = (%d, %v, %v), want (%d, true, false)", i, lhs, e, added, conflict, len(order))
			}
			oracle[string(lhs)] = string(rhs)
			order = append(order, string(lhs))
		} else {
			if added || conflict != (want != string(rhs)) {
				t.Fatalf("put %d of known key %x with RHS %x (holding %x) = (%d, %v, %v)", i, lhs, rhs, want, e, added, conflict)
			}
			gotL, gotR := tab.keys(e)
			if !bytes.Equal(gotL, lhs) || string(gotR) != want {
				t.Fatalf("put %d of known key %x found entry %d holding (%x, %x), want RHS %x", i, lhs, e, gotL, gotR, want)
			}
		}
		if tab.len() != len(oracle) {
			t.Fatalf("after put %d the table holds %d groups, the map %d", i, tab.len(), len(oracle))
		}
		slotCounts[len(tab.slots)] = true
	}
	if len(slotCounts) < 8 {
		t.Fatalf("the table went through %d slot counts, want several growths", len(slotCounts))
	}
	for e, k := range order {
		lhs, rhs := tab.keys(e)
		if string(lhs) != k || string(rhs) != oracle[k] {
			t.Fatalf("entry %d holds (%x, %x), want insertion-order key %x with RHS %x", e, lhs, rhs, k, oracle[k])
		}
	}
	sorted := append([]string(nil), order...)
	sort.Strings(sorted)
	for i, e := range tab.byLHS() {
		if lhs, _ := tab.keys(e); string(lhs) != sorted[i] {
			t.Fatalf("byLHS position %d is key %x, want %x", i, lhs, sorted[i])
		}
	}
}

// TestGroupTableConfirmsTagMatches plants a slot at key b's home
// position carrying b's hash tag but naming key a's entry, the state a
// genuine hash collision leaves. Seeded hashes cannot be steered into
// colliding, so the collision is planted: put(b) must compare the whole
// key, probe on and add b as a group of its own.
func TestGroupTableConfirmsTagMatches(t *testing.T) {
	var tab groupTable
	tab.put([]byte("a"), []byte("1"))
	b := []byte("b")
	h := maphash.Bytes(groupSeed, b)
	mask := uint64(len(tab.slots) - 1)
	clear(tab.slots)
	tab.slots[h&mask] = h&^mask | 1 // entry 0 is a's
	if e, added, conflict := tab.put(b, []byte("2")); e != 1 || !added || conflict {
		t.Fatalf("put(b) after a planted tag match = (%d, %v, %v), want (1, true, false)", e, added, conflict)
	}
}
