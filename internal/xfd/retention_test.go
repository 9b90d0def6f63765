package xfd

// Regression tests for the violated-groups drop: once an FD is
// violated, its LHS group table can never influence a verdict again
// (violation is absorbing under Merge), so every fold path nils it
// out. These tests pin that contract white-box — the table must be
// nil, not merely unread — and bound the live heap of long-lived
// states folded from violating documents, so a sweep that holds many
// states stops retaining dead group tables.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"xmlnorm/internal/xmltree"
)

// violatingDoc builds <r> with n "c" children whose @k are distinct
// except for the last pair, so the fold accumulates n-2 groups before
// the violation lands on the final tuple.
func violatingDoc(t *testing.T, n int) *xmltree.Tree {
	t.Helper()
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&b, "<c k=\"k%d\"/>", i)
	}
	fmt.Fprintf(&b, "<c k=\"k%d\"/>", n-2)
	b.WriteString("</r>")
	doc, err := xmltree.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestViolatedGroupsDropped asserts the group map is nil — dropped,
// not just ignored — after a violation lands through FoldFragment,
// through Merge, and through UnmarshalFoldState.
func TestViolatedGroupsDropped(t *testing.T) {
	// Two FDs so the walk survives the first FD's violation: the
	// second never conflicts (its RHS is its LHS) and keeps streaming.
	sigma := []FD{
		New([]string{"r.c.@k"}, []string{"r.c"}),
		New([]string{"r.c"}, []string{"r.c"}),
	}
	cs, err := NewCheckerSetFor(sigma)
	if err != nil {
		t.Fatal(err)
	}
	doc := violatingDoc(t, 64)

	st := cs.NewFoldState()
	if err := st.FoldFragment(context.Background(), Fragment{Tree: doc}); err != nil {
		t.Fatal(err)
	}
	if !st.fds[0].violated || st.fds[0].groups != nil {
		t.Fatalf("FoldFragment: violated FD retains groups map (violated=%v, groups=%v)",
			st.fds[0].violated, st.fds[0].groups != nil)
	}
	if st.fds[1].violated || st.fds[1].groups == nil {
		t.Fatalf("FoldFragment: satisfied FD must keep its groups")
	}

	// Merge-detected conflict: each half is conflict-free, but "dup"
	// maps to a different element position in each, so the merge sees
	// the rep mismatch and must drop the map.
	half := func(s string) *FoldState {
		d, err := xmltree.ParseString(s)
		if err != nil {
			t.Fatal(err)
		}
		fs := cs.NewFoldState()
		if err := fs.FoldFragment(context.Background(), Fragment{Tree: d}); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	a := half("<r><c k=\"dup\"/></r>")
	b := half("<r><c k=\"other\"/><c k=\"dup\"/></r>")
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !a.fds[0].violated || a.fds[0].groups != nil {
		t.Fatalf("Merge: violated FD retains groups map")
	}

	// A violated flag absorbing an incoming state drops the dst map too.
	c := half("<r><c k=\"x\"/></r>")
	if err := c.Merge(a); err != nil {
		t.Fatal(err)
	}
	if !c.fds[0].violated || c.fds[0].groups != nil {
		t.Fatalf("Merge: absorbing a violated state retains groups map")
	}

	// And the wire round trip keeps it dropped.
	blob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := cs.UnmarshalFoldState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !back.fds[0].violated || back.fds[0].groups != nil {
		t.Fatalf("UnmarshalFoldState: violated FD retains groups map")
	}
}

// TestViolatedStatesRetainLittle is the retention regression: holding
// many FoldStates folded from documents that accumulate thousands of
// groups BEFORE violating must cost almost nothing, because the
// violation drops the maps. If the nil-out regressed, the 16 states
// below would retain ~16×4000 group entries (several MB); the bound
// gives an order of magnitude of headroom over the dropped cost.
func TestViolatedStatesRetainLittle(t *testing.T) {
	sigma := []FD{
		New([]string{"r.c.@k"}, []string{"r.c"}),
		New([]string{"r.c"}, []string{"r.c"}),
	}
	cs, err := NewCheckerSetFor(sigma)
	if err != nil {
		t.Fatal(err)
	}
	doc := violatingDoc(t, 4000)

	liveHeap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	states := make([]*FoldState, 16)
	base := liveHeap()
	for i := range states {
		states[i] = cs.NewFoldState()
		if err := states[i].FoldFragment(context.Background(), Fragment{Tree: doc}); err != nil {
			t.Fatal(err)
		}
		// Drop the satisfied FD's map too: this test measures what a
		// violated fold retains, and FD 1 legitimately keeps ~4000
		// live entries per state.
		states[i].fds[1].groups = nil
	}
	after := liveHeap()
	var grown uint64
	if after > base { // GC churn can shrink the heap below base
		grown = after - base
	}
	runtime.KeepAlive(states)
	for i := range states {
		if !states[i].fds[0].violated || states[i].fds[0].groups != nil {
			t.Fatalf("state %d retains its violated groups map", i)
		}
	}
	// 16 retained maps of ~4000 entries would be well past 4 MB.
	if grown > 4<<20 {
		t.Fatalf("16 violated fold states retain %d bytes of heap, want (almost) none", grown)
	}
}
