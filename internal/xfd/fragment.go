package xfd

// Fragment-local checking: the per-FD fold as a first-class,
// mergeable, serializable value. Everything the fold inspects about an
// LHS group is whether two members disagree on the RHS, and RHS
// agreement is an equivalence relation, so a FoldState keeps one
// serializable RHS key per group instead of the witness fold's first
// tuple (checkerset.go). The fold then factors over any partition of
// the projection stream: fold each part into its own FoldState and
// Merge the states — a group violates iff some pair of per-part
// representatives of one LHS key disagrees. The witness fold stays
// separate because a reader cannot re-read its input to find the
// witness it dropped; a FoldState's verdict is turned into witnesses by
// WitnessReport on the tree instead.
//
// SplitFragments produces such a partition structurally: it splits the
// document at ONE top-level sibling group (a relevant root-child
// label), giving each fragment a contiguous run of that group's
// children plus every child of every other label. For clusters whose
// projection chooses in that group, the fragment streams partition the
// full stream as a multiset (tuples.StreamPinned's factorization);
// for clusters that ignore the group, every fragment replays the full
// stream — k identical folds, which neither create nor destroy
// conflicts and merge idempotently. Either way the merged verdict is
// the whole-document verdict, so a document distributed as fragments
// (Abiteboul–Gottlob–Manna, Distributed XML Design) checks as
// independently computed states combined associatively — in process
// (CheckerSet.ViolationsShardedCtx) or across processes
// (internal/distrib).
//
// Portability: positional keys are only for states that leave the
// process. Fragments share the document's nodes, so in process a
// vertex's ID names the same node in every fragment, and
// ViolationsShardedCtx folds each fragment keyed by vertex ID, as
// Verdict does. A state that is marshaled (FoldFragment's, which
// /fold, the distributed coordinator and the corpus and distribution
// experiments ship) never embeds process-minted vertex IDs: an element
// value is keyed by its positional address — the spine of
// per-label sibling ordinals from the root (the root itself is the
// empty spine; each step records the node's index among its same-label
// siblings). Within one label path — and an FD side always compares
// values at one fixed path — the address identifies a node uniquely
// and content-independently, so re-encoding vertices as addresses is
// injective exactly where the fold compares them and the verdict is
// unchanged. A Fragment carries the global starting ordinal of its run
// of the split sibling group (Fragment.Start); FoldFragment offsets
// the depth-1 ordinals of that label by it, which places every node of
// every fragment back into whole-document coordinates: children of
// other labels ride along whole and in original order, and subtrees
// are intact, so all other ordinals already agree. States folded in
// different processes — each with its own vertex IDs, even from a
// serialize/reparse round trip — therefore merge soundly with no
// restriction on FD shape; the cross-process differential suite
// (internal/distrib) holds merged remote states bit-identical to the
// local whole-document fold.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"

	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xmltree"
)

// foldStateMagic versions the FoldState wire encoding.
const foldStateMagic = "xnfFS1\x00"

// FoldState is the outcome of folding some sub-multiset of a
// document's projected tuples under one compiled CheckerSet: per FD, a
// violated flag plus one RHS-class representative per LHS group. It is
// the value a fragment-local checker computes and ships; states over
// the same CheckerSet merge associatively and commutatively with
// Merge, and serialize with MarshalBinary. The zero value is not
// usable; start from CheckerSet.NewFoldState or
// CheckerSet.UnmarshalFoldState.
type FoldState struct {
	cs  *CheckerSet
	fds []fdFold
}

// fdFold is one FD's share of the state. groups maps the fold's LHS
// key to the RHS-class key of the group's representative; once
// violated is set the table is irrelevant (violation is absorbing
// under Merge) and is dropped — FoldFragment, Merge and
// UnmarshalFoldState all nil it out, so a long-lived state for a
// violating document retains no dead group table.
type fdFold struct {
	groups   *groupTable
	violated bool
}

// Fragment is one independently checkable piece of a document, as
// SplitFragments produces them: a tree holding a contiguous run of the
// split sibling group plus everything else, the label of the group
// that was split, and the run's global starting ordinal within that
// per-label group — the offset FoldFragment applies so fold keys
// address nodes in whole-document coordinates. A whole document is the
// fragment {Tree, "", 0}.
type Fragment struct {
	Tree  *xmltree.Tree
	Label string
	Start int
}

// NewFoldState returns an empty fold state for the set: the state of
// zero tuples, the identity of Merge.
func (cs *CheckerSet) NewFoldState() *FoldState {
	st := &FoldState{cs: cs, fds: make([]fdFold, len(cs.fds))}
	for i := range st.fds {
		st.fds[i].groups = &groupTable{}
	}
	return st
}

// FoldFragment folds one fragment into the state through fold, for a
// state that leaves the process: element values are keyed by their
// positional address offset by f.Start (see the package comment), so a
// state folded from the whole document {t, "", 0} decides each FD
// exactly like CheckerSet.Check, and states folded from
// SplitFragments' fragments — in this process or any other — merge to
// the whole-document verdict. States that stay in the process need no
// addresses (CheckerSet.ViolationsShardedCtx folds by vertex ID). Folding several fragments
// into one state is equivalent to folding each into its own state and
// merging. ctx is checked before the fold and per tuple; on
// cancellation FoldFragment returns the context's error and the state
// is partial: discard it, never merge or ship it.
func (st *FoldState) FoldFragment(ctx context.Context, f Fragment) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var addrs map[xmltree.NodeID]string
	if st.cs.elemSides {
		addrs = fragmentAddrs(f)
	}
	return st.fold(ctx, f.Tree, addrs, nil)
}

// fold is the one accumulator loop behind FoldFragment,
// CheckerSet.Verdict and the fragment folds of
// CheckerSet.ViolationsShardedCtx: every cluster whose root label matches t's
// streams its projection once, and each tuple's (LHS key, RHS key)
// lands in the group tables of the cluster's FDs. Element values are
// keyed by their entry in addrs, or by vertex ID when addrs is nil.
// A cluster walk short-circuits once all its FDs are violated
// (violation is absorbing). onViolation, when non-nil, sees each FD index as it becomes
// violated; returning false stops the whole fold there. ctx is checked
// per tuple; its error is returned and leaves the state partial.
func (st *FoldState) fold(ctx context.Context, t *xmltree.Tree, addrs map[xmltree.NodeID]string, onViolation func(i int) bool) error {
	cs := st.cs
	done := ctx.Done()
	var err error
	stopped := false
	for ci := range cs.clusters {
		cl := &cs.clusters[ci]
		if cl.label != t.Root.Label {
			continue
		}
		remaining := 0
		for _, fi := range cl.fds {
			if !st.fds[fi].violated {
				remaining++
			}
		}
		if remaining == 0 {
			continue
		}
		var lhsBuf, rhsBuf []byte
		cl.pr.Stream(t, func(tup tuples.Tuple) bool {
			if done != nil {
				select {
				case <-done:
					err = ctx.Err()
					return false
				default:
				}
			}
			for _, fi := range cl.fds {
				fd := &st.fds[fi]
				if fd.violated {
					continue
				}
				lhsK, rhsK, applies := cs.fds[fi].appendFoldKeys(tup, addrs, lhsBuf[:0], rhsBuf[:0])
				lhsBuf, rhsBuf = lhsK, rhsK
				if !applies {
					continue
				}
				if _, _, conflict := fd.groups.put(lhsK, rhsK); !conflict {
					continue
				}
				fd.violated = true
				fd.groups = nil
				remaining--
				if onViolation != nil && !onViolation(fi) {
					stopped = true
					return false
				}
			}
			return remaining > 0
		})
		if err != nil || stopped {
			return err
		}
	}
	return nil
}

// fragmentAddrs assigns every node of the fragment its positional
// address: the spine of per-label sibling ordinals from the root,
// encoded as a uvarint sequence (the root is the empty spine). Depth-1
// children carrying the fragment's split label have their ordinal
// offset by f.Start, which puts the whole table into whole-document
// coordinates; all other ordinals are already global because children
// of other labels ride along whole and in order, and subtrees are
// intact.
func fragmentAddrs(f Fragment) map[xmltree.NodeID]string {
	addrs := make(map[xmltree.NodeID]string)
	addrs[f.Tree.Root.ID] = ""
	var walk func(n *xmltree.Node, prefix []byte, depth int)
	walk = func(n *xmltree.Node, prefix []byte, depth int) {
		if len(n.Children) == 0 {
			return
		}
		counts := make(map[string]int, 4)
		for _, c := range n.Children {
			ord := counts[c.Label]
			counts[c.Label]++
			if depth == 0 && c.Label == f.Label {
				ord += f.Start
			}
			// Full-slice the prefix so sibling appends never share
			// backing arrays.
			addr := binary.AppendUvarint(prefix[:len(prefix):len(prefix)], uint64(ord))
			addrs[c.ID] = string(addr)
			walk(c, addr, depth+1)
		}
	}
	walk(f.Tree.Root, nil, 0)
	return addrs
}

// Merge folds another state into this one. Merge is associative and
// commutative on verdicts: a violated flag absorbs, and an LHS group
// becomes violated as soon as two representatives with distinct RHS
// classes meet — since within a conflict-free part every member of a
// group RHS-agrees with its representative and RHS agreement is
// transitive, the merged verdict per FD is exactly the verdict of
// folding the union multiset. Both states must come from the same
// CheckerSet (or its UnmarshalFoldState); other is not mutated and
// remains usable.
func (st *FoldState) Merge(other *FoldState) error {
	if other.cs != st.cs || len(other.fds) != len(st.fds) {
		return fmt.Errorf("xfd: merging fold states of different checker sets")
	}
	for fi := range st.fds {
		dst, src := &st.fds[fi], &other.fds[fi]
		if dst.violated {
			continue
		}
		if src.violated {
			dst.violated, dst.groups = true, nil
			continue
		}
		for e := range src.groups.len() {
			if _, _, conflict := dst.groups.put(src.groups.keys(e)); conflict {
				dst.violated, dst.groups = true, nil
				break
			}
		}
	}
	return nil
}

// ViolatedSet returns the indices (Σ order) of the FDs the folded
// multiset violates, as the set WitnessReport consumes; nil when it
// satisfies Σ. On a state folded from a whole document — or merged
// from fragments of one — this is exactly the violated set of
// CheckerSet.Violations.
func (st *FoldState) ViolatedSet() map[int]bool {
	var out map[int]bool
	for fi := range st.fds {
		if st.fds[fi].violated {
			if out == nil {
				out = make(map[int]bool)
			}
			out[fi] = true
		}
	}
	return out
}

// MarshalBinary serializes the state: a magic header, the FD count,
// then per FD the violated flag and the (LHS key, RHS class) pairs in
// strictly ascending LHS-key order. The encoding is canonical — two
// states marshal to identical bytes iff they carry identical verdicts
// and group representatives — which is what lets the differential
// suites assert cross-process merges bit-identical to local folds.
func (st *FoldState) MarshalBinary() ([]byte, error) {
	out := []byte(foldStateMagic)
	out = binary.AppendUvarint(out, uint64(len(st.fds)))
	for fi := range st.fds {
		f := &st.fds[fi]
		if f.violated {
			out = append(out, 1)
			continue
		}
		out = append(out, 0)
		out = binary.AppendUvarint(out, uint64(f.groups.len()))
		for _, e := range f.groups.byLHS() {
			lhsK, rhsK := f.groups.keys(e)
			out = binary.AppendUvarint(out, uint64(len(lhsK)))
			out = append(out, lhsK...)
			out = binary.AppendUvarint(out, uint64(len(rhsK)))
			out = append(out, rhsK...)
		}
	}
	return out, nil
}

// UnmarshalFoldState decodes a state MarshalBinary produced, bound to
// this CheckerSet. The encoding carries the FD count as a cheap guard;
// it is the caller's contract that the bytes were marshaled under an
// identically compiled set (same Σ in the same order). Only the bytes
// MarshalBinary writes decode, so every accepted state re-marshals to
// its own input: a violated flag is 0 or 1, every uvarint is in its
// shortest form, and each FD's LHS keys are strictly ascending. The
// last matters for verdicts too: a state listing one group twice could
// otherwise carry two RHS classes for it and still decode as satisfied.
func (cs *CheckerSet) UnmarshalFoldState(data []byte) (*FoldState, error) {
	if len(data) < len(foldStateMagic) || string(data[:len(foldStateMagic)]) != foldStateMagic {
		return nil, fmt.Errorf("xfd: fold state: bad magic")
	}
	data = data[len(foldStateMagic):]
	readUvarint := func() (uint64, error) {
		v, k := binary.Uvarint(data)
		if k <= 0 {
			return 0, fmt.Errorf("xfd: fold state: truncated")
		}
		// The shortest form never ends in a zero continuation byte.
		if k > 1 && data[k-1] == 0 {
			return 0, fmt.Errorf("xfd: fold state: not canonical: overlong uvarint")
		}
		data = data[k:]
		return v, nil
	}
	n, err := readUvarint()
	if err != nil {
		return nil, err
	}
	if n != uint64(len(cs.fds)) {
		return nil, fmt.Errorf("xfd: fold state: encoded for %d FDs, checker set has %d", n, len(cs.fds))
	}
	readBytes := func() ([]byte, error) {
		l, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if uint64(len(data)) < l {
			return nil, fmt.Errorf("xfd: fold state: truncated")
		}
		b := data[:l]
		data = data[l:]
		return b, nil
	}
	st := &FoldState{cs: cs, fds: make([]fdFold, len(cs.fds))}
	for fi := range st.fds {
		if len(data) == 0 {
			return nil, fmt.Errorf("xfd: fold state: truncated")
		}
		flag := data[0]
		data = data[1:]
		if flag > 1 {
			return nil, fmt.Errorf("xfd: fold state: not canonical: FD %d's violated flag is %d", fi, flag)
		}
		if flag == 1 {
			st.fds[fi].violated = true
			continue
		}
		groups, err := readUvarint()
		if err != nil {
			return nil, err
		}
		// The count is untrusted: size the table by what the remaining
		// bytes can hold (two length prefixes per group), not by it.
		tab := newGroupTable(int(min(groups, uint64(len(data))/2)))
		var prev []byte
		for g := uint64(0); g < groups; g++ {
			lhsK, err := readBytes()
			if err != nil {
				return nil, err
			}
			rhsK, err := readBytes()
			if err != nil {
				return nil, err
			}
			if g > 0 && bytes.Compare(prev, lhsK) >= 0 {
				return nil, fmt.Errorf("xfd: fold state: not canonical: FD %d's LHS keys are not strictly ascending", fi)
			}
			tab.put(lhsK, rhsK)
			prev = lhsK
		}
		st.fds[fi].groups = tab
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("xfd: fold state: %d trailing bytes", len(data))
	}
	return st, nil
}

// SplitFragments splits the document at one top-level sibling group
// into at most k independently checkable fragments: it picks the
// relevant root-child label (a label some applicable cluster's
// projection chooses in) with the most children and deals that group's
// children into contiguous runs, one per fragment; every child of
// every other label — and the root itself, shared shallow copies with
// the original's ID, attributes and text — rides along in each
// fragment, so no fragment fabricates an empty relevant group (an
// empty group would project spurious ⊥ choices the whole document
// never makes). Each fragment records the split label and its run's
// global starting ordinal, which FoldFragment needs to key element
// values in whole-document coordinates. Folding each fragment into a
// FoldState and merging yields the whole document's verdict; see the
// fragment.go package comment for why. When nothing is splittable
// (k < 2, no applicable cluster, or no relevant group with two
// children) the document is returned as the single whole fragment.
// Fragments share the original's nodes: safe to fold concurrently, not
// to mutate.
func (cs *CheckerSet) SplitFragments(t *xmltree.Tree, k int) []Fragment {
	label := ""
	if k >= 2 {
		counts := make(map[string]int, 8)
		for _, c := range t.Root.Children {
			counts[c.Label]++
		}
		bestN := 1
		for ci := range cs.clusters {
			cl := &cs.clusters[ci]
			if cl.label != t.Root.Label {
				continue
			}
			for _, l := range cl.pr.RootChoiceLabels() {
				if n := counts[l]; n > bestN {
					label, bestN = l, n
				}
			}
		}
	}
	if label == "" {
		return []Fragment{{Tree: t}}
	}
	var mine, others []*xmltree.Node
	for _, c := range t.Root.Children {
		if c.Label == label {
			mine = append(mine, c)
		} else {
			others = append(others, c)
		}
	}
	if k > len(mine) {
		k = len(mine)
	}
	frags := make([]Fragment, 0, k)
	for f := 0; f < k; f++ {
		// Contiguous runs covering mine exactly once.
		lo, hi := f*len(mine)/k, (f+1)*len(mine)/k
		root := &xmltree.Node{
			ID:      t.Root.ID,
			Label:   t.Root.Label,
			Attrs:   t.Root.Attrs,
			Text:    t.Root.Text,
			HasText: t.Root.HasText,
		}
		root.Children = make([]*xmltree.Node, 0, hi-lo+len(others))
		root.Children = append(append(root.Children, mine[lo:hi]...), others...)
		frags = append(frags, Fragment{Tree: &xmltree.Tree{Root: root}, Label: label, Start: lo})
	}
	return frags
}
