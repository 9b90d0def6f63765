package xfd

// CheckerSet decides T ⊨ Σ for a whole FD set in a minimal number of
// streaming tree walks. Checking |Σ| dependencies one at a time walks
// the document |Σ| times and re-projects overlapping paths. A
// CheckerSet partitions Σ into clusters of FDs whose paths share
// document branches (connected components over common second path
// steps), compiles one union projection per cluster, streams its
// tuples once (tuples.Projector.Stream — no cross product, no
// MaxTuples ceiling), and folds every tuple into one group table per
// FD (grouptable.go), short-circuiting each FD at its first conflict
// and each walk once all of its FDs are decided. Overlapping FDs (the
// common case: a spec's dependencies concentrate on a few subtrees)
// are thus decided in ONE walk, while FDs over disjoint branches keep
// separate projections — a union projection across disjoint branches
// would multiply their choice points instead of adding them. The
// sharded mode splits the document into fragments (SplitFragments),
// folds each into a FoldState on the shared worker pool
// (internal/pool) and merges the states (fragment.go).

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/pool"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xmltree"
)

// compiledFD is one FD of the set with its sides looked up as path IDs
// and its common root label (the shared first step of all its
// paths; "" when the first steps are mixed, which makes the FD
// trivially satisfied on every document — no tree has two root labels,
// so its projection is always empty).
type compiledFD struct {
	fd   FD
	lhs  []paths.ID
	rhs  []paths.ID
	root string
}

// cluster bundles FDs with a common root label whose paths are
// connected through shared two-step prefixes, plus the union projector
// that feeds all of them. A document with that root label is checked
// against the cluster in a single stream; on any other document the
// cluster's FDs are vacuously satisfied.
type cluster struct {
	label string
	pr    *tuples.Projector
	fds   []int // indices into CheckerSet.fds, in Σ order
}

// CheckerSet is a compiled satisfaction check for a whole FD set over
// one path universe. Build once, reuse across trees: a CheckerSet is
// read-only after construction and safe for concurrent use.
type CheckerSet struct {
	fds      []compiledFD
	clusters []cluster
	// elemSides reports whether any FD side mentions an element-valued
	// path — only then does FoldFragment need a positional address
	// table (fragment.go); attribute/text-only sets fold with zero
	// addressing overhead.
	elemSides bool
}

// NewCheckerSet compiles sigma against the universe. Every path of
// every FD must be interned in the universe; each is looked up once.
func NewCheckerSet(u *paths.Universe, sigma []FD) (*CheckerSet, error) {
	cs := &CheckerSet{fds: make([]compiledFD, 0, len(sigma))}
	for _, f := range sigma {
		cf := compiledFD{fd: f, root: commonRoot(f)}
		if cf.root != "" {
			var err error
			if cf.lhs, err = lookupSide(u, f, f.LHS); err != nil {
				return nil, err
			}
			if cf.rhs, err = lookupSide(u, f, f.RHS); err != nil {
				return nil, err
			}
			for _, ids := range [2][]paths.ID{cf.lhs, cf.rhs} {
				for _, id := range ids {
					if u.KindOf(id) == paths.ElemKind {
						cs.elemSides = true
					}
				}
			}
		}
		cs.fds = append(cs.fds, cf)
	}
	if err := cs.buildClusters(u); err != nil {
		return nil, err
	}
	return cs, nil
}

// commonRoot returns the first step every path of f shares, or "" when
// the first steps are mixed or f has no path at all.
func commonRoot(f FD) string {
	root, first := "", true
	for _, side := range [2][]dtd.Path{f.LHS, f.RHS} {
		for _, p := range side {
			if first {
				root, first = p[0], false
			} else if p[0] != root {
				return ""
			}
		}
	}
	return root
}

// lookupSide looks up one side of f in the universe, in order.
func lookupSide(u *paths.Universe, f FD, side []dtd.Path) ([]paths.ID, error) {
	ids := make([]paths.ID, len(side))
	for i, p := range side {
		id, ok := u.Lookup(p)
		if !ok {
			return nil, fmt.Errorf("xfd: %s: %q is not in the path universe", f, p)
		}
		ids[i] = id
	}
	return ids, nil
}

// buildClusters partitions the applicable FDs into connected
// components: two FDs land in one cluster iff they have the same root
// label and their path sets are linked (transitively) through a shared
// two-step prefix. Sharing any deeper branch implies sharing the whole
// prefix including the second step, so these components are exactly
// the FD groups whose union projection opens no choice point that only
// one side needs. Each cluster projects the union of its FDs' paths,
// de-duplicated by ID in Σ order, LHS before RHS, first appearance
// first: that order fixes the projector, and with it the enumeration
// order and the witnesses.
func (cs *CheckerSet) buildClusters(u *paths.Universe) error {
	parent := make([]int, len(cs.fds))
	for i := range parent {
		parent[i] = i
	}
	var find func(i int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		if ra, rb := find(a), find(b); ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra // lowest Σ index wins: deterministic order
		}
	}
	byPrefix := map[paths.ID]int{} // two-step prefix -> first FD index
	for i := range cs.fds {
		cf := &cs.fds[i]
		if cf.root == "" {
			continue
		}
		for _, ids := range [2][]paths.ID{cf.lhs, cf.rhs} {
			for _, id := range ids {
				if u.DepthOf(id) < 2 {
					continue
				}
				for u.DepthOf(id) > 2 {
					id = u.ParentOf(id)
				}
				if first, ok := byPrefix[id]; ok {
					union(i, first)
				} else {
					byPrefix[id] = i
				}
			}
		}
	}
	clusterOf := map[int]int{} // representative FD index -> cluster index
	var unionPaths [][]dtd.Path
	var seen []paths.Set
	for i := range cs.fds {
		cf := &cs.fds[i]
		if cf.root == "" {
			continue
		}
		r := find(i)
		ci, ok := clusterOf[r]
		if !ok {
			ci = len(cs.clusters)
			clusterOf[r] = ci
			cs.clusters = append(cs.clusters, cluster{label: cf.root})
			unionPaths = append(unionPaths, nil)
			seen = append(seen, u.NewSet())
		}
		cs.clusters[ci].fds = append(cs.clusters[ci].fds, i)
		for _, ids := range [2][]paths.ID{cf.lhs, cf.rhs} {
			for _, id := range ids {
				if !seen[ci].Has(id) {
					seen[ci].Add(id)
					unionPaths[ci] = append(unionPaths[ci], u.PathOf(id))
				}
			}
		}
	}
	for ci := range cs.clusters {
		pr, err := tuples.NewProjector(u, unionPaths[ci])
		if err != nil {
			return fmt.Errorf("xfd: checker set: %v", err)
		}
		cs.clusters[ci].pr = pr
	}
	return nil
}

// Len returns the number of FDs in the set.
func (cs *CheckerSet) Len() int { return len(cs.fds) }

// FDAt returns the i-th compiled dependency (Σ order).
func (cs *CheckerSet) FDAt(i int) FD { return cs.fds[i].fd }

// Check decides every FD of the set against the document, one
// streaming walk per cluster of branch-sharing FDs (a single walk when
// all of Σ overlaps). Each violated FD is reported exactly once
// through onViolation with its index into the set (Σ order) and a
// witness pair of projected tuples that agree on the FD's LHS
// (non-null) but differ on its RHS — the first such conflict in
// enumeration order. Violations are reported in discovery order, which
// interleaves FDs; onViolation returning false aborts the whole check
// (remaining FDs stay unreported). onViolation may be nil. Each walk
// short-circuits as soon as all of its cluster's FDs are decided.
func (cs *CheckerSet) Check(t *xmltree.Tree, onViolation func(i int, witness [2]tuples.Tuple) bool) {
	_ = cs.check(context.Background(), t, nil, onViolation) // never cancelled
}

// GroupFilter restricts a witness pass. It decides only the FDs (Σ
// indices) it holds: each over every LHS group when its key set is
// nil, or over just the groups whose LHS keys (AppendFoldKeys'
// encoding) its set holds; a group outside the set is never entered,
// so none of its tuples is cloned. Every conflict lies in a group
// holding two RHS classes, so a set containing all of an FD's
// conflicted groups leaves its first conflict in enumeration order,
// and with it the witness, unchanged.
type GroupFilter map[int]map[string]struct{}

// allGroups is the filter that decides the FDs of a violated set over
// all their groups.
func allGroups(bad map[int]bool) GroupFilter {
	f := make(GroupFilter, len(bad))
	for fi := range bad {
		f[fi] = nil
	}
	return f
}

// check is Check restricted by filter (every FD over every group when
// filter is nil), the walk behind violations. ctx is checked per
// tuple; once it is done every walk stops and its error is returned.
func (cs *CheckerSet) check(ctx context.Context, t *xmltree.Tree, filter GroupFilter, onViolation func(i int, witness [2]tuples.Tuple) bool) error {
	aborted := false
	for ci := range cs.clusters {
		cl := &cs.clusters[ci]
		if cl.label != t.Root.Label {
			continue
		}
		if fold, release := cs.witnessFold(ctx.Done(), cl, filter, &aborted, onViolation); fold != nil {
			cl.pr.Stream(t, fold)
			release()
		}
		if aborted {
			break
		}
	}
	return ctx.Err()
}

// witnessGroups is one FD's share of a witness fold: its group table
// and, in entry order, each group's first tuple.
type witnessGroups struct {
	tab    groupTable
	firsts tuples.Slab
}

// witnessTables recycles witness folds' tables between walks. A sweep
// checks many small documents, and growing every table from empty for
// each of them cost the fold more than its probes did; a recycled
// table keeps its slices' capacity. As with fmt's printer buffers, a
// table past maxRecycledBytes is left to the garbage collector, so one
// large document does not pin its tables under later small ones.
var witnessTables = sync.Pool{New: func() any { return new(witnessGroups) }}

// maxRecycledBytes bounds the slot, key and first-tuple bytes of a
// recycled table.
const maxRecycledBytes = 64 << 10

// recycle empties g and returns it to witnessTables, unless it grew too
// large to keep. The first tuples are cleared, so a recycled table
// holds no reference into the walk that used it.
func (g *witnessGroups) recycle() {
	if 8*len(g.tab.slots)+cap(g.tab.arena)+g.firsts.Bytes() > maxRecycledBytes {
		return
	}
	g.tab.reset()
	g.firsts.Reset()
	witnessTables.Put(g)
}

// witnessFold returns the per-tuple fold of one cluster, restricted by
// filter (every FD over every group when nil), and release, which the
// caller runs once the walk is over to hand the fold's tables back to
// witnessTables; both are nil when none of the cluster's FDs is left
// to decide. Per FD the fold keeps each LHS group's first tuple — a
// reader cannot re-read its input, so the witness must be kept as the
// fold goes — and reports the first tuple whose RHS key differs from
// the group's. A tuple's RHS key is encoded only once its LHS key is
// complete and its group passes the filter. Tree walks
// (Projector.Stream) and token streams (Projector.StartTokens) drive
// the same fold, so both report the same witnesses. aborted is shared
// by every cluster of one check: set when onViolation asks to stop or
// done is closed (checked per tuple; nil for a check that cannot be
// cancelled), it stops them all.
func (cs *CheckerSet) witnessFold(done <-chan struct{}, cl *cluster, filter GroupFilter, aborted *bool, onViolation func(i int, witness [2]tuples.Tuple) bool) (fold func(tuples.Tuple) bool, release func()) {
	// Per FD: its tables, nil when the fold does not decide it or has
	// decided it.
	groups := make([]*witnessGroups, len(cl.fds))
	var keep []map[string]struct{} // per FD: the groups to enter, nil for all; nil when unfiltered
	remaining := 0
	for li, fi := range cl.fds {
		keys, in := filter[fi]
		if filter != nil && !in {
			continue
		}
		groups[li] = witnessTables.Get().(*witnessGroups)
		remaining++
		if keys != nil {
			if keep == nil {
				keep = make([]map[string]struct{}, len(cl.fds))
			}
			keep[li] = keys
		}
	}
	if remaining == 0 {
		return nil, nil
	}
	release = func() {
		for li, g := range groups {
			if g != nil {
				g.recycle()
				groups[li] = nil
			}
		}
	}
	var lhsBuf, rhsBuf []byte
	fold = func(tup tuples.Tuple) bool {
		if *aborted {
			return false
		}
		if done != nil {
			select {
			case <-done:
				*aborted = true
				return false
			default:
			}
		}
		for li, fi := range cl.fds {
			g := groups[li]
			if g == nil {
				continue
			}
			cf := &cs.fds[fi]
			lhsK, ok := appendKey(lhsBuf[:0], tup, cf.lhs, nil)
			lhsBuf = lhsK
			if !ok {
				continue // some LHS value is ⊥: the FD does not apply
			}
			if keep != nil && keep[li] != nil {
				if _, in := keep[li][string(lhsK)]; !in {
					continue // a group the filter leaves out
				}
			}
			rhsK, _ := appendKey(rhsBuf[:0], tup, cf.rhs, nil)
			rhsBuf = rhsK
			e, added, conflict := g.tab.put(lhsK, rhsK)
			if added {
				// The stream reuses its scratch tuple; the slab copies it.
				g.firsts.Add(tup)
				continue
			}
			if !conflict {
				continue
			}
			// Copied out of the slab before the table goes back to the
			// pool, where another walk may take it at once.
			first := g.firsts.Tuple(e)
			g.recycle() // dead once violated: free it mid-walk
			groups[li] = nil
			remaining--
			if onViolation != nil && !onViolation(fi, [2]tuples.Tuple{first, tup.Clone()}) {
				*aborted = true
				return false
			}
		}
		return remaining > 0
	}
	return fold, release
}

// appendKey is the one fold-key encoder: it appends a self-delimiting
// encoding of the tuple's values at ids to dst — per value, tag 0 for
// ⊥, tag 2 plus the length-prefixed string, or tag 1 plus the vertex:
// its NodeID as a uvarint, or, given an address table, its
// length-prefixed positional address (fragment.go). complete is false
// when some value is ⊥; an LHS key is then unusable (the FD does not
// apply), while an RHS key keeps its 0 tags, so present and absent
// values differ.
func appendKey(dst []byte, tup tuples.Tuple, ids []paths.ID, addrs map[xmltree.NodeID]string) (key []byte, complete bool) {
	complete = true
	for _, id := range ids {
		v, ok := tup.GetID(id)
		switch {
		case !ok:
			dst = append(dst, 0)
			complete = false
		case !v.IsNode():
			s := v.Str()
			dst = append(dst, 2)
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		case addrs != nil:
			a := addrs[v.Node()]
			dst = append(dst, 1)
			dst = binary.AppendUvarint(dst, uint64(len(a)))
			dst = append(dst, a...)
		default:
			dst = append(dst, 1)
			dst = binary.AppendUvarint(dst, uint64(v.Node()))
		}
	}
	return dst, complete
}

// AppendKey is appendKey's NodeID form, for callers that group the
// tuples of one tree by their values at ids outside a fold: a vertex
// encodes as its NodeID, a string behind its length, a ⊥ as tag 0.
// complete is false when some value is ⊥.
func AppendKey(dst []byte, tup tuples.Tuple, ids []paths.ID) (key []byte, complete bool) {
	return appendKey(dst, tup, ids, nil)
}

// appendFoldKeys computes the FD's keys for one tuple through
// appendKey: the LHS key it groups by and an RHS key that is equal
// between two tuples exactly when their RHS values agree, each value
// present in both and equal or absent from both. applies is false when
// some LHS value is ⊥.
func (cf *compiledFD) appendFoldKeys(tup tuples.Tuple, addrs map[xmltree.NodeID]string, lhsDst, rhsDst []byte) (lhsK, rhsK []byte, applies bool) {
	lhsK, applies = appendKey(lhsDst, tup, cf.lhs, addrs)
	if !applies {
		return lhsK, rhsDst, false
	}
	rhsK, _ = appendKey(rhsDst, tup, cf.rhs, addrs)
	return lhsK, rhsK, true
}

// Verdict decides every FD of the set against the document without
// witnesses: it returns the indices (Σ order) of the violated FDs, nil
// when T ⊨ Σ. It runs FoldState's accumulator keyed by vertex IDs, so
// each LHS group keeps one RHS key and no tuple is cloned — the path
// for callers that read only which FDs fail. onViolation, when non-nil,
// sees each FD index as it is found violated (discovery order);
// returning false ends the check there, and the set then holds the
// violations found so far. Verdict(t, nil) is exactly the violated set
// of Violations.
func (cs *CheckerSet) Verdict(t *xmltree.Tree, onViolation func(i int) bool) map[int]bool {
	st := cs.NewFoldState()
	_ = st.fold(context.Background(), t, nil, onViolation) // never cancelled
	return st.ViolatedSet()
}

// SatisfiesAll checks T ⊨ Σ verdict-only (see Verdict), stopping at
// the first violated FD.
func (cs *CheckerSet) SatisfiesAll(t *xmltree.Tree) bool {
	return cs.Verdict(t, func(int) bool { return false }) == nil
}

// Violations checks every FD and returns the violated ones with
// witnesses, in Σ order. A valid document yields nil.
func (cs *CheckerSet) Violations(t *xmltree.Tree) []Violated {
	out, _ := cs.violations(context.Background(), t, nil) // never cancelled
	return out
}

// violations runs the witness fold restricted by filter (every FD
// over every group when filter is nil) and returns the violated ones
// with their witnesses, in Σ order. ctx is checked per tuple; once it
// is done the context's error is returned with a nil report.
func (cs *CheckerSet) violations(ctx context.Context, t *xmltree.Tree, filter GroupFilter) ([]Violated, error) {
	witnesses := make(map[int][2]tuples.Tuple, len(filter))
	if err := cs.check(ctx, t, filter, func(i int, w [2]tuples.Tuple) bool {
		witnesses[i] = w
		return true
	}); err != nil {
		return nil, err
	}
	return cs.report(witnesses), nil
}

func (cs *CheckerSet) report(witnesses map[int][2]tuples.Tuple) []Violated {
	var out []Violated
	for i := range cs.fds {
		if w, ok := witnesses[i]; ok {
			out = append(out, Violated{FD: cs.fds[i].fd, Witness: w})
		}
	}
	return out
}

// ViolationsShardedCtx is Violations with the verdict fold fanned out
// over up to workers goroutines: SplitFragments cuts the document into
// up to workers fragments, each folds into its own FoldState on the
// pool, the states Merge into the whole document's verdict, and
// WitnessReport re-derives the witnesses for the violated FDs only —
// so the report, witnesses included, is identical to Violations' at
// any worker count, and documents that satisfy Σ (the common case)
// never pay for the witness pass. The fragments share the document's
// nodes and their states never leave the process, so each folds keyed
// by vertex ID, as Verdict does: no positional address is built (only
// FoldFragment, whose states are marshaled, pays for those). With
// nothing to split (workers <= 1, or no relevant root sibling group
// with two children) it runs the witness fold alone, as Violations
// does. Every pass — fragment folds and witness fold alike — checks
// ctx per tuple, the form a server uses so shutdown and per-request
// deadlines stop in-flight checks: once ctx is cancelled no fragment
// is started or merged, and the context's error is returned with a nil
// report.
func (cs *CheckerSet) ViolationsShardedCtx(ctx context.Context, t *xmltree.Tree, workers int) ([]Violated, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	frags := cs.SplitFragments(t, workers)
	if len(frags) == 1 {
		return cs.violations(ctx, t, nil)
	}
	states := make([]*FoldState, len(frags))
	if err := pool.ForEachCtx(ctx, workers, len(frags), func(i int) error {
		states[i] = cs.NewFoldState()
		return states[i].fold(ctx, frags[i].Tree, nil, nil)
	}); err != nil {
		return nil, err
	}
	for _, st := range states[1:] {
		if err := states[0].Merge(st); err != nil {
			return nil, err
		}
	}
	bad := states[0].ViolatedSet()
	if len(bad) == 0 {
		return nil, nil
	}
	return cs.violations(ctx, t, allGroups(bad))
}
