package incremental_test

// Seeded differential suite for the delta engine: ≥1000 random edit
// scripts, each replayed through a Session, asserting after EVERY edit
// that the incremental report — violated FDs, Σ order, witness tuples
// — is bit-identical to a from-scratch CheckerSet pass over the
// current tree, sequential AND sharded at several worker counts. Two
// document families: random simple DTDs (attribute-heavy, arbitrary
// shapes, edits routinely outside any FD's sight) and the paper's
// university family (text leaves, so SetText deltas are load-bearing).
// Runs under -race in CI, which also stresses the sharded comparison
// passes.

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/incremental"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

// sameReports fails unless the two violation reports are identical:
// same FDs in the same order with binary-identical witness tuples.
func sameReports(t *testing.T, want, got []xfd.Violated, context string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: full pass reports %d violations, compared %d", context, len(want), len(got))
	}
	var ka, kb []byte
	for i := range want {
		if !want[i].FD.Equal(got[i].FD) {
			t.Fatalf("%s: violation %d: FD %s vs %s", context, i, want[i].FD, got[i].FD)
		}
		for w := 0; w < 2; w++ {
			ka = want[i].Witness[w].AppendKey(ka[:0])
			kb = got[i].Witness[w].AppendKey(kb[:0])
			if !bytes.Equal(ka, kb) {
				t.Fatalf("%s: violation %d witness %d differs:\n full %s\n got  %s",
					context, i, w, want[i].Witness[w].Canonical(), got[i].Witness[w].Canonical())
			}
		}
	}
}

// allNodes collects the current nodes in document order.
func allNodes(tree *xmltree.Tree) []*xmltree.Node {
	var out []*xmltree.Node
	tree.Walk(func(n *xmltree.Node, _ []string) bool {
		out = append(out, n)
		return true
	})
	return out
}

func subtreeSize(n *xmltree.Node) int {
	total := 1
	for _, c := range n.Children {
		total += subtreeSize(c)
	}
	return total
}

// editor is the mutation surface Session and Txn share; randomEdit
// drives either, so the per-edit and batched-transaction paths replay
// the same script distribution.
type editor interface {
	Tree() *xmltree.Tree
	SetAttr(id xmltree.NodeID, name, value string) error
	SetText(id xmltree.NodeID, text string) error
	InsertSubtree(parentID xmltree.NodeID, sub *xmltree.Node) error
	DeleteSubtree(id xmltree.NodeID) error
}

// randomEdit applies one random edit through the editor, returning
// false when the drawn edit was not applicable (nothing mutated).
// Values are drawn from a small pool so collisions — the only way
// violations appear and disappear — are common.
func randomEdit(t *testing.T, ed editor, rng *rand.Rand) bool {
	t.Helper()
	nodes := allNodes(ed.Tree())
	n := nodes[rng.Intn(len(nodes))]
	vals := []string{"0", "1", "2"}
	switch rng.Intn(4) {
	case 0: // setattr
		names := []string{"k", "v"}
		if err := ed.SetAttr(n.ID, names[rng.Intn(2)], vals[rng.Intn(len(vals))]); err != nil {
			t.Fatalf("SetAttr: %v", err)
		}
	case 1: // settext, on childless nodes only
		if len(n.Children) > 0 {
			return false
		}
		if err := ed.SetText(n.ID, vals[rng.Intn(len(vals))]); err != nil {
			t.Fatalf("SetText: %v", err)
		}
	case 2: // insert a clone of an existing subtree under a random parent
		src := nodes[rng.Intn(len(nodes))]
		if subtreeSize(src) > 8 || n.HasText {
			return false
		}
		if tuples.CountTuples(ed.Tree(), 0) > 1500 {
			return false // keep the full-pass comparisons cheap
		}
		if err := ed.InsertSubtree(n.ID, src.Clone()); err != nil {
			t.Fatalf("InsertSubtree: %v", err)
		}
	default: // delete
		if n == ed.Tree().Root {
			return false
		}
		if err := ed.DeleteSubtree(n.ID); err != nil {
			t.Fatalf("DeleteSubtree: %v", err)
		}
	}
	return true
}

// checkStep compares the session against from-scratch passes on the
// current tree: sequential and sharded at 1, 2 and 4 workers.
func checkStep(t *testing.T, cs *xfd.CheckerSet, s *incremental.Session, where string) {
	t.Helper()
	want := cs.Violations(s.Tree())
	sameReports(t, want, s.Report(), where+" (incremental)")
	if s.Satisfied() != (len(want) == 0) {
		t.Fatalf("%s: Satisfied() = %v with %d violations", where, s.Satisfied(), len(want))
	}
	for _, workers := range []int{1, 2, 4} {
		sharded, err := cs.ViolationsShardedCtx(context.Background(), s.Tree(), workers)
		if err != nil {
			t.Fatal(err)
		}
		sameReports(t, want, sharded, where+" (sharded)")
	}
}

// runScript drives one random edit script to completion, checking
// verdict and witness identity after every applied edit, then replays
// a batched-transaction phase over the same document.
func runScript(t *testing.T, cs *xfd.CheckerSet, s *incremental.Session, rng *rand.Rand, edits int) {
	t.Helper()
	checkStep(t, cs, s, "initial")
	applied := 0
	for tries := 0; applied < edits && tries < 4*edits; tries++ {
		if !randomEdit(t, s, rng) {
			continue
		}
		applied++
		checkStep(t, cs, s, "after edit")
	}
	runTxnBatches(t, cs, s, rng, 2)
}

// runTxnBatches drives batches of edits through open transactions,
// asserting MID-transaction that a Snapshot pinned before Begin — and
// every reader-facing method of the Session — still reports the
// pre-transaction epoch bit-identically, and that commit publishes
// (rollback restores) a state identical to a from-scratch pass.
func runTxnBatches(t *testing.T, cs *xfd.CheckerSet, s *incremental.Session, rng *rand.Rand, batches int) {
	t.Helper()
	for b := 0; b < batches; b++ {
		want := cs.Violations(s.Tree()) // pre-txn ground truth
		preCanon := s.Tree().Canonical()
		pinned := s.Snapshot()
		tx := s.Begin()
		applied := 0
		for tries := 0; applied < 3 && tries < 12; tries++ {
			if !randomEdit(t, tx, rng) {
				continue
			}
			applied++
			// The uncommitted edit must be invisible to every reader.
			sameReports(t, want, pinned.Report(), "pinned snapshot mid-txn")
			sameReports(t, want, s.Report(), "session reader mid-txn")
			if got := s.Snapshot().Seq(); got != pinned.Seq() {
				t.Fatalf("mid-txn epoch moved: %d -> %d", pinned.Seq(), got)
			}
		}
		if rng.Intn(3) == 0 {
			if err := tx.Rollback(); err != nil {
				t.Fatalf("Rollback: %v", err)
			}
			if got := s.Tree().Canonical(); got != preCanon {
				t.Fatalf("rollback did not restore the tree:\n pre %s\n got %s", preCanon, got)
			}
			if got := s.Snapshot().Seq(); got != pinned.Seq() {
				t.Fatalf("rollback published an epoch: %d -> %d", pinned.Seq(), got)
			}
			checkStep(t, cs, s, "after rollback")
		} else {
			if err := tx.Commit(); err != nil {
				t.Fatalf("Commit: %v", err)
			}
			if got := s.Snapshot().Seq(); got != pinned.Seq()+1 {
				t.Fatalf("commit published epoch %d, want %d", got, pinned.Seq()+1)
			}
			checkStep(t, cs, s, "after commit")
		}
		if err := tx.Commit(); err != incremental.ErrTxnFinished {
			t.Fatalf("second finish returned %v, want ErrTxnFinished", err)
		}
	}
}

// TestDifferentialRandomDTD replays ≥800 random edit scripts over
// random-simple-DTD documents with random Σ.
func TestDifferentialRandomDTD(t *testing.T) {
	rng := rand.New(rand.NewSource(20020609))
	scripts := 0
	for scripts < 800 {
		d := gen.RandomSimpleDTD(rng)
		doc, err := gen.Document(d, rng, 2, 3)
		if err != nil {
			t.Fatalf("gen.Document: %v", err)
		}
		if tuples.CountTuples(doc, 0) > 500 {
			continue
		}
		scripts++
		u, err := paths.New(d)
		if err != nil {
			t.Fatal(err)
		}
		all, err := d.Paths()
		if err != nil {
			t.Fatal(err)
		}
		sigma := make([]xfd.FD, 3)
		for k := range sigma {
			var f xfd.FD
			for j := 0; j < 1+rng.Intn(2); j++ {
				f.LHS = append(f.LHS, all[rng.Intn(len(all))])
			}
			f.RHS = []dtd.Path{all[rng.Intn(len(all))]}
			sigma[k] = f
		}
		cs, err := xfd.NewCheckerSet(u, sigma)
		if err != nil {
			t.Fatalf("NewCheckerSet: %v", err)
		}
		s, err := incremental.New(cs, doc)
		if err != nil {
			t.Fatalf("incremental.New: %v", err)
		}
		runScript(t, cs, s, rng, 5)
	}
}

// TestDifferentialUniversity replays ≥200 random edit scripts over the
// paper's university family with the Section 4 FDs — the family where
// SetText deltas (student names under FD3) actually carry the verdict.
func TestDifferentialUniversity(t *testing.T) {
	rng := rand.New(rand.NewSource(20020610))
	cs, err := xfd.NewCheckerSetFor(coursesSigma(t))
	if err != nil {
		t.Fatal(err)
	}
	for script := 0; script < 200; script++ {
		doc := gen.University(2+rng.Intn(3), 2, 4, 2, rng)
		s, err := incremental.New(cs, doc)
		if err != nil {
			t.Fatalf("incremental.New: %v", err)
		}
		runScript(t, cs, s, rng, 5)
	}
}
