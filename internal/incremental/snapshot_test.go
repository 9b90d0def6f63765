package incremental

// White-box tests of what a commit publishes: a transaction that
// touched no cluster shares the previous epoch's sealed report, and a
// seal enters only the LHS groups the refcounts hold as conflicted.

import (
	"math/rand"
	"strings"
	"testing"

	"xmlnorm/internal/gen"
	"xmlnorm/internal/paperdata"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

// coursesSession hosts doc under the courses spec's Σ.
func coursesSession(t *testing.T, doc *xmltree.Tree) (*xfd.CheckerSet, *Session) {
	t.Helper()
	_, fds, _ := strings.Cut(paperdata.MustRead("courses.spec"), "%%\n")
	sigma, err := xfd.ParseSet(fds)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := xfd.NewCheckerSetFor(sigma)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cs, doc)
	if err != nil {
		t.Fatal(err)
	}
	return cs, s
}

// labelled returns the nodes with the label, in document order.
func labelled(tree *xmltree.Tree, label string) []*xmltree.Node {
	var out []*xmltree.Node
	tree.Walk(func(n *xmltree.Node, _ []string) bool {
		if n.Label == label {
			out = append(out, n)
		}
		return true
	})
	return out
}

// commitText sets one node's text in a transaction of its own.
func commitText(t *testing.T, s *Session, id xmltree.NodeID, text string) {
	t.Helper()
	tx := s.Begin()
	if err := tx.SetText(id, text); err != nil {
		_ = tx.Rollback()
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestGradeCommitCarriesReportForward breaks FD3 on the Figure 1
// document, puts the session in reporting mode, and commits a script
// that only sets a grade. No FD reads grades, so the commit touches no
// cluster, and the new epoch must share the previous epoch's sealed
// report slice instead of re-deriving it. A name commit, which no
// epoch can carry, must seal a report of its own.
func TestGradeCommitCarriesReportForward(t *testing.T) {
	tree, err := xmltree.ParseString(paperdata.MustRead("courses.xml"))
	if err != nil {
		t.Fatal(err)
	}
	cs, s := coursesSession(t, tree)
	names := labelled(s.Tree(), "name")
	commitText(t, s, names[0].ID, "Doe")
	prev := s.Snapshot() // enters reporting mode and seals the epoch
	if prev.Satisfied() {
		t.Fatal("renaming one Deere must violate FD3")
	}
	commitText(t, s, labelled(s.Tree(), "grade")[0].ID, "C")
	next := s.snap.Load()
	if next.Seq() != prev.Seq()+1 {
		t.Fatalf("grade commit published epoch %d after %d", next.Seq(), prev.Seq())
	}
	if got, want := next.report.Load(), prev.report.Load(); got != want {
		t.Fatalf("grade commit re-derived the report (%p), want the previous epoch's (%p)", got, want)
	}
	if got, want := xfd.CanonicalReport(next.Report()), xfd.CanonicalReport(cs.Violations(s.Tree())); got != want {
		t.Fatalf("carried report\n%s\ndiffers from a full pass\n%s", got, want)
	}

	commitText(t, s, names[1].ID, "Roe")
	if s.snap.Load().report.Load() == next.report.Load() {
		t.Fatal("a name commit carried the previous report forward")
	}
	if got, want := xfd.CanonicalReport(s.Report()), xfd.CanonicalReport(cs.Violations(s.Tree())); got != want {
		t.Fatalf("after a name commit, report\n%s\ndiffers from a full pass\n%s", got, want)
	}
}

// TestSealAllocs bounds what a one-name commit allocates on a violated
// 256-course, 8-student University session in reporting mode. The seal
// is most of it: walking FD3's tuples up to its first conflict, it
// enters only the one conflicted sno group, where a seal over every
// group clones the first tuple of each of the ~500 groups it meets.
func TestSealAllocs(t *testing.T) {
	doc := gen.University(256, 8, 512, 200, rand.New(rand.NewSource(1)))
	cs, s := coursesSession(t, doc)
	// Occurrences of a student who takes several courses: renaming one
	// breaks FD3.
	bySno := map[string][]*xmltree.Node{}
	for _, st := range labelled(s.Tree(), "student") {
		sno, _ := st.Attr("sno")
		bySno[sno] = append(bySno[sno], st)
	}
	var shared []*xmltree.Node
	for _, st := range labelled(s.Tree(), "student") {
		if sno, _ := st.Attr("sno"); len(bySno[sno]) > 1 {
			shared = append(shared, st)
		}
	}
	if len(shared) < 2 {
		t.Fatal("no student takes two courses")
	}
	commitText(t, s, shared[0].ChildrenLabelled("name")[0].ID, "renamed")
	if s.Snapshot().Satisfied() {
		t.Fatal("the rename must violate FD3")
	}
	name := shared[len(shared)-1].ChildrenLabelled("name")[0].ID
	flip := 0
	allocs := testing.AllocsPerRun(10, func() {
		flip++
		commitText(t, s, name, []string{"x", "y"}[flip%2])
	})
	if got, want := xfd.CanonicalReport(s.Report()), xfd.CanonicalReport(cs.Violations(s.Tree())); got != want {
		t.Fatalf("report\n%s\ndiffers from a full pass\n%s", got, want)
	}
	t.Logf("%.0f allocs per one-name commit", allocs)
	if allocs > 300 {
		t.Errorf("a one-name commit allocates %.0f objects, want <= 300", allocs)
	}
}
