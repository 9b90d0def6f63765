package incremental_test

// Unit tests for the delta engine on the paper's running example: the
// courses document and the three FDs of Section 4. The differential
// suite (differential_test.go) carries the correctness burden over
// random documents and edit scripts; here the contracts are pinned on
// scenarios whose verdicts are known by hand — violation in, violation
// out, group open/close transitions, typed errors, report identity.

import (
	"bytes"
	"errors"
	"testing"

	"xmlnorm/internal/incremental"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

const coursesDoc = `<courses>
  <course cno="csc258">
    <title>Computer Organization</title>
    <taken_by>
      <student sno="st1"><name>Deere</name><grade>A+</grade></student>
      <student sno="st2"><name>Smith</name><grade>B-</grade></student>
    </taken_by>
  </course>
  <course cno="mat100">
    <title>Calculus</title>
    <taken_by>
      <student sno="st1"><name>Deere</name><grade>A</grade></student>
    </taken_by>
  </course>
</courses>`

func coursesSigma(t *testing.T) []xfd.FD {
	t.Helper()
	sigma, err := xfd.ParseSet(`
courses.course.@cno -> courses.course
courses.course, courses.course.taken_by.student.@sno -> courses.course.taken_by.student
courses.course.taken_by.student.@sno -> courses.course.taken_by.student.name.S
`)
	if err != nil {
		t.Fatal(err)
	}
	return sigma
}

// newSession builds a (CheckerSet, Session) pair over the courses
// example.
func newSession(t *testing.T, doc string) (*xfd.CheckerSet, *incremental.Session) {
	t.Helper()
	tree, err := xmltree.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := xfd.NewCheckerSetFor(coursesSigma(t))
	if err != nil {
		t.Fatal(err)
	}
	s, err := incremental.New(cs, tree)
	if err != nil {
		t.Fatal(err)
	}
	return cs, s
}

// checkAgainstFull fails unless the session's verdict and report are
// bit-identical to a from-scratch pass over the current tree.
func checkAgainstFull(t *testing.T, cs *xfd.CheckerSet, s *incremental.Session, context string) {
	t.Helper()
	want := cs.Violations(s.Tree())
	got := s.Report()
	if len(got) != len(want) {
		t.Fatalf("%s: session reports %d violations, full pass %d", context, len(got), len(want))
	}
	var ka, kb []byte
	for i := range want {
		if !got[i].FD.Equal(want[i].FD) {
			t.Fatalf("%s: violation %d: %s vs %s", context, i, got[i].FD, want[i].FD)
		}
		for w := 0; w < 2; w++ {
			ka = got[i].Witness[w].AppendKey(ka[:0])
			kb = want[i].Witness[w].AppendKey(kb[:0])
			if !bytes.Equal(ka, kb) {
				t.Fatalf("%s: violation %d witness %d differs:\n session %s\n full    %s",
					context, i, w, got[i].Witness[w].Canonical(), want[i].Witness[w].Canonical())
			}
		}
	}
	if s.Satisfied() != (len(want) == 0) {
		t.Fatalf("%s: Satisfied() = %v with %d violations", context, s.Satisfied(), len(want))
	}
}

// findNode returns the first node (document order) satisfying pred.
func findNode(tree *xmltree.Tree, pred func(*xmltree.Node) bool) *xmltree.Node {
	var found *xmltree.Node
	tree.Walk(func(n *xmltree.Node, _ []string) bool {
		if found == nil && pred(n) {
			found = n
		}
		return found == nil
	})
	return found
}

func TestSessionAttrEditRoundTrip(t *testing.T) {
	cs, s := newSession(t, coursesDoc)
	if !s.Satisfied() || s.Report() != nil {
		t.Fatal("the courses example satisfies Σ")
	}
	checkAgainstFull(t, cs, s, "initial")

	// Collide the two course numbers: FD1 (cno -> course) breaks.
	c2 := findNode(s.Tree(), func(n *xmltree.Node) bool {
		v, _ := n.Attr("cno")
		return v == "mat100"
	})
	if err := s.SetAttr(c2.ID, "cno", "csc258"); err != nil {
		t.Fatal(err)
	}
	if s.Satisfied() {
		t.Fatal("duplicate cno must violate FD1")
	}
	if v := s.Violated(); len(v) != 1 || v[0] != 0 {
		t.Fatalf("Violated() = %v, want [0]", v)
	}
	checkAgainstFull(t, cs, s, "after collision")

	// Revert: satisfied again, group maps back in balance.
	if err := s.SetAttr(c2.ID, "cno", "mat100"); err != nil {
		t.Fatal(err)
	}
	if !s.Satisfied() {
		t.Fatal("reverting the edit must restore satisfaction")
	}
	checkAgainstFull(t, cs, s, "after revert")
}

func TestSessionTextEdit(t *testing.T) {
	cs, s := newSession(t, coursesDoc)
	// st1 takes both courses; renaming one of the two <name> leaves
	// breaks FD3 (sno -> name.S).
	name := findNode(s.Tree(), func(n *xmltree.Node) bool { return n.Label == "name" })
	if err := s.SetText(name.ID, "Doe"); err != nil {
		t.Fatal(err)
	}
	if s.Satisfied() {
		t.Fatal("diverging names for one sno must violate FD3")
	}
	if v := s.Violated(); len(v) != 1 || v[0] != 2 {
		t.Fatalf("Violated() = %v, want [2]", v)
	}
	checkAgainstFull(t, cs, s, "after rename")
	if err := s.SetText(name.ID, "Deere"); err != nil {
		t.Fatal(err)
	}
	if !s.Satisfied() {
		t.Fatal("restoring the name must restore satisfaction")
	}
	checkAgainstFull(t, cs, s, "after restore")
}

// TestPinnedSnapshotKeepsItsReport pins a violated epoch before the
// session has produced any report, lets a healing commit displace it,
// and asks the pinned snapshot for its report afterwards: it must be
// that epoch's own, not the satisfied successor's.
func TestPinnedSnapshotKeepsItsReport(t *testing.T) {
	cs, s := newSession(t, coursesDoc)
	name := findNode(s.Tree(), func(n *xmltree.Node) bool { return n.Label == "name" })
	if err := s.SetText(name.ID, "Doe"); err != nil {
		t.Fatal(err)
	}
	want := cs.Violations(s.Tree())
	pinned := s.Snapshot()
	if err := s.SetText(name.ID, "Deere"); err != nil {
		t.Fatal(err)
	}
	if !s.Satisfied() || pinned.Satisfied() {
		t.Fatal("want a violated pinned epoch displaced by a satisfied one")
	}
	sameReports(t, want, pinned.Report(), "pinned epoch after a healing commit")
}

func TestSessionInsertDeleteRoundTrip(t *testing.T) {
	cs, s := newSession(t, coursesDoc)
	// Insert a second st1 under csc258 with a different name: breaks
	// FD2 (course, sno -> student: two distinct student nodes) and FD3.
	tb := findNode(s.Tree(), func(n *xmltree.Node) bool { return n.Label == "taken_by" })
	dup := xmltree.NewNode("student").SetAttr("sno", "st1")
	nm := xmltree.NewNode("name")
	nm.SetText("Impostor")
	dup.Append(nm)
	if err := s.InsertSubtree(tb.ID, dup); err != nil {
		t.Fatal(err)
	}
	if v := s.Violated(); len(v) != 2 || v[0] != 1 || v[1] != 2 {
		t.Fatalf("Violated() = %v, want [1 2]", v)
	}
	checkAgainstFull(t, cs, s, "after duplicate insert")

	if err := s.DeleteSubtree(dup.ID); err != nil {
		t.Fatal(err)
	}
	if !s.Satisfied() {
		t.Fatal("deleting the duplicate must restore satisfaction")
	}
	checkAgainstFull(t, cs, s, "after delete")
}

func TestSessionGroupOpenClose(t *testing.T) {
	cs, s := newSession(t, coursesDoc)
	// Delete mat100's only student: the student group under its
	// taken_by CLOSES (the branch becomes ⊥ for every tuple through
	// it). The document stays satisfied, and the fold must rebalance —
	// a refcount mismatch would panic on the next edits.
	var tb2 *xmltree.Node
	count := 0
	s.Tree().Walk(func(n *xmltree.Node, _ []string) bool {
		if n.Label == "taken_by" {
			count++
			if count == 2 {
				tb2 = n
			}
		}
		return true
	})
	only := tb2.Children[0]
	if err := s.DeleteSubtree(only.ID); err != nil {
		t.Fatal(err)
	}
	checkAgainstFull(t, cs, s, "after closing the student group")

	// Re-open it with a CONFLICTING student (same sno as csc258's st1,
	// different name): FD3 must trip exactly when the group reopens.
	back := xmltree.NewNode("student").SetAttr("sno", "st1")
	nm := xmltree.NewNode("name")
	nm.SetText("Changed")
	back.Append(nm)
	if err := s.InsertSubtree(tb2.ID, back); err != nil {
		t.Fatal(err)
	}
	if v := s.Violated(); len(v) != 1 || v[0] != 2 {
		t.Fatalf("Violated() = %v, want [2]", v)
	}
	checkAgainstFull(t, cs, s, "after reopening with a conflict")
}

func TestSessionTypedErrors(t *testing.T) {
	_, s := newSession(t, coursesDoc)
	missing := xmltree.FreshID()
	var unknown *xmltree.UnknownNodeError
	for name, call := range map[string]func() error{
		"SetAttr":       func() error { return s.SetAttr(missing, "k", "v") },
		"SetText":       func() error { return s.SetText(missing, "t") },
		"DeleteSubtree": func() error { return s.DeleteSubtree(missing) },
		"InsertSubtree": func() error { return s.InsertSubtree(missing, xmltree.NewNode("x")) },
		"Node":          func() error { _, err := s.Node(missing); return err },
	} {
		err := call()
		if !errors.As(err, &unknown) {
			t.Errorf("%s(#%d): err = %v, want UnknownNodeError", name, missing, err)
		}
	}
	// Failed edits must leave the fold untouched.
	if !s.Satisfied() {
		t.Fatal("failed edits changed the verdict")
	}
	if err := s.DeleteSubtree(s.Tree().Root.ID); err == nil {
		t.Fatal("deleting the root should fail")
	}
	course := findNode(s.Tree(), func(n *xmltree.Node) bool { return n.Label == "course" })
	if err := s.SetText(course.ID, "nope"); err == nil {
		t.Fatal("SetText over element children should fail")
	}
	// A subtree with internal duplicate IDs is rejected before any
	// retraction, so the session stays balanced.
	bad := xmltree.NewNode("student")
	kid := xmltree.NewNode("name")
	kid.ID = bad.ID
	bad.Append(kid)
	tb := findNode(s.Tree(), func(n *xmltree.Node) bool { return n.Label == "taken_by" })
	if err := s.InsertSubtree(tb.ID, bad); err == nil {
		t.Fatal("insert of a self-colliding subtree should fail")
	}
	if !s.Satisfied() {
		t.Fatal("rejected edits changed the verdict")
	}
}

func TestSessionForeignRootIsVacuous(t *testing.T) {
	tree, err := xmltree.ParseString(`<other><x k="1"/><x k="1"/></other>`)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := xfd.NewCheckerSetFor(coursesSigma(t))
	if err != nil {
		t.Fatal(err)
	}
	s, err := incremental.New(cs, tree)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Satisfied() || s.Report() != nil {
		t.Fatal("Σ over a foreign root label is vacuously satisfied")
	}
	// Edits still apply, verdict stays vacuous.
	if err := s.SetAttr(tree.Root.Children[0].ID, "k", "2"); err != nil {
		t.Fatal(err)
	}
	if !s.Satisfied() {
		t.Fatal("still vacuous after an edit")
	}
}
