package xmltree

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmlnorm/internal/dtd"
)

func readTestdata(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("../../testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func loadTree(t *testing.T, name string) *Tree {
	t.Helper()
	tree, err := ParseString(readTestdata(t, name))
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return tree
}

func loadDTD(t *testing.T, name string) *dtd.DTD {
	t.Helper()
	d, err := dtd.Parse(readTestdata(t, name))
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return d
}

func TestParseCoursesDocument(t *testing.T) {
	tree := loadTree(t, "courses.xml")
	if tree.Root.Label != "courses" {
		t.Fatalf("root = %q", tree.Root.Label)
	}
	courses := tree.Root.ChildrenLabelled("course")
	if len(courses) != 2 {
		t.Fatalf("courses = %d, want 2", len(courses))
	}
	if v, _ := courses[0].Attr("cno"); v != "csc200" {
		t.Errorf("cno = %q", v)
	}
	title := courses[0].ChildrenLabelled("title")
	if len(title) != 1 || !title[0].HasText || title[0].Text != "Automata Theory" {
		t.Errorf("title = %+v", title)
	}
	students := courses[1].ChildrenLabelled("taken_by")[0].ChildrenLabelled("student")
	if len(students) != 2 {
		t.Fatalf("students = %d", len(students))
	}
	if v, _ := students[1].Attr("sno"); v != "st3" {
		t.Errorf("sno = %q", v)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"<a><b></a></b>",
		"<a>text<b/></a>", // mixed content
		"<a><b/>text</a>", // mixed content
		"<a/><b/>",        // two roots
		"text",            // data outside root
	}
	for _, in := range bad {
		if _, err := ParseString(in); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", in)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	for _, name := range []string{"courses.xml", "courses_xnf.xml", "dblp.xml"} {
		tree := loadTree(t, name)
		again, err := ParseString(tree.String())
		if err != nil {
			t.Fatalf("%s: reparse: %v", name, err)
		}
		if !Isomorphic(tree, again) {
			t.Errorf("%s: serialize/parse round trip changed the tree", name)
		}
	}
}

func TestEscaping(t *testing.T) {
	n := NewNode("r").SetAttr("a", `x<&"y`)
	c := NewNode("c").SetText("1 < 2 & 3 > 2")
	n.Append(c)
	tree := NewTree(n)
	again, err := ParseString(tree.String())
	if err != nil {
		t.Fatalf("reparse escaped: %v\n%s", err, tree)
	}
	if v, _ := again.Root.Attr("a"); v != `x<&"y` {
		t.Errorf("attr round trip = %q", v)
	}
	if got := again.Root.Children[0].Text; got != "1 < 2 & 3 > 2" {
		t.Errorf("text round trip = %q", got)
	}
}

func TestPathsOfTree(t *testing.T) {
	tree := loadTree(t, "courses.xml")
	paths := tree.Paths()
	want := []string{
		"courses",
		"courses.course",
		"courses.course.@cno",
		"courses.course.title",
		"courses.course.title.S",
		"courses.course.taken_by",
		"courses.course.taken_by.student",
		"courses.course.taken_by.student.@sno",
		"courses.course.taken_by.student.name",
		"courses.course.taken_by.student.name.S",
		"courses.course.taken_by.student.grade",
		"courses.course.taken_by.student.grade.S",
	}
	if len(paths) != len(want) {
		t.Fatalf("paths = %v", paths)
	}
	got := map[string]bool{}
	for _, p := range paths {
		got[p] = true
	}
	for _, w := range want {
		if !got[w] {
			t.Fatalf("missing path %q in %v", w, paths)
		}
	}
}

func TestConforms(t *testing.T) {
	d := loadDTD(t, "courses.dtd")
	tree := loadTree(t, "courses.xml")
	if err := Conforms(tree, d); err != nil {
		t.Errorf("Figure 1(a) document should conform: %v", err)
	}
	if err := Compatible(tree, d); err != nil {
		t.Errorf("conforming tree should be compatible: %v", err)
	}

	dx := loadDTD(t, "courses_xnf.dtd")
	tx := loadTree(t, "courses_xnf.xml")
	if err := Conforms(tx, dx); err != nil {
		t.Errorf("Figure 1(b) document should conform to the revised DTD: %v", err)
	}
	if err := Conforms(tx, d); err == nil {
		t.Error("Figure 1(b) document must not conform to the original DTD")
	}

	dblp := loadDTD(t, "dblp.dtd")
	if err := Conforms(loadTree(t, "dblp.xml"), dblp); err != nil {
		t.Errorf("DBLP document should conform: %v", err)
	}
}

func TestConformsViolations(t *testing.T) {
	d := loadDTD(t, "courses.dtd")
	cases := []struct {
		name string
		doc  string
	}{
		{"wrong root", `<course cno="1"><title>t</title><taken_by/></course>`},
		{"missing attr", `<courses><course><title>t</title><taken_by/></course></courses>`},
		{"extra attr", `<courses><course cno="1" x="2"><title>t</title><taken_by/></course></courses>`},
		{"wrong order", `<courses><course cno="1"><taken_by/><title>t</title></course></courses>`},
		{"missing child", `<courses><course cno="1"><title>t</title></course></courses>`},
		{"text in element content", `<courses><course cno="1">hello</course></courses>`},
		{"missing text", `<courses><course cno="1"><title/><taken_by/></course></courses>`},
		{"undeclared element", `<courses><zzz/></courses>`},
	}
	for _, c := range cases {
		tree, err := ParseString(c.doc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := Conforms(tree, d); err == nil {
			t.Errorf("%s: conformance should fail", c.name)
		}
	}
}

func TestConformsUnordered(t *testing.T) {
	d := loadDTD(t, "courses.dtd")
	// Children out of order: [T] ⊨ D even though T ⊭ D.
	doc := `<courses><course cno="1"><taken_by/><title>t</title></course></courses>`
	tree := MustParseString(doc)
	if err := Conforms(tree, d); err == nil {
		t.Fatal("ordered conformance should fail")
	}
	if err := ConformsUnordered(tree, d); err != nil {
		t.Errorf("unordered conformance should hold: %v", err)
	}
	// Still fails when a child is missing.
	tree2 := MustParseString(`<courses><course cno="1"><taken_by/></course></courses>`)
	if err := ConformsUnordered(tree2, d); err == nil {
		t.Error("unordered conformance should fail for missing title")
	}
}

// TestConformsUnorderedAllocs: an unordered conformance check passes
// every node's child labels through one buffer and matches them without
// allocating, so its allocations do not grow with the number of nodes:
// courses documents of 16 courses with 2 and with 16 students each
// (145 and 817 elements; the widest child list has 16 labels in both)
// cost the same.
func TestConformsUnorderedAllocs(t *testing.T) {
	c := NewConformer(loadDTD(t, "courses.dtd"))
	doc := func(courses, students int) *Tree {
		var b strings.Builder
		b.WriteString("<courses>")
		for i := 0; i < courses; i++ {
			fmt.Fprintf(&b, `<course cno="c%d"><title>t</title><taken_by>`, i)
			for j := 0; j < students; j++ {
				fmt.Fprintf(&b, `<student sno="s%d"><name>n</name><grade>A</grade></student>`, j)
			}
			b.WriteString("</taken_by></course>")
		}
		b.WriteString("</courses>")
		return MustParseString(b.String())
	}
	allocs := func(tree *Tree) float64 {
		if err := c.ConformsUnordered(tree); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { _ = c.ConformsUnordered(tree) })
	}
	small, large := allocs(doc(16, 2)), allocs(doc(16, 16))
	if large > small {
		t.Errorf("ConformsUnordered allocates %.0f objects on 16 courses of 16 students, %.0f on 16 of 2; want no growth", large, small)
	}
}

func TestCompatibleButNotConforming(t *testing.T) {
	d := loadDTD(t, "courses.dtd")
	// course without taken_by: compatible (all paths valid) but not
	// conforming (content model needs both children).
	tree := MustParseString(`<courses><course cno="1"><title>t</title></course></courses>`)
	if err := Compatible(tree, d); err != nil {
		t.Errorf("Compatible: %v", err)
	}
	if err := Conforms(tree, d); err == nil {
		t.Error("Conforms should fail")
	}
	// Unknown attribute: not compatible.
	tree2 := MustParseString(`<courses><course cno="1" bad="x"/></courses>`)
	if err := Compatible(tree2, d); err == nil {
		t.Error("Compatible should fail for undeclared attribute")
	}
}

func TestSubsumption(t *testing.T) {
	tree := loadTree(t, "courses.xml")
	// A copy sharing vertex IDs but missing some children is subsumed.
	sub := &Tree{Root: shallowCopy(tree.Root)}
	// Remove the second course.
	sub.Root.Children = sub.Root.Children[:1]
	if !Subsumed(sub, tree) {
		t.Error("pruned tree should be subsumed")
	}
	if Subsumed(tree, sub) {
		t.Error("full tree should not be subsumed by pruned tree")
	}
	if !StrictlySubsumed(sub, tree) {
		t.Error("pruned tree should be strictly subsumed")
	}
	if !Equivalent(tree, tree) {
		t.Error("tree should be equivalent to itself")
	}
	// Reordering children preserves equivalence.
	re := &Tree{Root: shallowCopy(tree.Root)}
	re.Root.Children = []*Node{re.Root.Children[1], re.Root.Children[0]}
	if !Equivalent(re, tree) {
		t.Error("reordered tree should be ≡")
	}
	// A clone has different vertex IDs: not subsumed, but isomorphic.
	clone := tree.Clone()
	if Subsumed(clone, tree) {
		t.Error("clone with fresh IDs should not be subsumed")
	}
	if !Isomorphic(clone, tree) {
		t.Error("clone should be isomorphic")
	}
}

// shallowCopy copies the node structure reusing IDs and child pointers
// at lower levels (only the top node's child slice is fresh).
func shallowCopy(n *Node) *Node {
	c := &Node{ID: n.ID, Label: n.Label, Attrs: n.Attrs, Text: n.Text, HasText: n.HasText}
	c.Children = append([]*Node(nil), n.Children...)
	return c
}

func TestCanonicalIgnoresOrderAndIDs(t *testing.T) {
	a := MustParseString(`<r><x k="1"/><y/></r>`)
	b := MustParseString(`<r><y/><x k="1"/></r>`)
	if a.Canonical() != b.Canonical() {
		t.Error("canonical form should ignore child order")
	}
	c := MustParseString(`<r><x k="2"/><y/></r>`)
	if a.Canonical() == c.Canonical() {
		t.Error("canonical form should reflect attribute values")
	}
}

func TestNodeHelpers(t *testing.T) {
	n := NewNode("a")
	n2 := NewNode("a")
	if n.ID == n2.ID {
		t.Error("fresh nodes share an ID")
	}
	tree := loadTree(t, "courses.xml")
	if tree.Size() != 19 {
		t.Errorf("Size = %d, want 19", tree.Size())
	}
	some := tree.Root.Children[0]
	if got := tree.NodeByID(some.ID); got != some {
		t.Error("NodeByID failed")
	}
	if got := tree.NodeByID(-1); got != nil {
		t.Error("NodeByID(-1) should be nil")
	}
	if len(tree.Nodes()) != tree.Size() {
		t.Error("Nodes/Size disagree")
	}
}

func TestWalkPaths(t *testing.T) {
	tree := MustParseString(`<a><b><c/></b></a>`)
	var got []string
	tree.Walk(func(n *Node, path []string) bool {
		got = append(got, strings.Join(path, "."))
		return true
	})
	want := []string{"a", "a.b", "a.b.c"}
	if len(got) != len(want) {
		t.Fatalf("walk = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk = %v, want %v", got, want)
		}
	}
}
