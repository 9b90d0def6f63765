package tuples_test

import (
	"errors"
	"strings"
	"testing"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xmltree"
)

func mustProjector(t *testing.T, pathStrs ...string) *tuples.Projector {
	t.Helper()
	ps := make([]dtd.Path, len(pathStrs))
	for i, s := range pathStrs {
		ps[i] = dtd.MustParsePath(s)
	}
	pr, err := tuples.NewProjector(paths.ForQuery(ps), ps)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func collectTokens(t *testing.T, pr *tuples.Projector, doc string) []tuples.Tuple {
	t.Helper()
	var out []tuples.Tuple
	if err := pr.StreamTokens(strings.NewReader(doc), 0, func(tup tuples.Tuple) bool {
		out = append(out, tup.Clone())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTokenStreamRootMismatch: a query path that does not start at the
// document's root label makes every projection empty — no yields, no
// error, like Projector.Stream.
func TestTokenStreamRootMismatch(t *testing.T) {
	pr := mustProjector(t, "r.c.@k")
	if got := collectTokens(t, pr, "<q><c k=\"1\"/></q>"); len(got) != 0 {
		t.Fatalf("root mismatch: got %d tuples, want 0", len(got))
	}
}

// TestTokenStreamSkipsIrrelevant: subtrees whose label is outside the
// projector's relevant tree are skipped entirely — including elements
// inside them that share a relevant label deeper down.
func TestTokenStreamSkipsIrrelevant(t *testing.T) {
	pr := mustProjector(t, "r.c.@k")
	doc := "<r><pad><c k=\"inner\"/></pad><c k=\"a\"/><pad><pad/></pad><c k=\"b\"/></r>"
	got := collectTokens(t, pr, doc)
	if len(got) != 2 {
		t.Fatalf("got %d tuples, want 2", len(got))
	}
	for i, want := range []string{"a", "b"} {
		v, ok := got[i].Get(dtd.MustParsePath("r.c.@k"))
		if !ok || v.Str() != want {
			t.Fatalf("tuple %d: got %v, want %q", i, v, want)
		}
	}
}

// TestTokenStreamMissingValues: absent attributes and absent relevant
// children are ⊥, exactly as in the tree path.
func TestTokenStreamMissingValues(t *testing.T) {
	pr := mustProjector(t, "r.c.@k", "r.c.d.S")
	doc := "<r><c><d>x</d></c><c k=\"1\"/></r>"
	got := collectTokens(t, pr, doc)
	if len(got) != 2 {
		t.Fatalf("got %d tuples, want 2", len(got))
	}
	if _, ok := got[0].Get(dtd.MustParsePath("r.c.@k")); ok {
		t.Fatal("tuple 0: @k should be ⊥")
	}
	if v, ok := got[0].Get(dtd.MustParsePath("r.c.d.S")); !ok || v.Str() != "x" {
		t.Fatalf("tuple 0: d.S = %v, want \"x\"", v)
	}
	if v, ok := got[1].Get(dtd.MustParsePath("r.c.@k")); !ok || v.Str() != "1" {
		t.Fatalf("tuple 1: @k = %v, want \"1\"", v)
	}
	if _, ok := got[1].Get(dtd.MustParsePath("r.c.d.S")); ok {
		t.Fatal("tuple 1: d.S should be ⊥")
	}
}

// TestTokenStreamDepthError: the depth guard surfaces as a typed
// error from the reader-driven entry point.
func TestTokenStreamDepthError(t *testing.T) {
	pr := mustProjector(t, "r.c.@k")
	err := pr.StreamTokens(strings.NewReader("<r><c><c><c/></c></c></r>"), 2, func(tuples.Tuple) bool { return true })
	var de *xmltree.DepthError
	if !errors.As(err, &de) {
		t.Fatalf("want DepthError, got %v", err)
	}
}

// TestTokenStreamCrossProduct: below a node with two or more relevant
// child labels (a genuine cross product) the token path collects the
// subtrees and enumerates them when the node closes. Each case must
// reproduce Projector.Stream on the parsed tree exactly, through the
// canonical rendering of the differential suite; the random suite
// rarely reaches these shapes inside a collected node.
func TestTokenStreamCrossProduct(t *testing.T) {
	cases := []struct {
		name, doc string
		paths     []string
	}{
		{"order", `<r><a x="1"/><b y="p"/><a x="2"/><b y="q"/></r>`,
			[]string{"r.a.@x", "r.b.@y"}},
		{"vertices", `<r><a x="1"/><b y="p"/><a x="2"/><b/></r>`,
			[]string{"r.a", "r.a.@x", "r.b"}},
		{"text", `<r><a x="1"><t>one</t></a><b y="p"/><a x="2"><t>two</t></a><a x="3"/></r>`,
			[]string{"r.a.@x", "r.a.t.S", "r.b.@y"}},
		{"own text", `<r><a>one</a><b y="p"/><a>two</a></r>`,
			[]string{"r.a.S", "r.b.@y"}},
		{"duplicate attribute", `<r><a x="1" x="2"/><b y="p" y="q"/><a x="3" z="0" x="4"/></r>`,
			[]string{"r.a.@x", "r.b.@y"}},
		{"nested cross product", `<r><a><d p="1"/><e q="u"/><d p="2"/><e q="v"/></a><b y="p"/><b y="q"/><a><d p="3"/><e q="w"/></a></r>`,
			[]string{"r.a.d.@p", "r.a.e.@q", "r.b.@y"}},
		{"empty group", `<r><a><d p="1"/><d p="2"/></a><b y="p"/><a><e q="w"/></a><a/></r>`,
			[]string{"r.a.d.@p", "r.a.e.@q", "r.b.@y"}},
		{"irrelevant subtree", `<r><a x="1"><z><t>hidden</t><d p="9"/></z><t>one</t><d p="2"/></a><b y="p"/></r>`,
			[]string{"r.a.@x", "r.a.t.S", "r.a.d.@p", "r.b.@y"}},
	}
	for _, c := range cases {
		pr := mustProjector(t, c.paths...)
		want := newCanonStream()
		pr.Stream(xmltree.MustParseString(c.doc), want.yield)
		if len(want.lines) == 0 {
			t.Fatalf("%s: the tree walk yields nothing", c.name)
		}
		got := newCanonStream()
		if err := pr.StreamTokens(strings.NewReader(c.doc), 0, got.yield); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		diffStreams(t, c.name, c.doc, want.lines, got.lines)
	}

	// The order itself, spelled out: groups in relevant order, each
	// group's children in document order.
	got := collectTokens(t, mustProjector(t, "r.a.@x", "r.b.@y"), cases[0].doc)
	var pairs []string
	for _, tup := range got {
		x, _ := tup.Get(dtd.MustParsePath("r.a.@x"))
		y, _ := tup.Get(dtd.MustParsePath("r.b.@y"))
		pairs = append(pairs, x.Str()+y.Str())
	}
	if want := "1p 1q 2p 2q"; strings.Join(pairs, " ") != want {
		t.Fatalf("got %v, want %s", pairs, want)
	}
}
