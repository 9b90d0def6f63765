package xmltree

import (
	"errors"
	"strings"
	"testing"
)

// TestWalkTokensParseAgreement: WalkTokens must accept exactly what
// Parse accepts, with identical error messages on rejection.
func TestWalkTokensParseAgreement(t *testing.T) {
	cases := []string{
		"<r/>",
		"<r><a>x</a><b k=\"1\"/></r>",
		"<r>text</r>",
		"<r><a/>text</r>",          // mixed content
		"<r>text<a/></r>",          // mixed content, other order
		"<r/><r/>",                 // multiple roots
		"",                         // no root
		"<r><a>",                   // unbalanced
		"x<r/>",                    // chardata outside root (decoder may reject first)
		"<r></q>",                  // mismatched tags
		"<r a=\"1\" a=\"2\"/>",     // duplicate attribute (decoder accepts)
		"<r xmlns=\"u\" k=\"v\"/>", // xmlns filtering
		"<r>a<!-- c -->b</r>",      // comment splits chardata
	}
	for _, src := range cases {
		_, perr := Parse(strings.NewReader(src))
		werr := WalkTokens(strings.NewReader(src), 0, TokenCallbacks{})
		switch {
		case (perr == nil) != (werr == nil):
			t.Errorf("%q: Parse err %v, WalkTokens err %v", src, perr, werr)
		case perr != nil && perr.Error() != werr.Error():
			t.Errorf("%q: Parse err %q, WalkTokens err %q", src, perr, werr)
		}
		if werr != nil {
			var me *MalformedError
			if !errors.As(werr, &me) {
				t.Errorf("%q: WalkTokens error is not a MalformedError: %v", src, werr)
			}
		}
	}
}

// TestWalkTokensEvents pins the event protocol: text concatenated and
// delivered once before Close, whitespace dropped, xmlns filtered, and
// a declared namespace prefix replaced by its URI (p:a is u:a).
func TestWalkTokensEvents(t *testing.T) {
	src := "<r xmlns:p=\"u\">\n  <p:a k=\"1\" k=\"2\">one&amp;two</p:a>\n  <b/>\n</r>"
	var events []string
	err := WalkTokens(strings.NewReader(src), 0, TokenCallbacks{
		Open: func(label string, attrs []Attr) error {
			ev := "open " + label
			for _, a := range attrs {
				ev += " " + a.Name + "=" + a.Value
			}
			events = append(events, ev)
			return nil
		},
		Text: func(text []byte) error {
			events = append(events, "text "+string(text))
			return nil
		},
		Close: func(label string) error {
			events = append(events, "close "+label)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"open r",
		"open u:a k=1 k=2",
		"text one&two",
		"close u:a",
		"open b",
		"close b",
		"close r",
	}
	if len(events) != len(want) {
		t.Fatalf("events: got %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event %d: got %q, want %q", i, events[i], want[i])
		}
	}
}

// TestWalkTokensDepthLimit: nesting beyond maxDepth fails with a typed
// DepthError at the exact violating element.
func TestWalkTokensDepthLimit(t *testing.T) {
	src := "<a><a><a><a></a></a></a></a>"
	if err := WalkTokens(strings.NewReader(src), 4, TokenCallbacks{}); err != nil {
		t.Fatalf("depth 4 at limit 4: %v", err)
	}
	err := WalkTokens(strings.NewReader(src), 3, TokenCallbacks{})
	var de *DepthError
	if !errors.As(err, &de) {
		t.Fatalf("want DepthError, got %v", err)
	}
	if de.Depth != 4 || de.Limit != 3 {
		t.Fatalf("DepthError = %+v, want Depth 4 Limit 3", de)
	}
}

// TestWalkTokensCallbackError: a callback error aborts the walk and is
// returned verbatim, not wrapped.
func TestWalkTokensCallbackError(t *testing.T) {
	sentinel := errors.New("stop here")
	opens := 0
	err := WalkTokens(strings.NewReader("<r><a/><b/></r>"), 0, TokenCallbacks{
		Open: func(label string, _ []Attr) error {
			opens++
			if label == "a" {
				return sentinel
			}
			return nil
		},
	})
	if err != sentinel {
		t.Fatalf("want the sentinel error verbatim, got %v", err)
	}
	if opens != 2 {
		t.Fatalf("walk continued past the error: %d opens", opens)
	}
}
