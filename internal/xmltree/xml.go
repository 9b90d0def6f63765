package xmltree

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Parse reads an XML document into a Tree. Whitespace-only character
// data between elements is ignored; any other character data becomes the
// node's string content. Mixed content (text next to element children)
// is rejected, since the paper's data model (Definition 2) excludes it.
// Namespace prefixes are interpreted as WalkTokens describes: a
// declared prefix, or the default namespace on an element name, is
// replaced by its URI, so the label of <p:a xmlns:p="u"/> is "u:a";
// undeclared prefixes are kept as written.
//
// Parse is a WalkTokens client with no depth limit, so it accepts
// exactly the documents the streaming checkers accept; rejections are
// *MalformedError values. Callers that cannot afford the materialized
// tree should stream through WalkTokens instead.
func Parse(r io.Reader) (*Tree, error) { return ParseLimit(r, 0) }

// ParseLimit is Parse with an element-nesting bound: a positive
// maxDepth rejects deeper input with a *DepthError (0 means
// unlimited, WalkTokens' convention). Servers parsing untrusted
// request bodies use it so hostile nesting fails typed instead of
// growing the stack.
func ParseLimit(r io.Reader, maxDepth int) (*Tree, error) {
	var stack []*Node
	var root *Node
	err := WalkTokens(r, maxDepth, TokenCallbacks{
		Open: func(label string, attrs []Attr) error {
			n := NewNode(label)
			for _, a := range attrs {
				n.SetAttr(a.Name, a.Value)
			}
			if len(stack) == 0 {
				root = n
			} else {
				parent := stack[len(stack)-1]
				parent.Children = append(parent.Children, n)
			}
			stack = append(stack, n)
			return nil
		},
		Text: func(text []byte) error {
			stack[len(stack)-1].SetText(string(text))
			return nil
		},
		Close: func(string) error {
			stack = stack[:len(stack)-1]
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return NewTree(root), nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*Tree, error) { return Parse(strings.NewReader(s)) }

// MustParseString is ParseString that panics on error; for tests.
func MustParseString(s string) *Tree {
	t, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return t
}

// String serializes the tree as indented XML. Attributes print in
// sorted order so output is deterministic.
func (t *Tree) String() string {
	var b strings.Builder
	writeNode(&b, t.Root, 0)
	return b.String()
}

func writeNode(b *strings.Builder, n *Node, depth int) {
	indent := strings.Repeat("  ", depth)
	b.WriteString(indent)
	b.WriteByte('<')
	b.WriteString(n.Label)
	names := make([]string, 0, len(n.Attrs))
	for a := range n.Attrs {
		names = append(names, a)
	}
	sort.Strings(names)
	for _, a := range names {
		fmt.Fprintf(b, " %s=\"%s\"", a, attrEscaper.Replace(n.Attrs[a]))
	}
	switch {
	case n.HasText:
		b.WriteByte('>')
		b.WriteString(textEscaper.Replace(n.Text))
		fmt.Fprintf(b, "</%s>\n", n.Label)
	case len(n.Children) == 0:
		b.WriteString("/>\n")
	default:
		b.WriteString(">\n")
		for _, c := range n.Children {
			writeNode(b, c, depth+1)
		}
		fmt.Fprintf(b, "%s</%s>\n", indent, n.Label)
	}
}

// The escapers String writes text and attribute values through, built
// once: a Replacer is safe for concurrent use.
var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", `"`, "&quot;")
)
