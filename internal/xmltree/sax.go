package xmltree

import (
	"bytes"
	"fmt"
	"io"
)

// This file is the streaming (SAX-style) front end of the data model:
// WalkTokens drives the tokenizer of scan.go over a reader and
// delivers the document as Open/Text/Close callbacks, enforcing
// exactly the same structural rules as Parse — one root, no mixed
// content, no character data outside the root, balanced tags. Parse itself is a WalkTokens
// client that materializes a Tree; the tuple streamer (internal/tuples)
// is a client that never does, which is what makes constant-memory
// validation of arbitrarily large documents possible.

// DefaultMaxDepth is the element-nesting bound streaming entry points
// apply when the caller does not choose one. Hostile deeply-nested
// input then fails with a DepthError instead of growing state without
// bound.
const DefaultMaxDepth = 10000

// MalformedError reports input rejected by the XML reader or by the
// data model's structural rules (Definition 2: no mixed content, one
// root, element or string content). It wraps the same errors Parse
// returns; test with errors.As.
type MalformedError struct {
	Err error
}

func (e *MalformedError) Error() string { return e.Err.Error() }

// Unwrap returns the underlying cause.
func (e *MalformedError) Unwrap() error { return e.Err }

func malformedf(format string, args ...any) error {
	return &MalformedError{Err: fmt.Errorf("xmltree: "+format, args...)}
}

// DepthError reports element nesting beyond the configured limit.
type DepthError struct {
	Depth, Limit int
}

func (e *DepthError) Error() string {
	return fmt.Sprintf("xmltree: element nesting depth %d exceeds the limit %d", e.Depth, e.Limit)
}

// Attr is one attribute of a streamed element. Attributes are
// delivered in document order with xmlns declarations removed;
// repeated names are delivered as written, and consumers that want
// Parse's map semantics must let the last occurrence win.
type Attr struct {
	Name, Value string
}

// TokenCallbacks receives a document as structural events. Any nil
// callback is skipped. Open's attrs slice and Text's byte slice are
// only valid for the duration of the call — the walker reuses both.
// Text is delivered at most once per element, immediately before its
// Close, with all character-data chunks concatenated (whitespace-only
// chunks between elements are dropped, as in Parse). A non-nil error
// from any callback aborts the walk and is returned verbatim.
type TokenCallbacks struct {
	Open  func(label string, attrs []Attr) error
	Text  func(text []byte) error
	Close func(label string) error
}

// WalkTokens streams the XML document from r through cb. It accepts
// exactly the documents Parse accepts and rejects the rest with a
// *MalformedError carrying the same message Parse reports, except that
// a positive maxDepth additionally rejects nesting beyond it with a
// *DepthError (maxDepth <= 0 means unlimited). Memory use is bounded
// by the nesting depth plus the largest single token — nothing
// proportional to the document is retained.
//
// The tokenizer (scan.go) accepts, bit for bit and with the same error
// messages, what the strict decoder of Go 1.24's encoding/xml accepts
// (the oracle tests compare it with the decoder of whichever toolchain
// runs them; agreement was established on Go 1.24.0):
//   - the five predefined entities and decimal or hexadecimal
//     character references; a surrogate such as &#xD800; becomes
//     U+FFFD, and a reference to a character XML excludes, such as
//     &#0;, is rejected;
//   - CDATA sections;
//   - comments, skipped; "--" inside a comment is rejected;
//   - processing instructions, skipped;
//   - a DOCTYPE, skipped with its internal subset, so entities declared
//     there are not expanded and using one is an error;
//   - XML declarations, wherever they stand: a version other than 1.0
//     or an encoding other than UTF-8 is rejected;
//   - line ends: "\r\n" and "\r" become "\n" in text and in
//     attribute values;
//   - white space: a chunk of character data (text between markup, or
//     one CDATA section) made only of unicode.IsSpace characters, such
//     as non-breaking spaces, is dropped;
//   - a UTF-8 byte order mark, rejected as character data outside the
//     root element;
//   - repeated attributes, delivered as written;
//   - names with two or more colons, rejected;
//   - namespace prefixes: a declared prefix, or the default namespace
//     on an element name, becomes its URI followed by ':' (so
//     <r xmlns="urn:x"/> is the element "urn:x:r"), "xml:" becomes
//     the XML namespace URI, and an undeclared prefix stays as written.
func WalkTokens(r io.Reader, maxDepth int, cb TokenCallbacks) error {
	return newScanner(r).walk(maxDepth, cb)
}

// walk is WalkTokens over a scanner: it applies the data model's
// structural rules to the scanner's tokens and delivers the events.
func (s *scanner) walk(maxDepth int, cb TokenCallbacks) error {
	rootSeen := false
	for {
		tok, err := s.next()
		if err != nil {
			return err
		}
		switch tok {
		case tokEOF:
			if !rootSeen {
				return malformedf("no root element")
			}
			return nil
		case tokStart:
			depth := len(s.stack) // the start tag pushed its element
			if depth == 1 {
				if rootSeen {
					return malformedf("multiple root elements")
				}
				rootSeen = true
			} else {
				parent := &s.stack[depth-2]
				if len(s.text) > 0 {
					return malformedf("mixed content under <%s>", parent.label)
				}
				parent.hasChildren = true
			}
			if maxDepth > 0 && depth > maxDepth {
				return &DepthError{Depth: depth, Limit: maxDepth}
			}
			if cb.Open != nil {
				if err := cb.Open(s.stack[depth-1].label, s.attrs); err != nil {
					return err
				}
			}
		case tokEnd:
			if len(s.text) > 0 && cb.Text != nil {
				if err := cb.Text(s.text); err != nil {
					return err
				}
			}
			s.text = s.text[:0]
			top := s.pop()
			if cb.Close != nil {
				if err := cb.Close(top.label); err != nil {
					return err
				}
			}
		case tokText:
			if len(bytes.TrimSpace(s.text[s.chunk:])) == 0 {
				s.text = s.text[:s.chunk]
				continue
			}
			if len(s.stack) == 0 {
				return malformedf("character data outside the root element")
			}
			if top := &s.stack[len(s.stack)-1]; top.hasChildren {
				return malformedf("mixed content under <%s>", top.label)
			}
		}
	}
}
