package xmltree

// The differential oracle for the tokenizer: oracleWalk is WalkTokens
// as it was written over encoding/xml's strict decoder, and every test
// here holds the scanner to it — the same events, the same error type
// and the same error text, for every input, depth and read pattern.
// The decoder is the one the running toolchain ships; the scanner's
// contract is Go 1.24's (see WalkTokens), and TestAcceptanceContract
// pins the documented cases whatever the toolchain.

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"unicode/utf8"
)

// oracleWalk streams r through cb with encoding/xml. Its last two
// rules are unreachable: the decoder reports stray end tags and
// truncated documents itself.
func oracleWalk(r io.Reader, maxDepth int, cb TokenCallbacks) error {
	dec := xml.NewDecoder(r)
	type wtFrame struct {
		label       string
		hasChildren bool
	}
	var stack []wtFrame
	var text []byte
	var attrs []Attr
	rootSeen := false
	flushText := func() error {
		if len(text) == 0 {
			return nil
		}
		var err error
		if cb.Text != nil {
			err = cb.Text(text)
		}
		text = text[:0]
		return err
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return &MalformedError{Err: fmt.Errorf("xmltree: %v", err)}
		}
		switch t := tok.(type) {
		case xml.StartElement:
			label := oracleName(t.Name)
			if len(stack) == 0 {
				if rootSeen {
					return malformedf("multiple root elements")
				}
				rootSeen = true
			} else {
				top := &stack[len(stack)-1]
				if len(text) > 0 {
					return malformedf("mixed content under <%s>", top.label)
				}
				top.hasChildren = true
			}
			if maxDepth > 0 && len(stack)+1 > maxDepth {
				return &DepthError{Depth: len(stack) + 1, Limit: maxDepth}
			}
			attrs = attrs[:0]
			for _, a := range t.Attr {
				name := oracleName(a.Name)
				if name == "xmlns" || strings.HasPrefix(name, "xmlns:") {
					continue
				}
				attrs = append(attrs, Attr{Name: name, Value: a.Value})
			}
			if cb.Open != nil {
				if err := cb.Open(label, attrs); err != nil {
					return err
				}
			}
			stack = append(stack, wtFrame{label: label})
		case xml.EndElement:
			if len(stack) == 0 {
				return malformedf("unbalanced end tag </%s>", oracleName(t.Name))
			}
			if err := flushText(); err != nil {
				return err
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if cb.Close != nil {
				if err := cb.Close(top.label); err != nil {
					return err
				}
			}
		case xml.CharData:
			if len(bytes.TrimSpace(t)) == 0 {
				continue
			}
			if len(stack) == 0 {
				return malformedf("character data outside the root element")
			}
			top := &stack[len(stack)-1]
			if top.hasChildren {
				return malformedf("mixed content under <%s>", top.label)
			}
			text = append(text, t...)
		}
	}
	if !rootSeen {
		return malformedf("no root element")
	}
	if len(stack) != 0 {
		return malformedf("unbalanced document")
	}
	return nil
}

func oracleName(n xml.Name) string {
	if n.Space != "" {
		return n.Space + ":" + n.Local
	}
	return n.Local
}

type walkFunc func(io.Reader, int, TokenCallbacks) error

// walkLog runs walk and returns its events, one line each.
func walkLog(walk walkFunc, r io.Reader, maxDepth int) (string, error) {
	var b strings.Builder
	err := walk(r, maxDepth, TokenCallbacks{
		Open: func(label string, attrs []Attr) error {
			fmt.Fprintf(&b, "open %q", label)
			for _, a := range attrs {
				fmt.Fprintf(&b, " %q=%q", a.Name, a.Value)
			}
			b.WriteByte('\n')
			return nil
		},
		Text: func(text []byte) error {
			fmt.Fprintf(&b, "text %q\n", text)
			return nil
		},
		Close: func(label string) error {
			fmt.Fprintf(&b, "close %q\n", label)
			return nil
		},
	})
	return b.String(), err
}

// diffWalks walks the input mk opens with the oracle and with
// WalkTokens and describes the first difference in events or error,
// or returns "".
func diffWalks(mk func() io.Reader, maxDepth int) string {
	want, werr := walkLog(oracleWalk, mk(), maxDepth)
	got, gerr := walkLog(WalkTokens, mk(), maxDepth)
	if got != want {
		wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
		for i := 0; ; i++ {
			if i == len(wl) || i == len(gl) || wl[i] != gl[i] {
				return fmt.Sprintf("event %d: oracle %q, scanner %q", i, line(wl, i), line(gl, i))
			}
		}
	}
	if d := diffErrors(werr, gerr); d != "" {
		return d
	}
	return ""
}

func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<none>"
}

// diffErrors compares two walk errors by type, message and, for
// DepthError, fields.
func diffErrors(want, got error) string {
	switch {
	case want == nil && got == nil:
		return ""
	case want == nil || got == nil:
		return fmt.Sprintf("error: oracle %v, scanner %v", want, got)
	case fmt.Sprintf("%T", want) != fmt.Sprintf("%T", got):
		return fmt.Sprintf("error type: oracle %T, scanner %T", want, got)
	case want.Error() != got.Error():
		return fmt.Sprintf("error: oracle %q, scanner %q", want, got)
	}
	var wd, gd *DepthError
	if errors.As(want, &wd) && errors.As(got, &gd) && *wd != *gd {
		return fmt.Sprintf("DepthError: oracle %+v, scanner %+v", *wd, *gd)
	}
	var wm, gm *MalformedError
	if errors.As(want, &wm) && errors.As(got, &gm) && fmt.Sprintf("%T", wm.Err) != fmt.Sprintf("%T", gm.Err) {
		return fmt.Sprintf("MalformedError cause: oracle %T, scanner %T", wm.Err, gm.Err)
	}
	return ""
}

// readers are the read patterns every differential input goes
// through: whole reads, one byte per read (every window refill
// boundary), and halved reads.
var readers = []struct {
	name string
	wrap func([]byte) io.Reader
}{
	{"whole", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"onebyte", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
	{"half", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
}

// acceptanceCases pin what the strict decoder accepts and rejects and
// with which message; each is also a FuzzWalkTokens seed.
var acceptanceCases = []string{
	// Structure.
	"<r/>", "<r><a>x</a><b k=\"1\"/></r>", "<r>text</r>", "<r><a/>text</r>",
	"<r>text<a/></r>", "<r/><r/>", "", " \n ", "<r><a>", "x<r/>", "<r/>x", "<r></q>",
	"<r>a<!-- c -->b</r>", "<r><a/>  </r>", "<r/></r>", "</r>", "<r></r></r>",
	"<a><a><a><a></a></a></a></a>", "<r><a><b/></a><c>t</c></r>",
	// Entities and character references.
	"<r>&lt;&gt;&amp;&apos;&quot;</r>", "<r a=\"&lt;&amp;&quot;&apos;&gt;\"/>",
	"<r>&#65;&#x41;&#x6a;&#x6A;&#0065;</r>", "<r>&#X41;</r>", "<r>&#xD800;</r>",
	"<r>&#0;</r>", "<r>&#x110000;</r>", "<r>&#x10FFFF;</r>", "<r>&#xFFFE;</r>",
	"<r>&#;</r>", "<r>&#x;</r>", "<r>&#12a;</r>", "<r>&#99999999999999999999999;</r>",
	"<r>&foo;</r>", "<r>&foo</r>", "<r>&;</r>", "<r>&</r>", "<r>&amp", "<r>&", "<r>&#",
	"<r>&#x", "<r>&#12", "<r>&é;</r>", "<r>&\xff;</r>", "<r>&a:b;</r>", "<r k=\"&broken;\"/>",
	"<r>&#13;&#10;</r>", "<r>&#9;</r>", "<r>]&#93;></r>", "<r>a&amp;\r\nb</r>",
	// CDATA.
	"<r><![CDATA[a<b&c]]></r>", "<r><![CDATA[]]></r>", "<r>a<![CDATA[b]]>c</r>",
	"<r><![CDATA[x]]]></r>", "<r><![CDATA[x]]]]>></r>", "<r><![CDATA[x", "<r><![CDAT[x]]></r>",
	"<r>]]></r>", "<r>]]]></r>", "<r>] ]></r>", "<r a=\"]]>\"/>", "<r><![CDATA[ ]]></r>",
	"<r><![CDATA[\r\n\r]]></r>", "<![CDATA[x]]><r/>", "<r><![CDATA[\xff]]></r>", "<r><![",
	// Comments.
	"<r><!-- c --></r>", "<r><!-- a -- b --></r>", "<!----><r/>", "<!---><r/>-->",
	"<!- x><r/>", "<r><!---x--></r>", "<r><!-- x --->", "<r><!--\xff--></r>", "<!--",
	"<r><!-- - - --></r>", "<r><!--a-b-c--></r>",
	// Processing instructions and XML declarations.
	"<?pi data?><r/>", "<?xml version=\"1.0\"?><r/>", "<?xml version=\"1.1\"?><r/>",
	"<?xml version='2.0' encoding='utf-8'?><r/>", "<?xml encoding=\"ISO-8859-1\"?><r/>",
	"<?xml encoding=\"UTF-8\"?><r/>", "<?xml encoding=\"Utf-8\"?><r/>",
	"<r><?xml version=\"9\"?></r>", "<? x?><r/>", "<?1a?><r/>", "<?xml?><r/>",
	"<?xmlfoo version=\"2\"?><r/>", "<?pi", "<?pi ?", "<?pi?>", "<?a\xff?><r/>",
	"<?xml version=1.1?><r/>", "<?xml version=\"1.1?><r/>", "<?xml versionversion=\"3\"?><r/>",
	"<?xml version=\"1.0\" version=\"2\"?><r/>", "<?XML version=\"2\"?><r/>", "<?é?><r/>",
	// DOCTYPE and other directives.
	"<!DOCTYPE r><r/>", "<!DOCTYPE r [<!ENTITY e \"x\">]><r>&e;</r>",
	"<!DOCTYPE r [<!ENTITY e \"x\">]><r/>", "<!DOCTYPE r [<!-- c > -->]><r/>",
	"<!DOCTYPE r \"a>b\"><r/>", "<!DOCTYPE r 'a>b'><r/>", "<!><r/>", "<!>><r/>",
	"<!DOCTYPE r [<!ELEMENT r ANY>]><r/>", "<!DOCTYPE", "<!X <>> <r/>", "<!X <!>> <r/>",
	"<!X <!->> <r/>", "<!X <!-- -->> <r/>", "<!X <!-- --> ><r/>", "<!\"a>b\"><r/>",
	"<!X '\x00'><r/>", "<!X \x00><r/>", "<!X <\"a>\"<r/>", "<r><!DOCTYPE x></r>",
	// Line ends and white space.
	"<r a=\"x\r\ny\rz\">a\r\nb\rc</r>", "<r>\r</r>", "<r>\r\n</r>", "<r>\r\r\n\n</r>",
	"<r>\u00a0</r>", "<r>\u00a0<a/></r>", "<r><a/>\u3000</r>", "<r> \n\t </r>",
	"<r>\u0085</r>", "<r>\u2028x</r>", "\u00a0<r/>", "<r/>\u00a0", "<r>&#32;<a/></r>",
	"<r>&#160;</r>", "<r>\v</r>", "<r>\f</r>",
	// Byte order mark.
	"\ufeff<r/>", "<r>\ufeff</r>",
	// Attributes.
	"<r a=\"1\" a=\"2\"/>", "<r a='1'b='2'/>", "<a/ >", "<a b>", "<a b=c/>",
	"<a b=\"<\"/>", "<a b='x\"y'/>", "<a b=\"\"/>", "<r a = \"1\" />",
	"<a\n\nb\n=\n\"1\"\n/>", "<a b=\"1\" c/>", "<a b=\"1\"/", "<a b=\"1\"", "<a b=\"1", "<a b=",
	"<a b", "<a ", "<a", "<", "</", "<!", "<!-", "<![", "<?", "<r a=\"\xff\"/>",
	"<r a=\"\x01\"/>", "<r a=\"\t\"/>", "<r a=\"&#0;\"/>",
	// Names.
	"<a:b:c/>", "<r a:b:c=\"1\"/>", "<r></a:b:c>", "< a/>", "<1a/>", "<a 1b=\"x\"/>",
	"<\xff/>", "<a\xc3\xa9/>", "<é/>", "<a\u0300/>", "<\u0300/>", "<a\u00b7b/>", "<_/>",
	"<:/>", "<-a/>", "<.a/>", "<r.1-2_3/>", "<a\xc3/>", "<r></r\xff>", "<r></ r>",
	"<r></r x>", "<r></r\n>", "<r></r \n >", "</\n", "<\n", "<r>&amp\n</r>",
	// Namespaces.
	"<r xmlns=\"urn:x\"/>", "<p:r xmlns:p=\"urn:p\"><p:a p:k=\"v\"/></p:r>",
	"<r xml:lang=\"en\"/>", "<xml:r/>", "<q:r/>", "<r q:k=\"v\"/>",
	"<r xmlns:p=\"u\"><p:a/></r><!-- -->", "<p:r xmlns:p=\"\"/>", "<r xmlns:p=\"xmlns\"><a p:x=\"1\"/></r>",
	"<r xmlns:p=\"xmlns:q\"><a p:x=\"1\"/></r>", "<xmlns:a/>", "<xmlns/>", "<r xmlns:=\"\"/>",
	"<r :xmlns=\"u\"/>", "<:a/>", "<a:/>", "<r><a></p:a></r>", "<p:a></a>", "<p:a></q:a>",
	"<r xmlns=\"u\"><a xmlns=\"\"/></r>", "<r xmlns:p=\"1\"><a xmlns:p=\"2\"><p:x/></a><p:y/></r>",
	"<r xmlns:p=\"1\" xmlns:p=\"2\"><p:a/></r>", "<r xmlns:xml=\"u\"><xml:a/></r>",
	"<r xmlns:xmlns=\"u\"><xmlns:a/></r>", "<p:r xmlns:p=\"u\"></p:r>", "<r xmlns=\"u\"></r>",
	"<r xmlns=\"u\" a=\"1\"/>", "<u:r xmlns:u=\"u\" u:a=\"1\" a=\"2\"/>",
	// Character data errors.
	"<r>\x00</r>", "<r>\xff</r>", "<r>\xef\xbf\xbe</r>", "<r>\xed\xa0\x80</r>",
	"<r>\xf4\x90\x80\x80</r>", "<r>ok\xc3</r>", "<r>\xc3", "<r>a\nb\nc\xff</r>",
	// Line numbers in errors.
	"<r>\n<a>\n</b>\n</r>", "<r>\n\n<a/ >", "<r\n\n/ >", "<![\nCDATA[", "<!-\n",
	"<r>\n\n&bad;\n</r>", "<r a=\"\n\n<\"/>", "<r>\r\r<a/ ></r>", "\n\n\n", "\n<r>\n",
	"<r>\n<!-- a -- -->\n</r>",
	// The scanner's fast paths: end tags compared with the open
	// element's name; names that share a name-table slot (the same
	// length and end bytes), ten of them overrunning the probe bound;
	// and character data validated only when it holds a non-ASCII or
	// control byte or an entity produced one.
	"<ab></a>", "<a></ab>", "<ab></ab:c>", "<p:a xmlns:p=\"u\"></p:a >", "<a></a\xc3\xa9>",
	"<a\xc3\xa9></a\xc3\xa9>", "<r><axb/><ayb/><axb/></r>",
	"<r><abcdefgh1ijklmnop/><abcdefgh2ijklmnop/><abcdefgh1ijklmnop/></r>",
	"<r><abcdefgh0ijklmnop/><abcdefgh1ijklmnop/><abcdefgh2ijklmnop/><abcdefgh3ijklmnop/>" +
		"<abcdefgh4ijklmnop/><abcdefgh5ijklmnop/><abcdefgh6ijklmnop/><abcdefgh7ijklmnop/>" +
		"<abcdefgh8ijklmnop/><abcdefgh9ijklmnop/><abcdefgh8ijklmnop/></r>",
	"<r>abc\x01</r>", "<r a=\"abc\x01\"/>", "<r><![CDATA[ab\xff]]></r>", "<r a=\"x&#1;\"/>",
}

// TestWalkTokensOracle runs every acceptance case through both walkers
// under every read pattern and a range of depth limits.
func TestWalkTokensOracle(t *testing.T) {
	for _, src := range acceptanceCases {
		for _, rd := range readers {
			for _, depth := range []int{0, 1, 2, 3} {
				data := []byte(src)
				if d := diffWalks(func() io.Reader { return rd.wrap(data) }, depth); d != "" {
					t.Errorf("%q (%s, depth %d): %s", src, rd.name, depth, d)
				}
			}
		}
	}
}

// FuzzWalkTokens compares the scanner to the oracle on every input and
// depth limit, reading whole and one byte at a time.
func FuzzWalkTokens(f *testing.F) {
	for _, src := range acceptanceCases {
		f.Add([]byte(src), uint8(0))
	}
	f.Add([]byte("<a><a><a><a></a></a></a></a>"), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, depth uint8) {
		for _, rd := range readers[:2] {
			if d := diffWalks(func() io.Reader { return rd.wrap(data) }, int(depth)); d != "" {
				t.Fatalf("%s read, depth %d: %s\ninput: %q", rd.name, depth, d, data)
			}
		}
	})
}

// TestAcceptanceContract pins the outcomes WalkTokens' doc comment
// promises, beyond agreeing with the oracle.
func TestAcceptanceContract(t *testing.T) {
	cases := []struct{ src, events, err string }{
		{"<r>&lt;&gt;&amp;&apos;&quot;</r>", "open \"r\"\ntext \"<>&'\\\"\"\nclose \"r\"\n", ""},
		{"<r>&#65;&#x42;</r>", "open \"r\"\ntext \"AB\"\nclose \"r\"\n", ""},
		{"<r>&#xD800;</r>", "open \"r\"\ntext \"\uFFFD\"\nclose \"r\"\n", ""},
		{"<r>&#0;</r>", "open \"r\"\n", "illegal character code U+0000"},
		{"<r><![CDATA[<&>]]></r>", "open \"r\"\ntext \"<&>\"\nclose \"r\"\n", ""},
		{"<r><!-- a -- b --></r>", "open \"r\"\n", `invalid sequence "--" not allowed in comments`},
		{"<?pi x?><r/>", "open \"r\"\nclose \"r\"\n", ""},
		{"<!DOCTYPE r [<!ENTITY e \"x\">]><r>&e;</r>", "open \"r\"\n", "invalid character entity &e;"},
		{"<?xml version=\"1.1\"?><r/>", "", "xml: unsupported version \"1.1\"; only version 1.0 is supported"},
		{"<?xml version=\"1.0\" encoding=\"latin1\"?><r/>", "", "xml: encoding \"latin1\" declared but Decoder.CharsetReader is nil"},
		{"<r a=\"x\r\ny\">a\rb</r>", "open \"r\" \"a\"=\"x\\ny\"\ntext \"a\\nb\"\nclose \"r\"\n", ""},
		{"<r>\u00a0\u00a0<a/></r>", "open \"r\"\nopen \"a\"\nclose \"a\"\nclose \"r\"\n", ""},
		{"\ufeff<r/>", "", "character data outside the root element"},
		{"<r a=\"1\" a=\"2\"/>", "open \"r\" \"a\"=\"1\" \"a\"=\"2\"\nclose \"r\"\n", ""},
		{"<a:b:c/>", "", "expected element name after <"},
		{"<p:a xmlns:p=\"u\" xml:lang=\"en\" q:k=\"v\"/>",
			"open \"u:a\" \"http://www.w3.org/XML/1998/namespace:lang\"=\"en\" \"q:k\"=\"v\"\nclose \"u:a\"\n", ""},
		{"<r xmlns=\"urn:x\"/>", "open \"urn:x:r\"\nclose \"urn:x:r\"\n", ""},
	}
	for _, c := range cases {
		events, err := walkLog(WalkTokens, strings.NewReader(c.src), 0)
		if events != c.events {
			t.Errorf("%q: events %q, want %q", c.src, events, c.events)
		}
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%q: unexpected error %v", c.src, err)
		case c.err != "" && (err == nil || !strings.HasSuffix(err.Error(), c.err)):
			t.Errorf("%q: error %v, want one ending in %q", c.src, err, c.err)
		}
	}
}

// TestNameTables checks isName against the decoder for every code
// point of the Basic Multilingual Plane, as a name's first character
// and as a later one, and for a few beyond it.
func TestNameTables(t *testing.T) {
	decoderName := func(name string) bool {
		tok, err := xml.NewDecoder(strings.NewReader("<" + name + "/>")).Token()
		if err != nil {
			return false
		}
		start, ok := tok.(xml.StartElement)
		return ok && oracleName(start.Name) == name
	}
	for r := rune(0); r <= 0x10FFFF; r++ {
		if r >= 0xD800 && r <= 0xDFFF || r > 0xFFFF && r&0xFFF != 0 {
			continue // surrogates never decode; sample the planes above
		}
		c := string(r)
		if !utf8.ValidString(c) {
			continue
		}
		if got, want := isName([]byte(c)), decoderName(c); got != want {
			t.Errorf("%U as first name character: isName %v, decoder %v", r, got, want)
		}
		if got, want := isName([]byte("a"+c+"b")), decoderName("a"+c+"b"); got != want {
			t.Errorf("%U as a later name character: isName %v, decoder %v", r, got, want)
		}
	}
}
