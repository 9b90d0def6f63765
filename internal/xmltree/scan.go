package xmltree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"strings"
	"unicode"
	"unicode/utf8"
)

// This file is the tokenizer behind WalkTokens: a hand-written scanner
// that reads the input through one reused window and hands WalkTokens
// one token at a time. It makes exactly the checks encoding/xml's
// strict Decoder.Token loop makes, in the same order, so the same
// input yields the same tokens and the same error text — including
// the line number, which counts the newlines consumed when the
// decoder would have stopped. It runs loops over the window where the
// decoder reads byte by byte, and peeks where the decoder reads a byte
// and puts it back. The oracle in oracle_test.go is the encoding/xml
// loop, and FuzzWalkTokens compares the two.

const (
	// windowSize is the fixed size of the read window. A token longer
	// than the window is accumulated in the scanner's side buffers.
	windowSize = 32 << 10
	// internCap bounds the per-walk name table; names past it are
	// allocated per occurrence.
	internCap = 1024
	// internMaxLen is the longest name the table keeps, so the table
	// stays small however long the names of a hostile document are.
	internMaxLen = 64
	// internProbes bounds the slots a lookup probes, so names crafted
	// to share a hash cost a few comparisons each, not a table's worth.
	// A name that finds no free slot among them is not kept.
	internProbes = 8
	// maxEmptyReads is how many (0, nil) reads in a row the scanner
	// tolerates before failing with io.ErrNoProgress, as bufio does.
	maxEmptyReads = 100

	xmlURL = "http://www.w3.org/XML/1998/namespace"
)

// token is what scanner.next found.
type token int

const (
	tokEOF   token = iota // end of input with no element open
	tokStart              // start tag: its element is pushed, attrs set
	tokEnd                // end tag matching the innermost open element
	tokText               // character data: text[chunk:] is the chunk
)

// frame is one open element.
type frame struct {
	label       string // name after namespace translation
	raw         string // name as written, matched against the end tag
	colon       int    // raw's prefix separator, or -1
	bound       int    // namespace bindings the start tag pushed
	hasChildren bool
}

// binding is a namespace binding a start tag displaced, restored when
// the element closes.
type binding struct {
	prefix, old string
	had         bool
}

// rawAttr is an attribute as written: its name (interned) and the
// span of its decoded value in scanner.vals.
type rawAttr struct {
	name     string
	colon    int
	from, to int
}

type scanner struct {
	r    io.Reader
	win  []byte // the window, windowSize bytes
	pos  int    // next unread byte of win
	end  int    // end of the bytes read into win
	rerr error  // read failure, surfaced once win[pos:end] is consumed

	lines int // newlines in the windows before this one

	// names is the walk's name table, at most internCap names of at
	// most internMaxLen bytes each. nameSlots indexes it by nameHash,
	// probed linearly for at most internProbes slots: 0 marks an empty
	// slot, any other value is an index into names plus one.
	names     []string
	nameSlots [2 * internCap]uint16

	ns   map[string]string // namespace prefix bindings in scope
	undo []binding

	stack     []frame
	needClose bool // the last start tag was self-closing

	attrs []Attr // tokStart: the attributes, xmlns declarations removed
	text  []byte // pending character data of the innermost element
	chunk int    // tokText: where the new chunk starts in text

	raws []rawAttr
	vals []byte // decoded attribute values of the current start tag
	nbuf []byte // a name that spans a window refill
	tmp  []byte
}

func newScanner(r io.Reader) *scanner {
	return &scanner{r: r, win: make([]byte, windowSize)}
}

// fill reads the next window once every byte of the current one is
// consumed. It reports false when the input is exhausted or failed;
// s.rerr then holds io.EOF or the read error.
func (s *scanner) fill() bool {
	if s.rerr != nil {
		return false
	}
	s.lines += bytes.Count(s.win[:s.end], []byte{'\n'})
	s.pos, s.end = 0, 0
	for i := 0; i < maxEmptyReads; i++ {
		n, err := s.r.Read(s.win)
		if n < 0 || n > len(s.win) {
			panic("xmltree: reader returned an invalid count")
		}
		s.end = n
		if err != nil {
			s.rerr = err
			return n > 0
		}
		if n > 0 {
			return true
		}
	}
	s.rerr = io.ErrNoProgress
	return false
}

func (s *scanner) peek() (byte, bool) {
	if s.pos == s.end && !s.fill() {
		return 0, false
	}
	return s.win[s.pos], true
}

// mustPeek is peek where the input may not end.
func (s *scanner) mustPeek() (byte, error) {
	b, ok := s.peek()
	if !ok {
		return 0, s.failure("unexpected EOF")
	}
	return b, nil
}

// mustGet consumes one byte where the input may not end.
func (s *scanner) mustGet() (byte, error) {
	b, err := s.mustPeek()
	if err == nil {
		s.pos++
	}
	return b, err
}

// failure is the error for input that ended where it may not: a
// syntax error with msg at the end of the input, or the read error.
func (s *scanner) failure(msg string) error {
	if s.rerr == io.EOF {
		return s.syntaxError(msg)
	}
	return &MalformedError{Err: fmt.Errorf("xmltree: %v", s.rerr)}
}

func (s *scanner) syntaxError(msg string) error {
	line := 1 + s.lines + bytes.Count(s.win[:s.pos], []byte{'\n'})
	return &MalformedError{Err: fmt.Errorf("xmltree: XML syntax error on line %d: %s", line, msg)}
}

// space skips XML white space; the end of the input stops it silently.
func (s *scanner) space() {
	for {
		for ; s.pos < s.end; s.pos++ {
			switch s.win[s.pos] {
			case ' ', '\r', '\n', '\t':
			default:
				return
			}
		}
		if !s.fill() {
			return
		}
	}
}

// next scans the next token WalkTokens acts on, skipping comments,
// processing instructions and directives.
func (s *scanner) next() (token, error) {
	if s.needClose {
		s.needClose = false
		return tokEnd, nil
	}
	for {
		b, ok := s.peek()
		switch {
		case !ok && s.rerr == io.EOF && len(s.stack) == 0:
			return tokEOF, nil
		case !ok:
			return 0, s.failure("unexpected EOF")
		case b != '<':
			return s.charData(false)
		}
		s.pos++
		b, err := s.mustGet()
		if err != nil {
			return 0, err
		}
		switch b {
		case '/':
			return s.endTag()
		case '?':
			err = s.procInst()
		case '!':
			var cdata bool
			if cdata, err = s.markupDecl(); cdata && err == nil {
				return s.charData(true)
			}
		default:
			s.pos--
			return s.startTag()
		}
		if err != nil {
			return 0, err
		}
	}
}

// charData scans one chunk of character data, or the body of a CDATA
// section, onto the pending text.
func (s *scanner) charData(cdata bool) (token, error) {
	s.chunk = len(s.text)
	text, err := s.chars(s.text, 0, cdata)
	if err != nil {
		return 0, err
	}
	s.text = text
	return tokText, nil
}

// Byte classes of character data. A stop bit marks the bytes that end
// a run of one kind of data in chars, because they need the decoder's
// per-byte handling. charCheck marks the bytes checkChars must see:
// every byte of a multi-byte sequence, and the control characters other
// than tab, line feed and carriage return. Data in which chars meets
// none of them is valid as it stands.
const (
	stopText  = 1 << iota // '<', '&', '\r' or ']' in text
	stopCDATA             // ']' or '\r' in a CDATA section
	stopQuot              // '<', '&', '\r' or '"' in a "-quoted value
	stopApos              // '<', '&', '\r' or '\'' in a '-quoted value
	charCheck
)

var charClass = func() (t [256]uint8) {
	stops := []struct {
		bit     uint8
		special string
	}{{stopText, "<&\r]"}, {stopCDATA, "]\r"}, {stopQuot, "<&\r\""}, {stopApos, "<&\r'"}}
	for c := range t {
		for _, st := range stops {
			if strings.IndexByte(st.special, byte(c)) >= 0 {
				t[c] |= st.bit
			}
		}
		if c >= utf8.RuneSelf || c < 0x20 && c != '\t' && c != '\n' && c != '\r' {
			t[c] |= charCheck
		}
	}
	return t
}()

// Name byte classes. scanName reads a run of bytes with any class;
// isName decides the ASCII ones with the table and decodes the rest.
const (
	nameStartByte = 1 << iota // letter, '_' or ':'
	nameByte                  // also digit, '.' or '-'
	nameHighByte              // part of a multi-byte sequence
	nameColon                 // ':'
)

var nameClass = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		switch {
		case c >= utf8.RuneSelf:
			t[c] = nameHighByte
		case c == ':':
			t[c] = nameStartByte | nameByte | nameColon
		case 'A' <= c && c <= 'Z', 'a' <= c && c <= 'z', c == '_':
			t[c] = nameStartByte | nameByte
		case '0' <= c && c <= '9', c == '.', c == '-':
			t[c] = nameByte
		}
	}
	return t
}()

// chars appends decoded character data to dst: text up to '<' or the
// end of the input, an attribute value up to its closing quote (quote
// != 0), or a CDATA section up to "]]>". Entities are expanded and
// "\r\n" and "\r" become "\n". The data is validated once it is
// complete, and only when it holds a byte of class charCheck.
func (s *scanner) chars(dst []byte, quote byte, cdata bool) ([]byte, error) {
	stop := uint8(stopText)
	switch {
	case cdata:
		stop = stopCDATA
	case quote == '"':
		stop = stopQuot
	case quote == '\'':
		stop = stopApos
	}
	from := len(dst)
	var seen uint8 // the classes of the bytes appended
	// b0 and b1 are the last two raw bytes, for "]]>" and "\r\n". After
	// a run of plain bytes b0 no longer matters, since b1 is not ']'.
	var b0, b1 byte
	for {
		if b1 != ']' && b1 != '\r' {
			w := s.win[s.pos:s.end]
			i := 0
			for ; i < len(w); i++ {
				c := charClass[w[i]]
				if c&stop != 0 {
					break
				}
				seen |= c
			}
			if i > 0 {
				dst = append(dst, w[:i]...)
				b0, b1 = 0, w[i-1]
				s.pos += i
			}
		}
		b, ok := s.peek()
		if !ok {
			if cdata {
				return nil, s.failure("unexpected EOF in CDATA section")
			}
			return s.validated(dst, from, seen)
		}
		s.pos++
		if quote == 0 && b0 == ']' && b1 == ']' && b == '>' {
			if cdata {
				return s.validated(dst[:len(dst)-2], from, seen)
			}
			return nil, s.syntaxError("unescaped ]]> not in CDATA section")
		}
		if b == '<' && !cdata {
			if quote != 0 {
				return nil, s.syntaxError("unescaped < inside quoted string")
			}
			s.pos--
			return s.validated(dst, from, seen)
		}
		if quote != 0 && b == quote {
			return s.validated(dst, from, seen)
		}
		if b == '&' && !cdata {
			n := len(dst)
			var err error
			if dst, err = s.entity(dst); err != nil {
				return nil, err
			}
			for _, c := range dst[n:] {
				seen |= charClass[c]
			}
			b0, b1 = 0, 0
			continue
		}
		seen |= charClass[b]
		switch {
		case b == '\r':
			dst = append(dst, '\n')
		case b1 == '\r' && b == '\n':
		default:
			dst = append(dst, b)
		}
		b0, b1 = b1, b
	}
}

// validated returns dst, whose data from index from on chars decoded,
// once checkChars has passed that data, if seen holds charCheck. An
// error's line is the one chars stopped on, as the decoder's is.
func (s *scanner) validated(dst []byte, from int, seen uint8) ([]byte, error) {
	if seen&charCheck != 0 {
		if err := s.checkChars(dst[from:]); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// entity expands the reference after a consumed '&', appending its
// text to dst. Only the five predefined entities and character
// references below U+110000 expand; anything else is an error quoting
// the reference as written.
func (s *scanner) entity(dst []byte) ([]byte, error) {
	before := len(dst)
	dst = append(dst, '&')
	b, err := s.mustPeek()
	if err != nil {
		return nil, err
	}
	if b == '#' {
		s.pos++
		dst = append(dst, '#')
		if b, err = s.mustPeek(); err != nil {
			return nil, err
		}
		base := uint64(10)
		if b == 'x' {
			s.pos++
			base = 16
			dst = append(dst, 'x')
			if b, err = s.mustPeek(); err != nil {
				return nil, err
			}
		}
		start := len(dst)
		for digitValue(b, base) >= 0 {
			s.pos++
			dst = append(dst, b)
			if b, err = s.mustPeek(); err != nil {
				return nil, err
			}
		}
		if b == ';' {
			s.pos++
			var n uint64
			for _, d := range dst[start:] {
				if n <= unicode.MaxRune {
					n = n*base + uint64(digitValue(d, base))
				}
			}
			if len(dst) > start && n <= unicode.MaxRune {
				return utf8.AppendRune(dst[:before], rune(n)), nil
			}
			dst = append(dst, ';')
		}
	} else {
		name, _, err := s.scanName()
		if err != nil {
			return nil, err
		}
		dst = append(dst, name...)
		if b, err = s.mustPeek(); err != nil {
			return nil, err
		}
		if b == ';' {
			s.pos++
			if c := predefined(dst[before+1:]); c != 0 {
				return append(dst[:before], c), nil
			}
			dst = append(dst, ';')
		}
	}
	ent := string(dst[before:])
	if ent[len(ent)-1] != ';' {
		ent += " (no semicolon)"
	}
	return nil, s.syntaxError("invalid character entity " + ent)
}

// digitValue is the value of c as a digit in base 10 or 16, or -1.
func digitValue(c byte, base uint64) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case base == 16 && 'a' <= c && c <= 'f':
		return int(c-'a') + 10
	case base == 16 && 'A' <= c && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

// predefined is the character a predefined entity names, or 0.
func predefined(name []byte) byte {
	switch string(name) {
	case "lt":
		return '<'
	case "gt":
		return '>'
	case "amp":
		return '&'
	case "apos":
		return '\''
	case "quot":
		return '"'
	}
	return 0
}

// checkChars rejects decoded character data holding invalid UTF-8 or
// a code point outside XML's Char production, reporting the first.
func (s *scanner) checkChars(b []byte) error {
	for i := 0; i < len(b); {
		if c := b[i]; c < utf8.RuneSelf {
			if c < 0x20 && c != '\t' && c != '\n' && c != '\r' {
				return s.syntaxError(fmt.Sprintf("illegal character code %U", rune(c)))
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && size == 1 {
			return s.syntaxError("invalid UTF-8")
		}
		if !(r >= 0x20 && r <= 0xD7FF || r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= unicode.MaxRune) {
			return s.syntaxError(fmt.Sprintf("illegal character code %U", r))
		}
		i += size
	}
	return nil
}

// scanName reads a maximal run of name bytes: ASCII name characters
// and every byte of a multi-byte sequence, which isName judges later.
// class is the union of the name's byte classes, and 0, with nothing
// consumed, when the next byte cannot start a name. The result aliases
// the window (or s.nbuf, when the name spans a refill) and is valid
// until the next read.
func (s *scanner) scanName() (name []byte, class uint8, err error) {
	b, err := s.mustPeek()
	if err != nil || nameClass[b] == 0 {
		return nil, 0, err
	}
	start := s.pos
	s.nbuf = s.nbuf[:0]
	for {
		w := s.win[:s.end]
		i := s.pos
		for ; i < len(w); i++ {
			c := nameClass[w[i]]
			if c == 0 {
				break
			}
			class |= c
		}
		s.pos = i
		if i < len(w) {
			if len(s.nbuf) == 0 {
				return w[start:i], class, nil
			}
			s.nbuf = append(s.nbuf, w[start:i]...)
			return s.nbuf, class, nil
		}
		s.nbuf = append(s.nbuf, w[start:i]...)
		if !s.fill() {
			return nil, 0, s.failure("unexpected EOF")
		}
		start = 0
	}
}

// validName is isName for a name scanName read with the given class:
// an ASCII name is a name when its first byte can start one.
func validName(name []byte, class uint8) bool {
	if class&nameHighByte != 0 {
		return isName(name)
	}
	return nameClass[name[0]]&nameStartByte != 0
}

// isName reports whether b is an XML name: a nameStart character
// followed by nameChar characters.
func isName(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	for i := 0; i < len(b); {
		if c := nameClass[b[i]]; c != nameHighByte {
			if c == 0 || i == 0 && c&nameStartByte == 0 {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && size == 1 {
			return false
		}
		table := nameChar
		if i == 0 {
			table = nameStart
		}
		if !unicode.Is(table, r) {
			return false
		}
		i += size
	}
	return true
}

// qname reads a name with an optional prefix. missing is the error for
// a name that is absent or has more than one colon. colon is the index
// of the prefix separator, or -1 when the name has no prefix (no
// colon, or a colon at either end). The name aliases the window.
func (s *scanner) qname(missing string) (name []byte, colon int, err error) {
	name, class, err := s.scanName()
	if err != nil {
		return nil, 0, err
	}
	if class == 0 {
		return nil, 0, s.syntaxError(missing)
	}
	if !validName(name, class) {
		return nil, 0, s.syntaxError("invalid XML name: " + string(name))
	}
	if class&nameColon == 0 {
		return name, -1, nil
	}
	colon = bytes.IndexByte(name, ':')
	if bytes.IndexByte(name[colon+1:], ':') >= 0 {
		return nil, 0, s.syntaxError(missing)
	}
	if colon == 0 || colon == len(name)-1 {
		colon = -1
	}
	return name, colon, nil
}

// split returns a name's prefix and local part.
func split(name string, colon int) (prefix, local string) {
	if colon < 0 {
		return "", name
	}
	return name[:colon], name[colon+1:]
}

// intern returns b as a string: the name table's copy when it holds
// b, else a new string, which the table keeps while it has room.
func (s *scanner) intern(b []byte) string {
	if len(b) > internMaxLen {
		return string(b)
	}
	const mask = uint64(len(s.nameSlots) - 1)
	i := nameHash(b)
	for range internProbes {
		i &= mask
		k := s.nameSlots[i]
		if k == 0 {
			v := string(b)
			if len(s.names) < internCap {
				s.names = append(s.names, v)
				s.nameSlots[i] = uint16(len(s.names))
			}
			return v
		}
		if v := s.names[k-1]; v == string(b) {
			return v
		}
		i++
	}
	return string(b)
}

// nameHash mixes a name's length with its first and last eight bytes,
// or four, or its first, middle and last byte: every byte of a name of
// up to sixteen bytes.
func nameHash(b []byte) uint64 {
	n := len(b)
	var lo, hi uint64
	switch {
	case n >= 8:
		lo, hi = binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[n-8:])
	case n >= 4:
		lo, hi = uint64(binary.LittleEndian.Uint32(b)), uint64(binary.LittleEndian.Uint32(b[n-4:]))
	case n > 0:
		lo = uint64(b[0])<<16 | uint64(b[n/2])<<8 | uint64(b[n-1])
	}
	h, l := bits.Mul64(lo^0xa0761d6478bd642f, hi^uint64(n)^0xe7037ed1a0b428db)
	return h ^ l
}

// startTag scans a start tag after its '<', pushes its element and
// leaves its attributes in s.attrs.
func (s *scanner) startTag() (token, error) {
	name, colon, err := s.qname("expected element name after <")
	if err != nil {
		return 0, err
	}
	raw := s.intern(name)
	s.raws, s.vals = s.raws[:0], s.vals[:0]
	for {
		s.space()
		b, err := s.mustGet()
		if err != nil {
			return 0, err
		}
		if b == '/' {
			if b, err = s.mustGet(); err != nil {
				return 0, err
			}
			if b != '>' {
				return 0, s.syntaxError("expected /> in element")
			}
			s.needClose = true
			break
		}
		if b == '>' {
			break
		}
		s.pos--
		aname, acolon, err := s.qname("expected attribute name in element")
		if err != nil {
			return 0, err
		}
		a := rawAttr{name: s.intern(aname), colon: acolon}
		s.space()
		if b, err = s.mustGet(); err != nil {
			return 0, err
		}
		if b != '=' {
			return 0, s.syntaxError("attribute name without = in element")
		}
		s.space()
		if b, err = s.mustGet(); err != nil {
			return 0, err
		}
		if b != '"' && b != '\'' {
			return 0, s.syntaxError("unquoted or missing attribute value in element")
		}
		a.from = len(s.vals)
		if s.vals, err = s.chars(s.vals, b, false); err != nil {
			return 0, err
		}
		a.to = len(s.vals)
		s.raws = append(s.raws, a)
	}

	// The declarations on a tag apply to its own name and attributes.
	undone := len(s.undo)
	for _, a := range s.raws {
		switch prefix, local := split(a.name, a.colon); {
		case prefix == "xmlns":
			s.bind(local, string(s.vals[a.from:a.to]))
		case prefix == "" && local == "xmlns":
			s.bind("", string(s.vals[a.from:a.to]))
		}
	}
	s.stack = append(s.stack, frame{
		label: s.translate(raw, colon, true),
		raw:   raw,
		colon: colon,
		bound: len(s.undo) - undone,
	})
	s.attrs = s.attrs[:0]
	var vals string // all values in one allocation, sliced per attribute
	for _, a := range s.raws {
		name := s.translate(a.name, a.colon, false)
		if name == "xmlns" || strings.HasPrefix(name, "xmlns:") {
			continue
		}
		if vals == "" {
			vals = string(s.vals)
		}
		s.attrs = append(s.attrs, Attr{Name: name, Value: vals[a.from:a.to]})
	}
	return tokStart, nil
}

func (s *scanner) bind(prefix, uri string) {
	old, had := s.ns[prefix]
	s.undo = append(s.undo, binding{prefix: prefix, old: old, had: had})
	if s.ns == nil {
		s.ns = make(map[string]string)
	}
	s.ns[prefix] = uri
}

// translate maps a name to its label: a bound prefix (or, for element
// names, the default namespace) becomes its URI, "xml" becomes the XML
// namespace URI, and anything else stays as written.
func (s *scanner) translate(name string, colon int, elem bool) string {
	if colon < 0 && len(s.ns) == 0 {
		return name // no prefix, and no default namespace in scope
	}
	prefix, local := split(name, colon)
	space := prefix
	switch {
	case prefix == "xmlns", prefix == "" && !elem, prefix == "" && local == "xmlns":
		return name
	case prefix == "xml":
		space = xmlURL
	default:
		if uri, ok := s.ns[prefix]; ok {
			space = uri
		}
	}
	switch space {
	case prefix:
		return name
	case "":
		return local
	}
	s.tmp = append(append(append(s.tmp[:0], space...), ':'), local...)
	return s.intern(s.tmp)
}

// pop closes the innermost element, restoring the namespace bindings
// its start tag displaced.
func (s *scanner) pop() frame {
	f := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	for i := 0; i < f.bound; i++ {
		b := s.undo[len(s.undo)-1]
		s.undo = s.undo[:len(s.undo)-1]
		if b.had {
			s.ns[b.prefix] = b.old
		} else {
			delete(s.ns, b.prefix)
		}
	}
	return f
}

// endTag scans an end tag after its "</" and checks it closes the
// innermost open element.
func (s *scanner) endTag() (token, error) {
	var top *frame
	if len(s.stack) > 0 {
		top = &s.stack[len(s.stack)-1]
	}
	var name string
	var colon int
	matched := top != nil && s.skipName(top.raw)
	if matched {
		name, colon = top.raw, top.colon
	} else {
		b, c, err := s.qname("expected element name after </")
		if err != nil {
			return 0, err
		}
		if matched = top != nil && string(b) == top.raw; matched {
			name = top.raw
		} else {
			name = string(b) // copied: the window moves on below
		}
		colon = c
	}
	s.space()
	c, err := s.mustGet()
	if err != nil {
		return 0, err
	}
	prefix, local := split(name, colon)
	if c != '>' {
		return 0, s.syntaxError("invalid characters between </" + local + " and >")
	}
	if matched {
		return tokEnd, nil
	}
	if top == nil {
		return 0, s.syntaxError("unexpected end element </" + local + ">")
	}
	topPrefix, topLocal := split(top.raw, top.colon)
	if topLocal != local {
		return 0, s.syntaxError("element <" + topLocal + "> closed by </" + local + ">")
	}
	if prefix == "" {
		prefix = `""`
	}
	return 0, s.syntaxError("element <" + topLocal + "> in space " + topPrefix +
		" closed by </" + local + "> in space " + prefix)
}

// skipName consumes name when the window holds it followed by a byte that
// cannot continue a name: the name qname would read there, and valid,
// since name came from a start tag. Anything else, including a name
// that reaches the window's end, is left to qname.
func (s *scanner) skipName(name string) bool {
	end := s.pos + len(name)
	if end >= s.end || string(s.win[s.pos:end]) != name || nameClass[s.win[end]] != 0 {
		return false
	}
	s.pos = end
	return true
}

// procInst skips a processing instruction after its "<?". An XML
// declaration is checked: version 1.0 and UTF-8 only.
func (s *scanner) procInst() error {
	target, class, err := s.scanName()
	if err != nil {
		return err
	}
	if class == 0 {
		return s.syntaxError("expected target name after <?")
	}
	if !validName(target, class) {
		return s.syntaxError("invalid XML name: " + string(target))
	}
	decl := string(target) == "xml"
	s.space()
	s.tmp = s.tmp[:0]
	for b0 := byte(0); ; {
		b, err := s.mustGet()
		if err != nil {
			return err
		}
		if decl {
			s.tmp = append(s.tmp, b)
		}
		if b0 == '?' && b == '>' {
			break
		}
		b0 = b
	}
	if !decl {
		return nil
	}
	content := string(s.tmp[:len(s.tmp)-2])
	if ver := procInstParam("version", content); ver != "" && ver != "1.0" {
		return malformedf("xml: unsupported version %q; only version 1.0 is supported", ver)
	}
	if enc := procInstParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return malformedf("xml: encoding %q declared but Decoder.CharsetReader is nil", enc)
	}
	return nil
}

// procInstParam returns the quoted value of param in an XML
// declaration's content, or "". Like encoding/xml it takes the first
// occurrence of param= followed by a quote, wherever it stands.
func procInstParam(param, s string) string {
	param += "="
	i := 0
	var quote byte
	for i < len(s) {
		k := strings.Index(s[i:], param)
		if k < 0 || i+k+len(param) >= len(s) {
			return ""
		}
		i += k + len(param) + 1
		if c := s[i-1]; c == '\'' || c == '"' {
			quote = c
			break
		}
	}
	if quote == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], quote)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// markupDecl scans what follows "<!": a comment or a directive, both
// skipped, or the start of a CDATA section, whose body the caller
// then scans (cdata is true).
func (s *scanner) markupDecl() (cdata bool, err error) {
	b, err := s.mustGet()
	if err != nil {
		return false, err
	}
	switch b {
	case '-':
		return false, s.comment()
	case '[':
		for i := 0; i < len("CDATA["); i++ {
			if b, err = s.mustGet(); err != nil {
				return false, err
			}
			if b != "CDATA["[i] {
				return false, s.syntaxError("invalid <![ sequence")
			}
		}
		return true, nil
	}
	return false, s.directive()
}

// comment skips a comment after its "<!-".
func (s *scanner) comment() error {
	b, err := s.mustGet()
	if err != nil {
		return err
	}
	if b != '-' {
		return s.syntaxError("invalid sequence <!- not part of <!--")
	}
	var b0, b1 byte
	for {
		if b, err = s.mustGet(); err != nil {
			return err
		}
		if b0 == '-' && b1 == '-' {
			if b != '>' {
				return s.syntaxError(`invalid sequence "--" not allowed in comments`)
			}
			return nil
		}
		b0, b1 = b1, b
	}
}

// directive skips a directive such as <!DOCTYPE ...> after its "<!"
// and first byte: up to the first '>' outside quotes and outside the
// nested <...> of an internal subset, with comments inside skipped.
func (s *scanner) directive() error {
	var inquote byte
	depth := 0
	for {
		b, err := s.mustGet()
		if err != nil {
			return err
		}
		if inquote == 0 && b == '>' && depth == 0 {
			return nil
		}
	handle:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			for i := 0; i < len("!--"); i++ {
				if b, err = s.mustGet(); err != nil {
					return err
				}
				if b != "!--"[i] {
					depth++
					goto handle
				}
			}
			var b0, b1 byte
			for {
				if b, err = s.mustGet(); err != nil {
					return err
				}
				if b0 == '-' && b1 == '-' && b == '>' {
					break
				}
				b0, b1 = b1, b
			}
		}
	}
}
