package xmltree_test

// The tokenizer differential over the generator families, and the
// tokenizer benchmark. Both need internal/gen, which imports xmltree,
// so they live in the external test package.

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"

	"xmlnorm/internal/gen"
	"xmlnorm/internal/xmltree"
)

type genDoc struct {
	name string
	data []byte
}

func readAll(tb testing.TB, r io.Reader) []byte {
	tb.Helper()
	b, err := io.ReadAll(r)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// genDocs serializes small members of the University, DBLP, chain and
// log families, satisfied and violating logs both.
func genDocs(tb testing.TB) []genDoc {
	rng := rand.New(rand.NewSource(13))
	docs := []genDoc{
		{"university", []byte(gen.University(40, 5, 30, 10, rng).String())},
		{"dblp", []byte(gen.DBLP(3, 3, 8, rng).String())},
		{"log", readAll(tb, gen.SizedLog(48<<10, 7, 16, 24, false))},
		{"log-violating", readAll(tb, gen.SizedLog(48<<10, 8, 16, 24, true))},
	}
	for depth := 2; depth <= 6; depth += 2 {
		docs = append(docs, genDoc{"chain", []byte(gen.ChainDocument(depth, rng).String())})
	}
	return append(docs,
		genDoc{"windows-control", windowsDoc("\x01")},
		genDoc{"windows-utf8", windowsDoc("\xc3(")})
}

// windowsDoc is a document of about 96 KB that puts the scanner's fast
// paths across the boundaries of its 32 KB read window: the é of a
// non-ASCII element name straddles the first, an end tag's name the
// second, and the text chunk that ends the document holds bad, whose
// first byte is the last before the third. A walk stops at the first
// bad character, so each bad byte needs a document of its own.
func windowsDoc(bad string) []byte {
	const window = 32 << 10
	var b bytes.Buffer
	b.WriteString("<r>\n")
	padTo := func(off int) {
		const filler = "<e a=\"v\">plain text</e>\n"
		for b.Len()+len(filler) <= off {
			b.WriteString(filler)
		}
		for b.Len() < off {
			b.WriteByte(' ')
		}
	}
	padTo(window - len("<d\xc3"))
	b.WriteString("<d\u00e9tail>x</d\u00e9tail>\n")
	padTo(2*window - len("<entry>x</en"))
	b.WriteString("<entry>x</entry>\n")
	padTo(3*window - 1 - len("<t>text"))
	b.WriteString("<t>text" + bad + "</t>\n</r>\n")
	return b.Bytes()
}

// TestWalkTokensGenDifferential holds the scanner to the oracle on the
// generator families under every read pattern, and under reads that
// fail at seeded offsets: the read error must surface with the same
// text after the same events.
func TestWalkTokensGenDifferential(t *testing.T) {
	wraps := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"whole", func(r io.Reader) io.Reader { return r }},
		{"onebyte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
	}
	injected := errors.New("injected read failure")
	rng := rand.New(rand.NewSource(29))
	for _, d := range genDocs(t) {
		for _, w := range wraps {
			for _, depth := range []int{0, 3} {
				mk := func() io.Reader { return w.wrap(bytes.NewReader(d.data)) }
				if diff := xmltree.DiffWalks(mk, depth); diff != "" {
					t.Errorf("%s (%s, depth %d): %s", d.name, w.name, depth, diff)
				}
			}
			for i := 0; i < 8; i++ {
				cut := rng.Intn(len(d.data))
				mk := func() io.Reader {
					return w.wrap(io.MultiReader(bytes.NewReader(d.data[:cut]), iotest.ErrReader(injected)))
				}
				if diff := xmltree.DiffWalks(mk, 0); diff != "" {
					t.Errorf("%s (%s, read failing at %d): %s", d.name, w.name, cut, diff)
				}
			}
		}
	}
}

// BenchmarkWalkTokens measures the tokenizer alone (no callbacks) on a
// 4 MB log document, the same document with non-ASCII element names
// and padding, and a 1000-course University document. The generators
// print only ASCII, so log4MB-nonascii is what shows the cost of the
// scanner's ASCII fast paths to other input.
func BenchmarkWalkTokens(b *testing.B) {
	log := readAll(b, gen.SizedLog(4<<20, 1, 4096, 64, false))
	docs := []genDoc{
		{"log4MB", log},
		{"log4MB-nonascii", nonASCII(log)},
		{"university1000", []byte(gen.University(1000, 10, 200, 50, rand.New(rand.NewSource(1))).String())},
	}
	for _, d := range docs {
		b.Run(d.name, func(b *testing.B) {
			b.SetBytes(int64(len(d.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := xmltree.WalkTokens(bytes.NewReader(d.data), 0, xmltree.TokenCallbacks{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// nonASCII rewrites a log document's entry, detail and note element
// names to names with a non-ASCII letter, and each pair of its x
// padding bytes to the two-byte letter é, so the padding keeps its
// length.
func nonASCII(log []byte) []byte {
	for _, r := range []struct{ from, to string }{
		{"entry", "entrée"}, {"detail", "détail"}, {"note", "noté"}, {"xx", "é"},
	} {
		log = bytes.ReplaceAll(log, []byte(r.from), []byte(r.to))
	}
	return log
}
