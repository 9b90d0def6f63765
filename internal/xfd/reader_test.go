package xfd_test

// Tests for the reader-driven checker: CheckReader and friends must
// agree with the tree path (Violations / SatisfiesAll) on verdicts,
// violation sets and witness reports — compared through
// CanonicalReport, which renames the process-global vertex IDs that
// necessarily differ between a parse and a token walk — plus typed
// error behavior on malformed and over-deep input.

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"xmlnorm/internal/gen"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

// TestCheckReaderDifferential: ≥1000 random (document, Σ) instances;
// the streaming checker must reproduce the tree checker's verdict and
// canonical witness report exactly.
func TestCheckReaderDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20020609))
	instances := 0
	violating := 0
	for instances < 1000 {
		d := gen.RandomSimpleDTD(rng)
		doc, err := gen.Document(d, rng, 3, 2)
		if err != nil {
			t.Fatalf("gen.Document: %v", err)
		}
		ps, err := d.Paths()
		if err != nil {
			t.Fatalf("Paths: %v", err)
		}
		sigma := make([]xfd.FD, 0, 3)
		for len(sigma) < cap(sigma) {
			lhs := []string{ps[rng.Intn(len(ps))].String()}
			if rng.Intn(2) == 0 {
				lhs = append(lhs, ps[rng.Intn(len(ps))].String())
			}
			rhs := []string{ps[rng.Intn(len(ps))].String()}
			sigma = append(sigma, xfd.New(lhs, rhs))
		}
		instances++
		text := doc.String()

		cs, err := xfd.NewCheckerSetFor(sigma)
		if err != nil {
			t.Fatalf("NewCheckerSetFor: %v", err)
		}
		tree, err := xmltree.ParseString(text)
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		want := cs.Violations(tree)
		got, err := cs.ViolationsReader(strings.NewReader(text), xfd.ReaderOptions{})
		if err != nil {
			t.Fatalf("ViolationsReader: %v", err)
		}
		if len(want) > 0 {
			violating++
		}
		wantR, gotR := xfd.CanonicalReport(want), xfd.CanonicalReport(got)
		if wantR != gotR {
			t.Fatalf("reports differ for Σ=%v\ntree:\n%s\nreader:\n%s\ndocument:\n%s",
				sigma, wantR, gotR, text)
		}
		if (len(got) == 0) != cs.SatisfiesAll(tree) {
			t.Fatalf("verdict mismatch for Σ=%v on\n%s", sigma, text)
		}
	}
	if violating < 50 {
		t.Fatalf("only %d/%d instances violated Σ — the suite is not exercising witnesses", violating, instances)
	}
	t.Logf("%d instances, %d violating", instances, violating)
}

// TestCheckReaderTypedErrors: malformed and over-deep input fail with
// the typed errors, matching Parse's messages for malformed input.
func TestCheckReaderTypedErrors(t *testing.T) {
	cs, err := xfd.NewCheckerSetFor([]xfd.FD{xfd.MustParse("r.c.@k -> r.c.@v")})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"<r><c>", "<r/><r/>", "", "junk"} {
		_, rerr := cs.ViolationsReader(strings.NewReader(src), xfd.ReaderOptions{})
		var me *xmltree.MalformedError
		if !errors.As(rerr, &me) {
			t.Fatalf("%q: want MalformedError, got %v", src, rerr)
		}
		_, perr := xmltree.ParseString(src)
		if perr == nil || perr.Error() != rerr.Error() {
			t.Fatalf("%q: reader error %q, Parse error %q", src, rerr, perr)
		}
	}

	deep := strings.Repeat("<r>", 40) + strings.Repeat("</r>", 40)
	_, rerr := cs.ViolationsReader(strings.NewReader(deep), xfd.ReaderOptions{MaxDepth: 10})
	var de *xmltree.DepthError
	if !errors.As(rerr, &de) {
		t.Fatalf("want DepthError, got %v", rerr)
	}
	if de.Depth != 11 || de.Limit != 10 {
		t.Fatalf("DepthError = %+v", de)
	}
	// Negative MaxDepth means unlimited.
	if _, err := cs.ViolationsReader(strings.NewReader(deep), xfd.ReaderOptions{MaxDepth: -1}); err != nil {
		t.Fatalf("unlimited depth: %v", err)
	}
}

// TestCheckReaderAbortStillValidates: aborting FD work via onViolation
// must not cut the structural validation short.
func TestCheckReaderAbortStillValidates(t *testing.T) {
	cs, err := xfd.NewCheckerSetFor([]xfd.FD{xfd.MustParse("r.c.@k -> r.c.@v")})
	if err != nil {
		t.Fatal(err)
	}
	// Violation appears early; the trailing garbage must still fail
	// the walk.
	src := "<r><c k=\"1\" v=\"a\"/><c k=\"1\" v=\"b\"/><c>text<q/></c></r>"
	calls := 0
	werr := cs.CheckReader(strings.NewReader(src), xfd.ReaderOptions{}, func(int, [2]tuples.Tuple) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("onViolation ran %d times, want 1", calls)
	}
	var me *xmltree.MalformedError
	if !errors.As(werr, &me) {
		t.Fatalf("want MalformedError from the mixed content after the abort, got %v", werr)
	}
}

// TestCheckReaderEmptySigma: with no FDs the reader entry points are
// pure structural validation.
func TestCheckReaderEmptySigma(t *testing.T) {
	cs, err := xfd.NewCheckerSetFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := cs.ViolationsReader(strings.NewReader("<r><c/></r>"), xfd.ReaderOptions{})
	if err != nil || vs != nil {
		t.Fatalf("valid doc: got %v, %v", vs, err)
	}
	if _, err := cs.ViolationsReader(strings.NewReader("<r>"), xfd.ReaderOptions{}); err == nil {
		t.Fatal("malformed doc with empty Σ: want error")
	}
}

// TestCheckReaderWitnessDeterminism: the first-conflict witness off
// the reader matches the tree checker's, repeatedly.
func TestCheckReaderWitnessDeterminism(t *testing.T) {
	sigma := []xfd.FD{xfd.MustParse("r.c.@k -> r.c.d.S")}
	cs, err := xfd.NewCheckerSetFor(sigma)
	if err != nil {
		t.Fatal(err)
	}
	src := `<r><c k="1"><d>x</d></c><c k="2"><d>y</d></c><c k="1"><d>z</d></c><c k="1"><d>w</d></c></r>`
	tree := xmltree.MustParseString(src)
	want := xfd.CanonicalReport(cs.Violations(tree))
	if !strings.Contains(want, `"x" | "z"`) {
		t.Fatalf("tree witness not the first conflict:\n%s", want)
	}
	for i := 0; i < 3; i++ {
		got, err := cs.ViolationsReader(strings.NewReader(src), xfd.ReaderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if r := xfd.CanonicalReport(got); r != want {
			t.Fatalf("run %d: report\n%s\nwant\n%s", i, r, want)
		}
	}
}

// BenchmarkViolationsReader measures a streaming check in process: the
// tokenizer, the token stream and the witness fold over a satisfied
// 4 MB log document under gen.LogFDs(). xmltree's BenchmarkWalkTokens
// walks the same document (log4MB) with no callbacks, so the two
// split a check's time between the walk and the layers above it.
func BenchmarkViolationsReader(b *testing.B) {
	data, err := io.ReadAll(gen.SizedLog(4<<20, 1, 4096, 64, false))
	if err != nil {
		b.Fatal(err)
	}
	cs, err := xfd.NewCheckerSetFor(gen.LogFDs())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vs, err := cs.ViolationsReader(bytes.NewReader(data), xfd.ReaderOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(vs) != 0 {
			b.Fatalf("%d violations on a satisfied document", len(vs))
		}
	}
}
