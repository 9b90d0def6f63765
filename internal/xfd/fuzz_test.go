package xfd

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"

	"xmlnorm/internal/paperdata"
	"xmlnorm/internal/xmltree"
)

// FuzzParse checks the FD parser never panics and round-trips.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"a -> b", "a.b, c.@d -> e.S", "->", "a ->", "a -> b -> c", "a,,b -> c",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		fd, err := Parse(input)
		if err != nil {
			return
		}
		again, err := Parse(fd.String())
		if err != nil {
			t.Fatalf("reparse of %q failed: %v", fd, err)
		}
		if !fd.Equal(again) {
			t.Fatalf("round trip changed %q", input)
		}
	})
}

// FuzzCheckReader feeds raw XML bytes through the streaming checker:
// it must never panic, must reject exactly the inputs xmltree.Parse
// rejects (with typed errors and identical messages, modulo the depth
// guard), and must reproduce the tree checker's canonical violation
// report whenever the input parses. Both paths read through
// xmltree.WalkTokens, so the acceptance half only guards the wiring;
// xmltree's FuzzWalkTokens holds the tokenizer itself to encoding/xml.
// The report agreement is what this target is for. The last two FDs
// form one cluster that branches at r (a, b) and at a (t, d, e), so the
// reader collects every a below the root's cross product, with nested
// cross products, text and attributes inside; the other clusters are
// chains that stream.
func FuzzCheckReader(f *testing.F) {
	sigma := []FD{
		MustParse("courses.course.@cno -> courses.course.title.S"),
		MustParse("r.c.@k -> r.c.@v"),
		MustParse("r.c.@k -> r.c"),
		MustParse("r.a.@x, r.b.@y -> r.a.t.S"),
		MustParse("r.a.d.@p, r.a.e.@q -> r.a.@x"),
	}
	cs, err := NewCheckerSetFor(sigma)
	if err != nil {
		f.Fatal(err)
	}
	courses := []byte(paperdata.MustRead("courses.xml"))
	f.Add(courses)
	f.Add(courses[:len(courses)/2]) // malformed truncation
	f.Add([]byte(paperdata.MustRead("dblp.xml")))
	for _, s := range []string{
		"<r><c k=\"1\" v=\"a\"/><c k=\"1\" v=\"b\"/></r>",
		"<r><c k=\"1\"/><c k=\"1\"/></r>",
		"<r>text<c/></r>",
		"<r/><r/>",
		"<r>",
		"</r>",
		"",
		"<r><pad><deep><deep/></deep></pad></r>",
		"<r k=\"&broken;\"/>",
		`<r><a x="1"><t>u</t><d p="1"/><e q="1"/></a><b y="p"/><a x="2"><t>v</t><d p="1"/><e q="1"/><d p="2"/></a><b y="q"/></r>`,
		`<r><a x="1" x="3"><t>u</t><d p="2"/><z><d p="9"/></z></a><b y="p"/><a x="1"><t>w</t><e q="5"/></a><a x="1"/><c k="1"/></r>`,
	} {
		f.Add([]byte(s))
	}
	const depth = 64
	f.Fuzz(func(t *testing.T, data []byte) {
		got, rerr := cs.ViolationsReader(bytes.NewReader(data), ReaderOptions{MaxDepth: depth})
		tree, perr := xmltree.Parse(bytes.NewReader(data))
		if rerr != nil {
			var de *xmltree.DepthError
			if errors.As(rerr, &de) {
				if de.Limit != depth || de.Depth != depth+1 {
					t.Fatalf("DepthError = %+v, want limit %d", de, depth)
				}
				return // Parse has no depth limit; no agreement to check
			}
			var me *xmltree.MalformedError
			if !errors.As(rerr, &me) {
				t.Fatalf("untyped reader error: %v", rerr)
			}
			if perr == nil {
				t.Fatalf("reader rejected input Parse accepts: %v", rerr)
			}
			if rerr.Error() != perr.Error() {
				t.Fatalf("reader error %q, Parse error %q", rerr, perr)
			}
			return
		}
		if perr != nil {
			t.Fatalf("reader accepted input Parse rejects: %v", perr)
		}
		want := cs.Violations(tree)
		if w, g := CanonicalReport(want), CanonicalReport(got); w != g {
			t.Fatalf("reports differ\ntree:\n%s\nreader:\n%s\ninput: %q", w, g, data)
		}
	})
}

// TestFuzzCheckReaderSeeds runs the fuzz body over its seed corpus in
// a regular test run (go test does run seeds, but keeping an explicit
// deep-nesting probe here pins the depth-guard interplay).
func TestFuzzCheckReaderSeeds(t *testing.T) {
	cs, err := NewCheckerSetFor([]FD{MustParse("r.c.@k -> r.c.@v")})
	if err != nil {
		t.Fatal(err)
	}
	over := strings.Repeat("<r>", 65) + strings.Repeat("</r>", 65)
	_, rerr := cs.ViolationsReader(strings.NewReader(over), ReaderOptions{MaxDepth: 64})
	var de *xmltree.DepthError
	if !errors.As(rerr, &de) {
		t.Fatalf("want DepthError, got %v", rerr)
	}
}

// hugeGroupCountBlob is a 13-byte fold state for a set of nFDs FDs
// whose first FD claims 2^24 groups and carries none. Sizing the group
// map by that untrusted count allocated about 1.3 GB before decoding
// failed as truncated.
func hugeGroupCountBlob(nFDs int) []byte {
	b := []byte(foldStateMagic)
	b = binary.AppendUvarint(b, uint64(nFDs))
	b = append(b, 0) // not violated
	return binary.AppendUvarint(b, 1<<24)
}

// TestUnmarshalFoldStateHugeGroupCount feeds the 13-byte blob above to
// UnmarshalFoldState: it must fail as truncated while allocating
// almost nothing, since the map size hint is capped by what the
// remaining bytes can hold.
func TestUnmarshalFoldStateHugeGroupCount(t *testing.T) {
	cs, err := NewCheckerSetFor([]FD{MustParse("r.c.@k -> r.c")})
	if err != nil {
		t.Fatal(err)
	}
	blob := hugeGroupCountBlob(1)
	if len(blob) != 13 {
		t.Fatalf("blob is %d bytes, want 13", len(blob))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = cs.UnmarshalFoldState(blob)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("UnmarshalFoldState = %v, want a truncation error", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("UnmarshalFoldState allocated %d bytes decoding 13, want under 1 MB", alloc)
	}
}

// nonCanonicalBlob is a fold state for a set of nFDs FDs whose first
// FD lists the group with LHS key k1 twice, with RHS keys va and vb,
// and whose other FDs hold no groups. A decoder that kept either pair
// read the conflict as satisfied; the repeated key is not in the
// strictly ascending order MarshalBinary writes.
func nonCanonicalBlob(nFDs int) []byte {
	b := []byte(foldStateMagic)
	b = binary.AppendUvarint(b, uint64(nFDs))
	b = append(b, 0, 2) // not violated, two groups
	b = append(b, "\x02k1\x02va\x02k1\x02vb"...)
	for i := 1; i < nFDs; i++ {
		b = append(b, 0, 0)
	}
	return b
}

// FuzzUnmarshalFoldState feeds arbitrary bytes to the decoder of
// worker replies: it must never panic, and any input it accepts must
// re-marshal to bytes that decode and re-marshal identically.
func FuzzUnmarshalFoldState(f *testing.F) {
	cs, err := NewCheckerSetFor([]FD{
		MustParse("r.c.@k -> r.c.@v"),
		MustParse("r.c.@v -> r.c"), // element-valued: positional address keys
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, doc := range []string{
		"<r><c k=\"1\" v=\"a\"/><c k=\"2\" v=\"b\"/><c k=\"3\"/></r>", // satisfied
		"<r><c k=\"1\" v=\"a\"/><c k=\"1\" v=\"b\"/></r>",             // violates the first FD only
	} {
		tree, err := xmltree.ParseString(doc)
		if err != nil {
			f.Fatal(err)
		}
		st := cs.NewFoldState()
		if err := st.FoldFragment(context.Background(), Fragment{Tree: tree}); err != nil {
			f.Fatal(err)
		}
		blob, err := st.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		f.Add(blob[:len(blob)-1])
	}
	f.Add(hugeGroupCountBlob(cs.Len()))
	f.Add(nonCanonicalBlob(cs.Len()))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := cs.UnmarshalFoldState(data)
		if err != nil {
			return
		}
		once, err := st.MarshalBinary()
		if err != nil {
			t.Fatalf("MarshalBinary of an accepted state: %v", err)
		}
		back, err := cs.UnmarshalFoldState(once)
		if err != nil {
			t.Fatalf("re-marshaled state does not decode: %v", err)
		}
		twice, err := back.MarshalBinary()
		if err != nil {
			t.Fatalf("MarshalBinary: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("re-marshaling is not stable:\n once %q\ntwice %q", once, twice)
		}
	})
}
