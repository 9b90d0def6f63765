package xmltree

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

// genReader produces a document lazily, one piece per call of next,
// so a test can walk megabytes without holding them.
type genReader struct {
	next func() []byte // nil at the end of the document
	buf  []byte
}

func (g *genReader) Read(p []byte) (int, error) {
	for len(g.buf) == 0 {
		if g.buf = g.next(); g.buf == nil {
			return 0, io.EOF
		}
	}
	n := copy(p, g.buf)
	g.buf = g.buf[n:]
	return n, nil
}

// distinctNames is <r><n0/><n1/>...</r> with n distinct element names.
func distinctNames(n int) io.Reader {
	i := -1
	return &genReader{next: func() []byte {
		i++
		switch {
		case i == 0:
			return []byte("<r>")
		case i <= n:
			return []byte(fmt.Sprintf("<n%d/>", i-1))
		case i == n+1:
			return []byte("</r>")
		}
		return nil
	}}
}

// longTokens is a document whose one attribute value and one text node
// are each size bytes, spanning many windows.
func longTokens(size int) io.Reader {
	chunk := []byte(strings.Repeat("v", 4096))
	parts := [][]byte{[]byte(`<r a="`)}
	for i := 0; i < size/len(chunk); i++ {
		parts = append(parts, chunk)
	}
	parts = append(parts, []byte(`"><t>`))
	for i := 0; i < size/len(chunk); i++ {
		parts = append(parts, chunk)
	}
	parts = append(parts, []byte(`</t></r>`))
	return &genReader{next: func() []byte {
		if len(parts) == 0 {
			return nil
		}
		p := parts[0]
		parts = parts[1:]
		return p
	}}
}

// liveHeap is the heap in use after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// peakWalk runs a walk with cb, sampling the live heap every
// sampleEvery events and at every event carrying a token longer than a
// window, and returns the peak growth over the heap before the walk.
func peakWalk(t *testing.T, walk func(TokenCallbacks) error, sampleEvery int, cb TokenCallbacks) uint64 {
	t.Helper()
	base := liveHeap()
	var peak uint64
	events := 0
	sample := func(force bool) {
		if events++; force || events%sampleEvery == 0 {
			if h := liveHeap(); h > base && h-base > peak {
				peak = h - base
			}
		}
	}
	err := walk(TokenCallbacks{
		Open: func(label string, attrs []Attr) error {
			big := false
			for _, a := range attrs {
				big = big || len(a.Value) > windowSize
			}
			sample(big)
			if cb.Open != nil {
				return cb.Open(label, attrs)
			}
			return nil
		},
		Text: func(text []byte) error {
			sample(len(text) > windowSize)
			if cb.Text != nil {
				return cb.Text(text)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return peak
}

// TestWalkMemoryBounded walks a document with a million distinct
// element names and one with a 1 MB attribute value and a 1 MB text
// node. The intern table must stop at its cap, and the peak live heap
// must stay under a fixed bound — one the oracle walker meets too.
func TestWalkMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("walks about 12 MB of generated XML")
	}
	const names, size = 1_000_000, 1 << 20
	t.Run("distinct names", func(t *testing.T) {
		const bound = 1 << 20
		s := newScanner(distinctNames(names))
		maxNames, opens := 0, 0
		walk := func(cb TokenCallbacks) error { return s.walk(0, cb) }
		peak := peakWalk(t, walk, 1<<15, TokenCallbacks{Open: func(string, []Attr) error {
			opens++
			maxNames = max(maxNames, len(s.names))
			return nil
		}})
		if opens != names+1 {
			t.Fatalf("%d elements walked, want %d", opens, names+1)
		}
		if maxNames != internCap {
			t.Errorf("intern table peaked at %d names, want its cap %d", maxNames, internCap)
		}
		oracle := peakWalk(t, func(cb TokenCallbacks) error {
			return oracleWalk(distinctNames(names), 0, cb)
		}, 1<<15, TokenCallbacks{})
		t.Logf("peak live heap growth: scanner %d bytes, oracle %d bytes", peak, oracle)
		if peak > bound || oracle > bound {
			t.Errorf("peak live heap grew %d bytes (oracle %d), bound %d", peak, oracle, bound)
		}
	})
	t.Run("long tokens", func(t *testing.T) {
		const bound = 4 * size
		var gotAttr, gotText int
		cb := TokenCallbacks{
			Open: func(label string, attrs []Attr) error {
				if label == "r" {
					gotAttr = len(attrs[0].Value)
				}
				return nil
			},
			Text: func(text []byte) error { gotText = len(text); return nil },
		}
		peak := peakWalk(t, func(cb TokenCallbacks) error {
			return WalkTokens(longTokens(size), 0, cb)
		}, 1, cb)
		if gotAttr != size || gotText != size {
			t.Errorf("attribute value %d bytes, text %d bytes, want %d each", gotAttr, gotText, size)
		}
		oracle := peakWalk(t, func(cb TokenCallbacks) error {
			return oracleWalk(longTokens(size), 0, cb)
		}, 1, TokenCallbacks{})
		t.Logf("peak live heap growth: scanner %d bytes, oracle %d bytes", peak, oracle)
		if peak > bound || oracle > bound {
			t.Errorf("peak live heap grew %d bytes (oracle %d), bound %d", peak, oracle, bound)
		}
	})
}
