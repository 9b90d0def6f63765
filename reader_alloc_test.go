package xmlnorm

// Allocation regression tests for the streaming checker: the whole
// point of CheckDocumentReader is that memory stays bounded by the
// fold state, so a change that buffers the input (the old stdin path
// read the whole document into memory before parsing) or leaks
// per-entry garbage must fail here, not in a gigabyte benchmark.

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"xmlnorm/internal/gen"
)

// logDoc materializes a log-family document of roughly n entries with
// heavy <detail> padding, so allocation totals are dominated by how
// the checker handles bytes it should never retain.
func logDoc(t testing.TB, entries, padding int) []byte {
	t.Helper()
	// Entry size ~= 60 bytes of markup + padding; see gen.SizedLog.
	b, err := io.ReadAll(gen.SizedLog(int64(entries*(60+padding)), 11, 16, padding, false))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckDocumentReaderAllocs pins a per-entry allocation ceiling on
// the streaming path. The tokenizer interns element and attribute
// names and allocates one string per start tag for its attribute
// values, and the tuple stream one string per relevant text node, so
// an entry costs about two objects; the ceiling of eight leaves room
// for that and catches both a tokenizer that allocates per name or per
// token again and a regression to whole-input buffering or per-entry
// tuple materialization.
func TestCheckDocumentReaderAllocs(t *testing.T) {
	const entries = 2000
	doc := logDoc(t, entries, 256)
	sigma := gen.LogFDs()
	allocs := testing.AllocsPerRun(5, func() {
		vs, err := CheckDocumentReader(bytes.NewReader(doc), sigma, ReaderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != 0 {
			t.Fatalf("%d violations on a satisfied document", len(vs))
		}
	})
	if perEntry := allocs / entries; perEntry > 8 {
		t.Errorf("streaming check allocates %.1f objects per entry, want <= 8", perEntry)
	}
}

// TestCheckDocumentReaderAllocBytes compares total allocated bytes:
// on a padding-heavy document the streaming path must allocate well
// under half of what parse-then-check does, since it never retains the
// padding text or builds nodes.
func TestCheckDocumentReaderAllocBytes(t *testing.T) {
	doc := logDoc(t, 4000, 256)
	sigma := gen.LogFDs()

	measure := func(f func() error) uint64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := f(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	streamB := measure(func() error {
		_, err := CheckDocumentReader(bytes.NewReader(doc), sigma, ReaderOptions{})
		return err
	})
	treeB := measure(func() error {
		tree, err := ParseDocumentReader(bytes.NewReader(doc))
		if err != nil {
			return err
		}
		_ = Violations(tree, sigma)
		return nil
	})
	if streamB*2 > treeB {
		t.Errorf("streaming check allocated %d bytes, tree check %d; want stream < tree/2", streamB, treeB)
	}
}
