package xmlnorm

// Allocation regression tests for the streaming checker: the whole
// point of CheckDocumentReader is that memory stays bounded by the
// fold state, so a change that buffers the input (the old stdin path
// read the whole document into memory before parsing) or leaks
// per-entry garbage must fail here, not in a gigabyte benchmark.

import (
	"bytes"
	"fmt"
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

// heapSampler wraps a reader and, each time another MiB has been read,
// collects garbage and records the live heap, so peak is the largest
// live heap seen while the consumer still holds what it has read.
type heapSampler struct {
	r          io.Reader
	read, next int64
	peak       uint64
}

func (h *heapSampler) Read(p []byte) (int, error) {
	n, err := h.r.Read(p)
	if h.read += int64(n); h.read >= h.next {
		h.next += 1 << 20
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		h.peak = max(h.peak, ms.HeapAlloc)
	}
	return n, err
}

// TestCheckDocumentReaderMemoryFlat streams log documents of 4 MiB and
// 40 MiB through CheckDocumentReader and bounds the live heap's growth
// over the settled heap before the check, sampled at every MiB read,
// by one MiB at both sizes: the check holds the fold state of its 64
// keys, not the document. A check that read its whole input before
// parsing would grow by the document's size.
func TestCheckDocumentReaderMemoryFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 44 MiB of generated XML")
	}
	const bound = 1 << 20
	sigma := gen.LogFDs()
	for _, size := range []int64{4 << 20, 40 << 20} {
		t.Run(fmt.Sprintf("%dMiB", size>>20), func(t *testing.T) {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			base := ms.HeapAlloc
			h := &heapSampler{r: gen.SizedLog(size, 20020802, 64, 96, false)}
			vs, err := CheckDocumentReader(h, sigma, ReaderOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(vs) != 0 {
				t.Fatalf("%d violations on a satisfied document", len(vs))
			}
			if h.read < size {
				t.Fatalf("the check read %d bytes of a %d-byte document", h.read, size)
			}
			var growth uint64
			if h.peak > base {
				growth = h.peak - base
			}
			t.Logf("peak live heap growth %.2f MB over %d MiB", float64(growth)/1e6, size>>20)
			if growth > bound {
				t.Errorf("peak live heap grew %d bytes streaming %d MiB, want <= %d", growth, size>>20, bound)
			}
		})
	}
}
