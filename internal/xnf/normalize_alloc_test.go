package xnf

import (
	"testing"

	"xmlnorm/internal/engine"
	"xmlnorm/internal/gen"
)

// normalizeAllocCeiling bounds the allocations of one Normalize of
// chain-8 (gen.ChainDTD(8, 2) under gen.ChainFDs(8, 2)). Each step
// prunes the FDs its new DTD implies alone through one (D, ∅) engine;
// building a whole engine per FD instead allocated about 182k times
// per run, and one engine per prune reads about 68k (Go 1.24, one
// worker).
const normalizeAllocCeiling = 100_000

// TestNormalizeAllocs: Normalize of chain-8 stays under
// normalizeAllocCeiling allocations per run, on one engine worker so
// the count does not depend on the pool.
func TestNormalizeAllocs(t *testing.T) {
	s := Spec{DTD: gen.ChainDTD(8, 2), FDs: gen.ChainFDs(8, 2)}
	opts := Options{Engine: engine.Options{Workers: 1}}
	if _, _, err := Normalize(s, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := Normalize(s, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Normalize(chain-8): %.0f allocations per run", allocs)
	if allocs > normalizeAllocCeiling {
		t.Errorf("Normalize(chain-8) allocates %.0f times per run, over the ceiling of %d", allocs, normalizeAllocCeiling)
	}
}
