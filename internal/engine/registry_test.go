package engine

import (
	"sync"
	"testing"

	"xmlnorm/internal/xfd"
)

func regSigma(t *testing.T) []xfd.FD {
	t.Helper()
	sigma, err := xfd.ParseSet("courses.course.@cno -> courses.course")
	if err != nil {
		t.Fatal(err)
	}
	return sigma
}

// resetRegistry empties the registry, so a test starts with no
// compiled set.
func resetRegistry() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	registry.checkers = nil
}

// registryLen reports how many checker sets the registry holds.
func registryLen() int {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	return len(registry.checkers)
}

func TestSharedCheckersSingleFlight(t *testing.T) {
	resetRegistry()
	sigma := regSigma(t)
	const callers = 32
	got := make([]*xfd.CheckerSet, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cs, err := SharedCheckers(sigma)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = cs
		}()
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different CheckerSet", i)
		}
	}
	if nc := registryLen(); nc != 1 {
		t.Fatalf("registry holds %d checker sets, want 1", nc)
	}
	// A different Σ (even a permutation) is a different compiled set.
	sigma2, err := xfd.ParseSet(`
courses.course.@cno -> courses.course
courses.course.@cno -> courses.course.title.S
`)
	if err != nil {
		t.Fatal(err)
	}
	other, err := SharedCheckers(sigma2)
	if err != nil {
		t.Fatal(err)
	}
	if other == got[0] {
		t.Fatal("different Σ shares a CheckerSet")
	}
}

// TestPurgeRegistry: once the registry is emptied, SharedCheckers
// builds the set again, a new instance, and the registry holds that
// one alone.
func TestPurgeRegistry(t *testing.T) {
	resetRegistry()
	sigma := regSigma(t)
	before, err := SharedCheckers(sigma)
	if err != nil {
		t.Fatal(err)
	}
	resetRegistry()
	if nc := registryLen(); nc != 0 {
		t.Fatalf("after purge: %d checker sets", nc)
	}
	after, err := SharedCheckers(sigma)
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatal("a purged registry served the old CheckerSet")
	}
	if nc := registryLen(); nc != 1 {
		t.Fatalf("after rebuilding: %d checker sets, want 1", nc)
	}
}
