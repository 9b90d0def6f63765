package engine

// The process-global registry: one shared CheckerSet per FD set, so a
// server hosting many documents under the same Σ, a corpus sweep and
// the distributed checker pay for compilation exactly once. A
// CheckerSet is safe for concurrent use after construction, which is
// what makes handing one instance to every caller sound; construction
// itself is single-flight (concurrent first requests for one Σ build
// once and share).
//
// Keys are canonical texts: Σ in Σ order. Order is deliberately
// significant — a CheckerSet's reports are in Σ order, so only
// byte-identical FD lists share state; two permutations of one Σ get
// separate (still correct) instances.

import (
	"strings"
	"sync"

	"xmlnorm/internal/xfd"
)

// registry is the singleton store behind SharedCheckers.
var registry struct {
	mu       sync.Mutex
	checkers map[string]*checkerEntry
}

type checkerEntry struct {
	once sync.Once
	cs   *xfd.CheckerSet
	err  error
}

// sigmaKey canonicalizes an FD list, order preserved.
func sigmaKey(sigma []xfd.FD) string {
	var b strings.Builder
	for _, f := range sigma {
		b.WriteString(f.String())
		b.WriteByte('\x1f')
	}
	return b.String()
}

// SharedCheckers returns the process-global compiled CheckerSet for Σ,
// building it on first use. A CheckerSet is read-only after
// construction, so every Session and sharded check over the same Σ can
// fold through the same compiled clusters and projectors.
func SharedCheckers(sigma []xfd.FD) (*xfd.CheckerSet, error) {
	key := sigmaKey(sigma)
	registry.mu.Lock()
	if registry.checkers == nil {
		registry.checkers = map[string]*checkerEntry{}
	}
	ent, ok := registry.checkers[key]
	if !ok {
		ent = &checkerEntry{}
		registry.checkers[key] = ent
	}
	registry.mu.Unlock()
	ent.once.Do(func() { ent.cs, ent.err = xfd.NewCheckerSetFor(sigma) })
	return ent.cs, ent.err
}
