package engine

// Concurrency stress tests: many goroutines hammer one engine with
// overlapping queries and every answer is checked against a reference
// computed on the sequential, uncached path. All query schedules come
// from seeded PRNGs, so runs are reproducible; nothing here asserts on
// wall-clock time. These tests are the ones `go test -race` is aimed
// at in CI.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/implication"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

const stressGoroutines = 32

// stressSpec is one table entry: a specification plus a seeded query
// pool over its paths.
type stressSpec struct {
	name  string
	d     *dtd.DTD
	sigma []xfd.FD
	seed  int64
}

func stressSpecs(t *testing.T) []stressSpec {
	t.Helper()
	return []stressSpec{
		{"chain4", gen.ChainDTD(4, 2), gen.ChainFDs(4, 2), 101},
		{"chain7", gen.ChainDTD(7, 2), gen.ChainFDs(7, 2), 102},
		{"wide2", gen.WideDTD(2, 2), []xfd.FD{{
			LHS: []dtd.Path{{"r", "c0", "@a0_0"}},
			RHS: []dtd.Path{{"r", "c0", "@a0_1"}},
		}}, 103},
		{"disjunctive", gen.DisjunctiveDTD(2, 2), []xfd.FD{{
			LHS: []dtd.Path{{"r", "p", "@k"}},
			RHS: []dtd.Path{{"r", "p"}},
		}}, 104},
	}
}

// queryPool draws n random FDs (1–3 LHS paths, one RHS path) over the
// DTD's path set.
func queryPool(t *testing.T, d *dtd.DTD, n int, seed int64) []xfd.FD {
	t.Helper()
	paths, err := d.Paths()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	qs := make([]xfd.FD, n)
	for i := range qs {
		lhs := make([]dtd.Path, 1+rng.Intn(3))
		for j := range lhs {
			lhs[j] = paths[rng.Intn(len(paths))]
		}
		qs[i] = xfd.FD{LHS: lhs, RHS: []dtd.Path{paths[rng.Intn(len(paths))]}}
	}
	return qs
}

// reference computes every pool answer on the plain sequential decider.
func reference(t *testing.T, d *dtd.DTD, sigma []xfd.FD, qs []xfd.FD) []implication.Answer {
	t.Helper()
	out := make([]implication.Answer, len(qs))
	for i, q := range qs {
		ans, err := implication.Implies(d, sigma, q)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ans
	}
	return out
}

// TestStressImplies: 32 goroutines ask overlapping queries from the
// pool in goroutine-specific seeded orders; every answer must be
// identical to the sequential uncached reference, counterexamples
// included.
func TestStressImplies(t *testing.T) {
	for _, sp := range stressSpecs(t) {
		for _, opts := range []Options{{}, {Workers: 1}, {Workers: 4, NoCache: true}} {
			opts := opts
			sp := sp
			t.Run(fmt.Sprintf("%s/workers=%d,nocache=%v", sp.name, opts.Workers, opts.NoCache), func(t *testing.T) {
				qs := queryPool(t, sp.d, 48, sp.seed)
				want := reference(t, sp.d, sp.sigma, qs)
				e, err := New(sp.d, sp.sigma, opts)
				if err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				errs := make(chan error, stressGoroutines)
				for g := 0; g < stressGoroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(sp.seed<<8 + int64(g)))
						for k := 0; k < 3*len(qs); k++ {
							i := rng.Intn(len(qs))
							got, err := e.Implies(qs[i])
							if err != nil {
								errs <- fmt.Errorf("goroutine %d, query %d: %v", g, i, err)
								return
							}
							if got.Implied != want[i].Implied {
								errs <- fmt.Errorf("goroutine %d, query %d (%s): got %v, want %v",
									g, i, qs[i], got.Implied, want[i].Implied)
								return
							}
							if (got.Counterexample == nil) != (want[i].Counterexample == nil) ||
								(got.Counterexample != nil && !xmltree.Isomorphic(got.Counterexample, want[i].Counterexample)) {
								errs <- fmt.Errorf("goroutine %d, query %d (%s): counterexample differs", g, i, qs[i])
								return
							}
							// Scribble on the returned tree: it must be
							// this goroutine's private copy.
							if got.Counterexample != nil {
								got.Counterexample.Root.Children = nil
							}
						}
					}(g)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Error(err)
				}
			})
		}
	}
}

// TestStressImplied: goroutines interleave the verdict-only Implied and
// ImpliedIDs with Implies and ImpliesIDs over the stress suite's query
// pools; all four must return the sequential uncached reference's
// verdict, and a refutation must still hand Implies and ImpliesIDs
// callers a counterexample, whichever form computed the shared cache
// entry. An ImpliesIDs counterexample must match the reference's and be
// the caller's private clone: each caller scribbles on its own.
func TestStressImplied(t *testing.T) {
	for _, sp := range stressSpecs(t) {
		for _, opts := range []Options{{}, {Workers: 4, NoCache: true}} {
			opts := opts
			sp := sp
			t.Run(fmt.Sprintf("%s/nocache=%v", sp.name, opts.NoCache), func(t *testing.T) {
				qs := queryPool(t, sp.d, 48, sp.seed)
				want := reference(t, sp.d, sp.sigma, qs)
				e, err := New(sp.d, sp.sigma, opts)
				if err != nil {
					t.Fatal(err)
				}
				u := e.Universe()
				lhss, rhss := make([]paths.Set, len(qs)), make([]paths.ID, len(qs))
				for i, q := range qs {
					lhss[i], rhss[i] = u.NewSet(), u.MustLookup(q.RHS[0])
					for _, p := range q.LHS {
						lhss[i].Add(u.MustLookup(p))
					}
				}
				var wg sync.WaitGroup
				errs := make(chan error, stressGoroutines)
				for g := 0; g < stressGoroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(sp.seed<<9 + int64(g)))
						for k := 0; k < 2*len(qs); k++ {
							i := rng.Intn(len(qs))
							var implied bool
							var cx *xmltree.Tree
							var err error
							switch (g + k) % 4 {
							case 0:
								implied, err = e.Implied(qs[i])
							case 1:
								implied, err = e.ImpliedIDs(lhss[i], rhss[i])
							case 2:
								var ans implication.Answer
								ans, err = e.Implies(qs[i])
								implied, cx = ans.Implied, ans.Counterexample
							case 3:
								var ans implication.Answer
								ans, err = e.ImpliesIDs(lhss[i], rhss[i])
								implied, cx = ans.Implied, ans.Counterexample
								if cx != nil && !xmltree.Isomorphic(cx, want[i].Counterexample) {
									errs <- fmt.Errorf("goroutine %d: ImpliesIDs(%s): counterexample differs from the reference", g, qs[i])
									return
								}
							}
							if err != nil || implied != want[i].Implied || (g+k)%4 >= 2 && (cx == nil) != implied {
								errs <- fmt.Errorf("goroutine %d, form %d: %s = %v (counterexample %v), %v; want %v",
									g, (g+k)%4, qs[i], implied, cx != nil, err, want[i].Implied)
								return
							}
							if cx != nil {
								cx.Root.Children = nil // the caller's own copy
							}
						}
					}(g)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Error(err)
				}
			})
		}
	}
}

// TestStressImpliesBatch: concurrent batches over goroutine-specific
// shuffles of one pool; answers must land at the right indices.
func TestStressImpliesBatch(t *testing.T) {
	sp := stressSpecs(t)[1] // chain7, the largest pool
	qs := queryPool(t, sp.d, 64, sp.seed)
	want := reference(t, sp.d, sp.sigma, qs)
	e, err := New(sp.d, sp.sigma, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, stressGoroutines)
	for g := 0; g < stressGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(900 + int64(g)))
			perm := rng.Perm(len(qs))
			batch := make([]xfd.FD, len(qs))
			for i, j := range perm {
				batch[i] = qs[j]
			}
			got, err := e.ImpliesBatch(batch)
			if err != nil {
				errs <- fmt.Errorf("goroutine %d: %v", g, err)
				return
			}
			for i, j := range perm {
				if got[i].Implied != want[j].Implied {
					errs <- fmt.Errorf("goroutine %d: answer %d (%s) = %v, want %v",
						g, i, batch[i], got[i].Implied, want[j].Implied)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStressMixed: goroutines interleave Implies, Trivial and
// BruteForce on one engine; each operation is checked against its own
// sequential reference.
func TestStressMixed(t *testing.T) {
	sp := stressSpecs(t)[2] // wide2: small enough for brute force
	qs := queryPool(t, sp.d, 24, sp.seed)
	want := reference(t, sp.d, sp.sigma, qs)
	wantTriv := make([]bool, len(qs))
	for i, q := range qs {
		triv, err := implication.Trivial(sp.d, q)
		if err != nil {
			t.Fatal(err)
		}
		wantTriv[i] = triv
	}
	bounds := implication.Bounds{MaxValuePositions: 12, MaxTrees: 5000000}
	wantBrute := make([]implication.Answer, len(qs))
	for i, q := range qs {
		ans, err := implication.BruteForce(sp.d, sp.sigma, q, bounds)
		if err != nil {
			t.Fatal(err)
		}
		wantBrute[i] = ans
	}
	e, err := New(sp.d, sp.sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, stressGoroutines)
	for g := 0; g < stressGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(7000 + int64(g)))
			for k := 0; k < 2*len(qs); k++ {
				i := rng.Intn(len(qs))
				switch k % 3 {
				case 0:
					got, err := e.Implies(qs[i])
					if err != nil {
						errs <- err
						return
					}
					if got.Implied != want[i].Implied {
						errs <- fmt.Errorf("goroutine %d: Implies(%s) = %v, want %v", g, qs[i], got.Implied, want[i].Implied)
						return
					}
				case 1:
					got, err := e.Trivial(qs[i])
					if err != nil {
						errs <- err
						return
					}
					if got != wantTriv[i] {
						errs <- fmt.Errorf("goroutine %d: Trivial(%s) = %v, want %v", g, qs[i], got, wantTriv[i])
						return
					}
				case 2:
					got, err := e.BruteForce(qs[i], bounds)
					if err != nil {
						errs <- err
						return
					}
					if got.Implied != wantBrute[i].Implied {
						errs <- fmt.Errorf("goroutine %d: BruteForce(%s) = %v, want %v", g, qs[i], got.Implied, wantBrute[i].Implied)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestParallelBruteForceIdentity: for in-bounds searches the parallel
// brute force returns exactly the sequential answer at every worker
// count.
func TestParallelBruteForceIdentity(t *testing.T) {
	for _, sp := range stressSpecs(t)[2:] { // wide2 and disjunctive
		qs := queryPool(t, sp.d, 16, sp.seed+1)
		bounds := implication.Bounds{MaxValuePositions: 12, MaxTrees: 5000000}
		for i, q := range qs {
			seq, seqErr := implication.BruteForceParallel(sp.d, sp.sigma, q, bounds, 1)
			for _, workers := range []int{2, 4, 32} {
				par, parErr := implication.BruteForceParallel(sp.d, sp.sigma, q, bounds, workers)
				if (seqErr == nil) != (parErr == nil) {
					t.Fatalf("%s query %d workers %d: err %v vs %v", sp.name, i, workers, seqErr, parErr)
				}
				if seqErr != nil {
					continue
				}
				if par.Implied != seq.Implied {
					t.Errorf("%s query %d (%s) workers %d: got %v, want %v",
						sp.name, i, q, workers, par.Implied, seq.Implied)
				}
				if (par.Counterexample == nil) != (seq.Counterexample == nil) {
					t.Errorf("%s query %d workers %d: counterexample presence differs", sp.name, i, workers)
				}
			}
		}
	}
}
