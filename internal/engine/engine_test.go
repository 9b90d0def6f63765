package engine

import (
	"errors"
	"fmt"
	"testing"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/implication"
	"xmlnorm/internal/pool"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

func chainEngine(t *testing.T, depth int, opts Options) *Engine {
	t.Helper()
	e, err := New(gen.ChainDTD(depth, 2), gen.ChainFDs(depth, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// chainQuery builds the E6-style query at the given chain level.
func chainQuery(depth int) xfd.FD {
	level := gen.ChainPaths(depth)[depth]
	return xfd.FD{
		LHS: []dtd.Path{level.Child(fmt.Sprintf("@a%d_0", depth))},
		RHS: []dtd.Path{level.Child(fmt.Sprintf("@a%d_1", depth))},
	}
}

func TestCacheCounters(t *testing.T) {
	e := chainEngine(t, 6, Options{})
	q := chainQuery(6)
	first, err := e.Implies(q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Implies(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Implied != second.Implied {
		t.Errorf("cached answer flipped: %v then %v", first.Implied, second.Implied)
	}
	if s := e.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss and 1 hit", s)
	}
}

// TestImpliedSharesCache: every form of one query — Implies and
// Implied, and by path ID ImpliesIDs and ImpliedIDs — answers from one
// cache entry: whichever asks first takes the one miss, every later
// call of any form is a hit, an entry Implied computed still serves
// Implies its counterexample, and an ImpliesIDs refutation hands out a
// clone of its own. Trivial and TrivialIDs share a key space of their
// own: the same query misses there once.
func TestImpliedSharesCache(t *testing.T) {
	e := chainEngine(t, 4, Options{})
	u := e.Universe()
	lhs := gen.ChainPaths(4)[2].Child("@a2_0")
	rhs := gen.ChainPaths(4)[4].Child("@a4_0")
	refuted := xfd.FD{LHS: []dtd.Path{lhs}, RHS: []dtd.Path{rhs}}
	implied, err := e.Implied(refuted)
	if err != nil || implied {
		t.Fatalf("Implied(%s) = %v, %v; want false", refuted, implied, err)
	}
	ans, err := e.Implies(refuted)
	if err != nil || ans.Implied || ans.Counterexample == nil {
		t.Fatalf("Implies(%s) after Implied = %+v, %v; want a counterexample", refuted, ans, err)
	}
	if s := e.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Errorf("after Implied then Implies: stats = %+v, want 1 miss and 1 hit", s)
	}
	lhsIDs, rhsID := u.SetOf(u.MustLookup(lhs)), u.MustLookup(rhs)
	byID, err := e.ImpliesIDs(lhsIDs, rhsID)
	if err != nil || byID.Implied || byID.Counterexample == nil {
		t.Fatalf("ImpliesIDs(%s) = %+v, %v; want a counterexample", refuted, byID, err)
	}
	if byID.Counterexample == ans.Counterexample || !xmltree.Isomorphic(byID.Counterexample, ans.Counterexample) {
		t.Error("ImpliesIDs's counterexample is not a clone of its own")
	}
	if implied, err := e.ImpliedIDs(lhsIDs, rhsID); err != nil || implied {
		t.Fatalf("ImpliedIDs(%s) = %v, %v; want false", refuted, implied, err)
	}
	if s := e.Stats(); s.Misses != 1 || s.Hits != 3 {
		t.Errorf("after ImpliesIDs and ImpliedIDs: stats = %+v, want 1 miss and 3 hits", s)
	}
	if triv, err := e.TrivialIDs(lhsIDs, rhsID); err != nil || triv {
		t.Fatalf("TrivialIDs(%s) = %v, %v; want false", refuted, triv, err)
	}
	if triv, err := e.Trivial(refuted); err != nil || triv {
		t.Fatalf("Trivial(%s) = %v, %v; want false", refuted, triv, err)
	}
	if s := e.Stats(); s.Misses != 2 || s.Hits != 4 {
		t.Errorf("after TrivialIDs and Trivial: stats = %+v, want 2 misses and 4 hits", s)
	}
	q := chainQuery(4)
	want, err := e.Implies(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got, err := e.Implied(q); err != nil || got != want.Implied {
			t.Fatalf("Implied(%s) = %v, %v; Implies said %v", q, got, err, want.Implied)
		}
	}
	if s := e.Stats(); s.Misses != 3 || s.Hits != 6 {
		t.Errorf("after Implies then Implied twice: stats = %+v, want 3 misses and 6 hits", s)
	}
}

// TestOutsideUniverseFails: an FD naming a path outside paths(D) fails
// every FD form with the closure's error text, LHS or RHS alike, and
// never reaches the cache.
func TestOutsideUniverseFails(t *testing.T) {
	e := chainEngine(t, 3, Options{})
	bad := xfd.MustParse("r.nope -> r")
	badRHS := xfd.MustParse("r -> r.nope.@x")
	for _, c := range []struct {
		name string
		ask  func(xfd.FD) error
	}{
		{"Implies", func(q xfd.FD) error { _, err := e.Implies(q); return err }},
		{"Implied", func(q xfd.FD) error { _, err := e.Implied(q); return err }},
		{"Trivial", func(q xfd.FD) error { _, err := e.Trivial(q); return err }},
		{"BruteForce", func(q xfd.FD) error { _, err := e.BruteForce(q, implication.Bounds{}); return err }},
		{"ImpliesBatch", func(q xfd.FD) error { _, err := e.ImpliesBatch([]xfd.FD{q}); return err }},
	} {
		for _, q := range []struct {
			fd   xfd.FD
			want string
		}{
			{bad, `implication: query r.nope -> r: "r.nope" is not a path of the DTD`},
			{badRHS, `implication: query r -> r.nope.@x: "r.nope.@x" is not a path of the DTD`},
		} {
			for i := 0; i < 2; i++ {
				if err := c.ask(q.fd); err == nil || err.Error() != q.want {
					t.Errorf("%s(%s): err = %v, want %q", c.name, q.fd, err, q.want)
				}
			}
		}
	}
	if s := e.Stats(); s != (Stats{}) {
		t.Errorf("stats = %+v, want none: a failed resolution must not touch the cache", s)
	}
}

func TestNoCacheBypassesCounters(t *testing.T) {
	e := chainEngine(t, 6, Options{NoCache: true})
	q := chainQuery(6)
	for i := 0; i < 3; i++ {
		if _, err := e.Implies(q); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.Stats(); s.Hits != 0 || s.Misses != 0 {
		t.Errorf("stats = %+v, want all zero with NoCache", s)
	}
}

// TestCanonicalization: the cache key treats the LHS as a set, so
// reordered and duplicated left-hand sides share one slot.
func TestCanonicalization(t *testing.T) {
	e := chainEngine(t, 6, Options{})
	q := chainQuery(6)
	extra := gen.ChainPaths(6)[3].Child("@a3_0")
	a := xfd.FD{LHS: []dtd.Path{q.LHS[0], extra}, RHS: q.RHS}
	b := xfd.FD{LHS: []dtd.Path{extra, q.LHS[0], extra}, RHS: q.RHS}
	if _, err := e.Implies(a); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Implies(b); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v, want the reordered query to hit", s)
	}
}

// TestMultiRHSSplit: a two-RHS query caches its single-RHS splits
// individually, and re-asking one split alone is a pure hit.
func TestMultiRHSSplit(t *testing.T) {
	e := chainEngine(t, 6, Options{})
	level := gen.ChainPaths(6)[6]
	q := xfd.FD{
		LHS: []dtd.Path{level.Child("@a6_0")},
		RHS: []dtd.Path{level.Child("@a6_1"), level},
	}
	if _, err := e.Implies(q); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Implies(xfd.FD{LHS: q.LHS, RHS: q.RHS[:1]}); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Hits != 1 {
		t.Errorf("stats = %+v, want the split query to hit the cache", s)
	}
}

// TestIdentityWithImplication: cached and uncached engines agree with
// the plain implication decider on a sweep of queries.
func TestIdentityWithImplication(t *testing.T) {
	d := gen.ChainDTD(5, 2)
	sigma := gen.ChainFDs(5, 2)
	paths, err := d.Paths()
	if err != nil {
		t.Fatal(err)
	}
	cached, err := New(d, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := New(d, sigma, Options{Workers: 1, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	// Every (LHS, RHS) pair of DTD paths, asked twice against the cached
	// engine to exercise both the miss and the hit path.
	for _, lhs := range paths {
		for _, rhs := range paths {
			q := xfd.FD{LHS: []dtd.Path{lhs}, RHS: []dtd.Path{rhs}}
			want, err := implication.Implies(d, sigma, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range []*Engine{cached, uncached, cached} {
				got, err := e.Implies(q)
				if err != nil {
					t.Fatal(err)
				}
				if got.Implied != want.Implied {
					t.Fatalf("%s: engine says %v, decider says %v", q, got.Implied, want.Implied)
				}
				if (got.Counterexample == nil) != (want.Counterexample == nil) {
					t.Fatalf("%s: counterexample presence differs", q)
				}
				if got.Counterexample != nil && !xmltree.Isomorphic(got.Counterexample, want.Counterexample) {
					t.Fatalf("%s: counterexample differs from the decider's", q)
				}
			}
		}
	}
}

func TestTrivialMatchesImplication(t *testing.T) {
	d := gen.ChainDTD(4, 2)
	e, err := New(d, gen.ChainFDs(4, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := d.Paths()
	if err != nil {
		t.Fatal(err)
	}
	for _, lhs := range paths {
		for _, rhs := range paths {
			q := xfd.FD{LHS: []dtd.Path{lhs}, RHS: []dtd.Path{rhs}}
			want, err := implication.Trivial(d, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Trivial(q)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("Trivial(%s) = %v, want %v", q, got, want)
			}
		}
	}
	// Trivial answers must not pollute the Σ-closure key space: the same
	// query asked via Implies may answer differently.
	if s := e.Stats(); s.Misses == 0 {
		t.Error("trivial queries never reached the cache")
	}
}

// TestCounterexampleNotAliased: callers own their counterexample trees;
// mutating one must not leak into later answers.
func TestCounterexampleNotAliased(t *testing.T) {
	e := chainEngine(t, 4, Options{})
	// chain level 2's attribute does not determine level 4's: not implied.
	lhs := gen.ChainPaths(4)[2].Child("@a2_0")
	rhs := gen.ChainPaths(4)[4].Child("@a4_0")
	q := xfd.FD{LHS: []dtd.Path{lhs}, RHS: []dtd.Path{rhs}}
	first, err := e.Implies(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Implied || first.Counterexample == nil {
		t.Fatalf("expected a counterexample, got %+v", first)
	}
	pristine := first.Counterexample.Clone()
	first.Counterexample.Root.Children = nil // caller vandalizes its copy
	second, err := e.Implies(q)
	if err != nil {
		t.Fatal(err)
	}
	if second.Counterexample == nil || !xmltree.Isomorphic(second.Counterexample, pristine) {
		t.Error("cached counterexample absorbed a caller's mutation")
	}
	if second.Counterexample == first.Counterexample {
		t.Error("two callers share one counterexample tree")
	}
}

func TestBruteForceMatchesClosure(t *testing.T) {
	d := gen.WideDTD(2, 2)
	sigma := []xfd.FD{{
		LHS: []dtd.Path{{"r", "c0", "@a0_0"}},
		RHS: []dtd.Path{{"r", "c0", "@a0_1"}},
	}}
	e, err := New(d, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bounds := implication.Bounds{MaxValuePositions: 12, MaxTrees: 5000000}
	for _, q := range []xfd.FD{
		{LHS: []dtd.Path{{"r", "c0", "@a0_0"}}, RHS: []dtd.Path{{"r", "c0", "@a0_1"}}},
		{LHS: []dtd.Path{{"r", "c0", "@a0_1"}}, RHS: []dtd.Path{{"r", "c0", "@a0_0"}}},
	} {
		fast, err := e.Implies(q)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := e.BruteForce(q, bounds)
		if err != nil {
			t.Fatal(err)
		}
		if fast.Implied != slow.Implied {
			t.Errorf("%s: closure %v, brute force %v", q, fast.Implied, slow.Implied)
		}
		// Second ask is a cache hit with the same answer.
		again, err := e.BruteForce(q, bounds)
		if err != nil {
			t.Fatal(err)
		}
		if again.Implied != slow.Implied {
			t.Errorf("%s: cached brute-force answer flipped", q)
		}
	}
}

// TestBruteForceErrorCached: a bounds-exceeded error is cached and
// returned to every later caller of the same (query, bounds).
func TestBruteForceErrorCached(t *testing.T) {
	d := gen.WideDTD(2, 2)
	e, err := New(d, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := xfd.FD{
		LHS: []dtd.Path{{"r", "c0", "@a0_0"}},
		RHS: []dtd.Path{{"r", "c0", "@a0_1"}},
	}
	tiny := implication.Bounds{MaxTrees: 1, MaxValuePositions: 12}
	for i := 0; i < 2; i++ {
		if _, err := e.BruteForce(q, tiny); !errors.Is(err, implication.ErrBoundsExceeded) {
			t.Fatalf("ask %d: err = %v, want ErrBoundsExceeded", i+1, err)
		}
	}
	if s := e.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want the error to be served from the cache", s)
	}
}

func TestNewRejectsRecursiveDTD(t *testing.T) {
	d, err := dtd.Parse("<!ELEMENT r (a*)>\n<!ELEMENT a (a*)>")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(d, nil, Options{}); err == nil {
		t.Error("recursive DTD accepted")
	}
}

func TestWorkersResolution(t *testing.T) {
	e := chainEngine(t, 4, Options{})
	if e.Workers() < 1 {
		t.Errorf("default Workers() = %d", e.Workers())
	}
	e = chainEngine(t, 4, Options{Workers: 3})
	if e.Workers() != 3 {
		t.Errorf("Workers() = %d, want 3", e.Workers())
	}
}

func TestImpliesBatchOrder(t *testing.T) {
	depth := 5
	d := gen.ChainDTD(depth, 2)
	sigma := gen.ChainFDs(depth, 2)
	paths, err := d.Paths()
	if err != nil {
		t.Fatal(err)
	}
	var qs []xfd.FD
	for i, lhs := range paths {
		qs = append(qs, xfd.FD{LHS: []dtd.Path{lhs}, RHS: []dtd.Path{paths[(i*7+3)%len(paths)]}})
	}
	var want []bool
	for _, q := range qs {
		ans, err := implication.Implies(d, sigma, q)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, ans.Implied)
	}
	for _, opts := range []Options{{Workers: 1}, {Workers: 4}, {Workers: 4, NoCache: true}} {
		e, err := New(d, sigma, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.ImpliesBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(qs) {
			t.Fatalf("opts %+v: %d answers for %d queries", opts, len(got), len(qs))
		}
		for i := range got {
			if got[i].Implied != want[i] {
				t.Errorf("opts %+v, query %d: got %v, want %v", opts, i, got[i].Implied, want[i])
			}
		}
	}
}

func TestForEach(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		const n = 37
		visited := make([]int, n)
		if err := pool.ForEach(workers, n, func(i int) error {
			visited[i]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range visited {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
	}
	if err := pool.ForEach(4, 0, func(int) error { t.Error("fn called for n=0"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachSequentialStopsAtError(t *testing.T) {
	boom := errors.New("boom")
	last := -1
	err := pool.ForEach(1, 10, func(i int) error {
		last = i
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if last != 3 {
		t.Errorf("sequential run continued past the error (last = %d)", last)
	}
}

func TestForEachParallelPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	err := pool.ForEach(8, 100, func(i int) error {
		if i == 42 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}
