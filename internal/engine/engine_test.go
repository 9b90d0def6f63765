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

// TestOutsideUniverseFails: an FD naming a path outside paths(D) fails
// every FD form with the closure's error text, LHS or RHS alike, and
// decides nothing.
func TestOutsideUniverseFails(t *testing.T) {
	e := chainEngine(t, 3, Options{})
	bad := xfd.MustParse("r.nope -> r")
	badRHS := xfd.MustParse("r -> r.nope.@x")
	for _, c := range []struct {
		name string
		ask  func(xfd.FD) error
	}{
		{"Implies", func(q xfd.FD) error { _, err := e.Implies(q); return err }},
		{"Trivial", func(q xfd.FD) error { _, err := e.Trivial(q); return err }},
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
		t.Errorf("stats = %+v, want none: a failed resolution decides nothing", s)
	}
}

// TestCanonicalization: the LHS is a set, so reordered and repeated
// left-hand sides get one answer, counterexample included.
func TestCanonicalization(t *testing.T) {
	e := chainEngine(t, 6, Options{})
	extra := gen.ChainPaths(6)[3].Child("@a3_0")
	for _, q := range []xfd.FD{
		chainQuery(6),
		{LHS: []dtd.Path{gen.ChainPaths(6)[5].Child("@a5_0")}, RHS: []dtd.Path{gen.ChainPaths(6)[6].Child("@a6_0")}},
	} {
		a, err := e.Implies(xfd.FD{LHS: []dtd.Path{q.LHS[0], extra}, RHS: q.RHS})
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.Implies(xfd.FD{LHS: []dtd.Path{extra, q.LHS[0], extra}, RHS: q.RHS})
		if err != nil {
			t.Fatal(err)
		}
		if a.Implied != b.Implied || (a.Counterexample == nil) != (b.Counterexample == nil) ||
			a.Counterexample != nil && !xmltree.Isomorphic(a.Counterexample, b.Counterexample) {
			t.Errorf("%s: reordered and repeated LHS answer %+v, the set answers %+v", q, b, a)
		}
	}
}

// TestMultiRHSSplit: a query with several RHS paths is implied iff
// each single-RHS split is, and a refuted one carries the first
// refuted split's counterexample.
func TestMultiRHSSplit(t *testing.T) {
	e := chainEngine(t, 6, Options{})
	levels := gen.ChainPaths(6)
	lhs := []dtd.Path{levels[6].Child("@a6_0")}
	rhss := []dtd.Path{levels[6].Child("@a6_1"), lhs[0], levels[6], levels[5].Child("@a5_0")}
	refuted := 0
	for i := range rhss {
		for j := range rhss {
			if i == j {
				continue
			}
			q := xfd.FD{LHS: lhs, RHS: []dtd.Path{rhss[i], rhss[j]}}
			got, err := e.Implies(q)
			if err != nil {
				t.Fatal(err)
			}
			var want implication.Answer
			for _, single := range q.SingleRHS() {
				if want, err = e.Implies(single); err != nil {
					t.Fatal(err)
				}
				if !want.Implied {
					break
				}
			}
			if got.Implied != want.Implied || (got.Counterexample == nil) != (want.Counterexample == nil) ||
				got.Counterexample != nil && !xmltree.Isomorphic(got.Counterexample, want.Counterexample) {
				t.Errorf("%s = %+v, its splits give %+v", q, got, want)
			}
			if !got.Implied {
				refuted++
			}
		}
	}
	if refuted == 0 || refuted == len(rhss)*(len(rhss)-1) {
		t.Errorf("%d of %d two-RHS queries refuted; the sweep needs both answers", refuted, len(rhss)*(len(rhss)-1))
	}
}

// TestIdentityWithImplication: engines at the default and at one
// worker agree with the plain implication decider on a sweep of
// queries, asked twice.
func TestIdentityWithImplication(t *testing.T) {
	d := gen.ChainDTD(5, 2)
	sigma := gen.ChainFDs(5, 2)
	paths, err := d.Paths()
	if err != nil {
		t.Fatal(err)
	}
	dflt, err := New(d, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	one, err := New(d, sigma, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Every (LHS, RHS) pair of DTD paths, asked twice of the default
	// engine: an answer never depends on what was asked before.
	for _, lhs := range paths {
		for _, rhs := range paths {
			q := xfd.FD{LHS: []dtd.Path{lhs}, RHS: []dtd.Path{rhs}}
			want, err := implication.Implies(d, sigma, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range []*Engine{dflt, one, dflt} {
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
	// Every Trivial query is one single-RHS query decided.
	if s, want := e.Stats(), uint64(len(paths)*len(paths)); s.Misses != want {
		t.Errorf("stats = %+v, want %d queries decided", s, want)
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
		t.Error("a later answer absorbed a caller's mutation")
	}
	if second.Counterexample == first.Counterexample {
		t.Error("two callers share one counterexample tree")
	}
}

// TestBruteForceMatchesClosure: the engine's closure answers agree
// with the bounded brute-force decider run at the engine's worker
// count.
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
		slow, err := implication.BruteForceParallel(d, sigma, q, bounds, e.Workers())
		if err != nil {
			t.Fatal(err)
		}
		if fast.Implied != slow.Implied {
			t.Errorf("%s: closure %v, brute force %v", q, fast.Implied, slow.Implied)
		}
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

// TestImpliesBatchOrder: a batch of queries fanned across the worker
// pool by ForEach lands every answer at its own index.
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
	for _, opts := range []Options{{Workers: 1}, {Workers: 4}, {}} {
		e, err := New(d, sigma, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]implication.Answer, len(qs))
		if err := e.ForEach(len(qs), func(i int) error {
			var err error
			got[i], err = e.Implies(qs[i])
			return err
		}); err != nil {
			t.Fatal(err)
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
