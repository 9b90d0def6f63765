package implication

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

// baseSpec is a DTD with the Σ a base engine compiles.
type baseSpec struct {
	name  string
	d     *dtd.DTD
	sigma []xfd.FD
}

// withSigmaDTDs are the DTDs TestWithSigmaMatchesNewEngine draws Σ′
// over: courses, dblp, chain-7, and a DTD whose disjunction under a
// starred element gives several branch assignments.
func withSigmaDTDs(t *testing.T) []baseSpec {
	t.Helper()
	courses, coursesSigma := coursesSpec(t)
	disj := dtd.MustParse(`
<!ELEMENT r (p*)>
<!ELEMENT p ((a | b), c?)>
<!ATTLIST p k CDATA #REQUIRED>
<!ELEMENT a EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ELEMENT b EMPTY>
<!ATTLIST b y CDATA #REQUIRED>
<!ELEMENT c (#PCDATA)>`)
	return []baseSpec{
		{"courses", courses, coursesSigma},
		{"dblp", dtd.MustParse(load(t, "dblp.dtd")), []xfd.FD{xfd.MustParse("db.conf.title.S -> db.conf")}},
		{"chain-7", gen.ChainDTD(7, 2), gen.ChainFDs(7, 2)},
		{"disj", disj, []xfd.FD{xfd.MustParse("r.p.@k -> r.p")}},
	}
}

// singleQueries lists every X → q over the paths with one LHS path
// other than q.
func singleQueries(ps []dtd.Path) []xfd.FD {
	var qs []xfd.FD
	for _, x := range ps {
		for _, q := range ps {
			if !x.Equal(q) {
				qs = append(qs, xfd.FD{LHS: []dtd.Path{x}, RHS: []dtd.Path{q}})
			}
		}
	}
	return qs
}

// TestWithSigmaMatchesNewEngine: an engine WithSigma derives from a
// base engine over the same DTD answers every query exactly as
// NewEngine(D, Σ′) does, and certifies each refutation on a tree that
// conforms to D, satisfies Σ′ and violates the query — checked here by
// the uncompiled reference checks, not the engine's own. The base
// compiles a different Σ, so nothing of it may leak into the derived
// engine; the base must answer as before afterwards. Derived engines
// are also built and queried from 32 goroutines at once over one
// shared base.
func TestWithSigmaMatchesNewEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	trials := 3
	if testing.Short() {
		trials = 1
	}
	for _, c := range withSigmaDTDs(t) {
		ps, err := c.d.Paths()
		if err != nil {
			t.Fatal(err)
		}
		base, err := NewEngine(c.d, c.sigma)
		if err != nil {
			t.Fatal(err)
		}
		qs := singleQueries(ps)
		baseWant := make([]bool, len(qs))
		for i, q := range qs {
			ans, err := base.Implies(q)
			if err != nil {
				t.Fatal(err)
			}
			baseWant[i] = ans.Implied
		}
		for trial := 0; trial < trials; trial++ {
			sigma := randomSigma(rng, ps, 1+rng.Intn(4))
			derived, err := base.WithSigma(sigma)
			if err != nil {
				t.Fatalf("%s: WithSigma(%v): %v", c.name, sigma, err)
			}
			fresh, err := NewEngine(c.d, sigma)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range qs {
				got, err := derived.Implies(q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Implies(q)
				if err != nil {
					t.Fatal(err)
				}
				if got.Implied != want.Implied {
					t.Fatalf("%s: Σ′ = %v, %s: WithSigma says implied=%v, NewEngine %v",
						c.name, sigma, q, got.Implied, want.Implied)
				}
				if got.Implied {
					continue
				}
				ce := got.Counterexample
				if ce == nil || !got.Verified {
					t.Fatalf("%s: Σ′ = %v, %s: refuted without a verified counterexample", c.name, sigma, q)
				}
				if err := xmltree.ConformsUnordered(ce, c.d); err != nil {
					t.Fatalf("%s: %s: counterexample does not conform: %v\n%s", c.name, q, err, ce)
				}
				if !xfd.SatisfiesAll(ce, sigma) {
					t.Fatalf("%s: %s: counterexample violates Σ′ = %v\n%s", c.name, q, sigma, ce)
				}
				if xfd.Satisfies(ce, q) {
					t.Fatalf("%s: %s: counterexample satisfies the query\n%s", c.name, q, ce)
				}
			}
		}
		for i, q := range qs {
			ans, err := base.Implies(q)
			if err != nil {
				t.Fatal(err)
			}
			if ans.Implied != baseWant[i] {
				t.Fatalf("%s: %s: the base engine's answer changed after WithSigma", c.name, q)
			}
		}
	}

	// 32 goroutines derive engines for four Σ′ from one shared base and
	// query them; every verdict must match the sequential NewEngine's.
	c := withSigmaDTDs(t)[3]
	ps, err := c.d.Paths()
	if err != nil {
		t.Fatal(err)
	}
	qs := singleQueries(ps)
	base, err := NewEngine(c.d, c.sigma)
	if err != nil {
		t.Fatal(err)
	}
	sigmas := make([][]xfd.FD, 4)
	want := make([][]bool, len(sigmas))
	for i := range sigmas {
		sigmas[i] = randomSigma(rng, ps, 1+rng.Intn(4))
		fresh, err := NewEngine(c.d, sigmas[i])
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			ans, err := fresh.Implies(q)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], ans.Implied)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g % len(sigmas)
			derived, err := base.WithSigma(sigmas[i])
			if err != nil {
				errs <- err
				return
			}
			for qi, q := range qs {
				ans, err := derived.Implies(q)
				if err != nil {
					errs <- err
					return
				}
				if ans.Implied != want[i][qi] || (!ans.Implied && !ans.Verified) {
					errs <- fmt.Errorf("goroutine %d: Σ′ = %v, %s: implied=%v verified=%v, want implied=%v",
						g, sigmas[i], q, ans.Implied, ans.Verified, want[i][qi])
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

// TestBadSigmaPathErrors pins the error a Σ path outside paths(D) gets
// from every constructor that compiles Σ: NewEngine, WithSigma and the
// one-shot Implies name the FD and the first such path, LHS before RHS
// and in Σ order. NewCheckerSet reports the same path, except for an FD
// with mixed first steps, which it compiles as satisfied by every
// document without looking its paths up.
func TestBadSigmaPathErrors(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT r (a*)>
<!ELEMENT a EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
`)
	good := xfd.MustParse("r.a.@x -> r.a")
	cases := []struct {
		name  string
		sigma []xfd.FD
		want  string
		cs    string // NewCheckerSet's error; "" when it compiles
	}{
		{
			name:  "unknown attribute",
			sigma: []xfd.FD{good, xfd.MustParse("r.a.@x -> r.a.@y")},
			want:  `implication: xfd: r.a.@x -> r.a.@y: "r.a.@y" is not in the path universe`,
			cs:    `xfd: r.a.@x -> r.a.@y: "r.a.@y" is not in the path universe`,
		},
		{
			name:  "mixed first step",
			sigma: []xfd.FD{xfd.MustParse("r.a.@x -> q.a.@y"), good},
			want:  `implication: xfd: r.a.@x -> q.a.@y: "q.a.@y" is not in the path universe`,
		},
		{
			name:  "unknown element",
			sigma: []xfd.FD{xfd.MustParse("r.a, r.b.@x -> r.c")},
			want:  `implication: xfd: r.a, r.b.@x -> r.c: "r.b.@x" is not in the path universe`,
			cs:    `xfd: r.a, r.b.@x -> r.c: "r.b.@x" is not in the path universe`,
		},
		{
			name:  "unknown attribute before a mixed FD",
			sigma: []xfd.FD{xfd.MustParse("r.a.@z -> q.a"), xfd.MustParse("r.a.@y -> r.a")},
			want:  `implication: xfd: r.a.@z -> q.a: "r.a.@z" is not in the path universe`,
			cs:    `xfd: r.a.@y -> r.a: "r.a.@y" is not in the path universe`,
		},
	}
	base, err := NewEngine(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for _, c := range cases {
		_, err := NewEngine(d, c.sigma)
		if got := errText(err); got != c.want {
			t.Errorf("%s: NewEngine error = %q, want %q", c.name, got, c.want)
		}
		_, err = base.WithSigma(c.sigma)
		if got := errText(err); got != c.want {
			t.Errorf("%s: WithSigma error = %q, want %q", c.name, got, c.want)
		}
		_, err = Implies(d, c.sigma, good)
		if got := errText(err); got != c.want {
			t.Errorf("%s: Implies error = %q, want %q", c.name, got, c.want)
		}
		_, err = xfd.NewCheckerSet(base.Universe(), c.sigma)
		if got := errText(err); got != c.cs {
			t.Errorf("%s: NewCheckerSet error = %q, want %q", c.name, got, c.cs)
		}
	}
}
