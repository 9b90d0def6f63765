package paths_test

// Lookup follows a path's steps through the universe's one index. These
// tests pin it to the dotted rendering the universe prints: every
// interned path is found under its own steps and under its parsed
// rendering, and nothing else is found at all.

import (
	"math/rand"
	"testing"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/paperdata"
	"xmlnorm/internal/paths"
)

func mustUniverse(t *testing.T, d *dtd.DTD) *paths.Universe {
	t.Helper()
	u, err := paths.New(d)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// lookupUniverses returns DTD universes (the paper's two specs, chain-18
// and seeded random simple DTDs) and query universes with two first
// steps.
func lookupUniverses(t *testing.T) map[string]*paths.Universe {
	us := map[string]*paths.Universe{
		"courses":  mustUniverse(t, dtd.MustParse(paperdata.MustRead("courses.dtd"))),
		"dblp":     mustUniverse(t, dtd.MustParse(paperdata.MustRead("dblp.dtd"))),
		"chain-18": mustUniverse(t, gen.ChainDTD(18, 2)),
		"query": paths.ForQuery([]dtd.Path{
			dtd.MustParsePath("r.a.b.@x"),
			dtd.MustParsePath("q.a.S"),
			dtd.MustParsePath("r.c"),
			dtd.MustParsePath("q.a.b"),
		}),
		"query-shared-steps": paths.ForQuery([]dtd.Path{
			dtd.MustParsePath("a.b.a"),
			dtd.MustParsePath("b.a.b"),
		}),
	}
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 20; i++ {
		us["random-"+string(rune('a'+i))] = mustUniverse(t, gen.RandomSimpleDTD(rng))
	}
	return us
}

func TestLookupMatchesRendering(t *testing.T) {
	for name, u := range lookupUniverses(t) {
		for i := 0; i < u.Size(); i++ {
			id := paths.ID(i)
			if got, ok := u.Lookup(u.PathOf(id)); !ok || got != id {
				t.Errorf("%s: Lookup(PathOf(%d)) = %d,%v, want %d (%s)", name, id, got, ok, id, u.StringOf(id))
			}
			p, err := dtd.ParsePath(u.StringOf(id))
			if err != nil {
				t.Fatalf("%s: rendering %q does not parse: %v", name, u.StringOf(id), err)
			}
			if got, ok := u.Lookup(p); !ok || got != id {
				t.Errorf("%s: Lookup(%q) = %d,%v, want %d", name, u.StringOf(id), got, ok, id)
			}
		}
	}
}

func TestLookupMisses(t *testing.T) {
	for name, u := range lookupUniverses(t) {
		misses := []dtd.Path{
			nil,
			{},
			{"nope"},
			append(u.PathOf(0).Clone(), "nope"),
			append(u.PathOf(paths.ID(u.Size()-1)).Clone(), "@x", "S"),
		}
		// Every interned path with one unknown step swapped in, and with
		// one step too many.
		for i := 0; i < u.Size(); i++ {
			p := u.PathOf(paths.ID(i))
			for j := range p {
				q := p.Clone()
				q[j] = "zz" + q[j]
				misses = append(misses, q)
			}
			misses = append(misses, p.Child("@nope"))
		}
		for _, p := range misses {
			if id, ok := u.Lookup(p); ok {
				t.Errorf("%s: Lookup(%q) = %d, want a miss", name, p, id)
			}
		}
	}
	// A first step the universe has not seen, though its later steps are.
	u := paths.ForQuery([]dtd.Path{dtd.MustParsePath("r.a"), dtd.MustParsePath("q.b")})
	for _, s := range []string{"s.a", "r.b", "q.a", "a", "b"} {
		if id, ok := u.Lookup(dtd.MustParsePath(s)); ok {
			t.Errorf("Lookup(%q) = %d, want a miss", s, id)
		}
	}
}

// TestLookupAllocatesNothing: Lookup walks steps, so a deep path costs
// no rendering (the string-keyed index joined the steps once per call).
func TestLookupAllocatesNothing(t *testing.T) {
	u := mustUniverse(t, gen.ChainDTD(18, 2))
	var deep paths.ID
	for i := 0; i < u.Size(); i++ {
		if u.DepthOf(paths.ID(i)) > u.DepthOf(deep) {
			deep = paths.ID(i)
		}
	}
	p := u.PathOf(deep).Clone()
	if len(p) != 20 {
		t.Fatalf("deepest chain-18 path has %d steps, want 20", len(p))
	}
	allocs := testing.AllocsPerRun(100, func() {
		if id, ok := u.Lookup(p); !ok || id != deep {
			t.Fatalf("Lookup(%q) = %d,%v, want %d", p, id, ok, deep)
		}
	})
	if allocs != 0 {
		t.Errorf("Lookup of a %d-step path allocates %.0f objects, want 0", len(p), allocs)
	}
}
