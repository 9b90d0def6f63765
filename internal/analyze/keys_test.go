package analyze

import (
	"math/rand"
	"reflect"
	"testing"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/engine"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xnf"
)

// superkeyQueries builds the queries lhs → p for every path p of ps
// outside lhs: lhs is a superkey iff (D, Σ) implies them all.
func superkeyQueries(lhs, ps []dtd.Path) []xfd.FD {
	in := map[string]bool{}
	for _, p := range lhs {
		in[p.String()] = true
	}
	var qs []xfd.FD
	for _, p := range ps {
		if !in[p.String()] {
			qs = append(qs, xfd.FD{LHS: lhs, RHS: []dtd.Path{p}})
		}
	}
	return qs
}

// TestCandidateKeysCourses pins the courses keys: the three deepest
// element paths each determine the whole tuple structurally, and @sno
// paired with anything determining the course vertex completes a key
// through FD2.
func TestCandidateKeysCourses(t *testing.T) {
	keys, err := CandidateKeys(coursesSpec(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"courses.course.taken_by.student",
		"courses.course.taken_by.student.grade",
		"courses.course.taken_by.student.name",
		"courses.course, courses.course.taken_by.student.@sno",
		"courses.course.@cno, courses.course.taken_by.student.@sno",
		"courses.course.taken_by, courses.course.taken_by.student.@sno",
		"courses.course.title, courses.course.taken_by.student.@sno",
	}
	got := make([]string, len(keys))
	for i, k := range keys {
		got[i] = k.String()
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("keys =\n%v\nwant\n%v", got, want)
	}
}

// TestCandidateKeysMatchBaseline: the cached in-order search behind
// its refuter and the naive per-candidate baseline decide the same
// predicate, so their key lists must be identical — on the running
// examples and on seeded random specs.
func TestCandidateKeysMatchBaseline(t *testing.T) {
	check := func(name string, s xnf.Spec, maxSize int) {
		t.Helper()
		fast, err := CandidateKeys(s, Options{MaxKeySize: maxSize})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		slow, err := CandidateKeysBaseline(s, maxSize)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(render(fast), render(slow)) {
			t.Errorf("%s: memoized and baseline searches disagree:\n fast %v\n slow %v",
				name, render(fast), render(slow))
		}
	}
	check("courses", coursesSpec(t), 2)
	check("dblp", loadSpec(t, "dblp.spec"), 2)
	for _, s := range randomFlatSpecs(t) {
		check("random", s, 2)
	}
}

// randomFlatSpecs draws 30 seeded specs (5 under -short) over flatDTD:
// up to three random FDs with one- or two-path left-hand sides.
func randomFlatSpecs(t *testing.T) []xnf.Spec {
	t.Helper()
	d := dtd.MustParse(flatDTD)
	ps, err := d.Paths()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	trials := 30
	if testing.Short() {
		trials = 5
	}
	specs := make([]xnf.Spec, trials)
	for trial := range specs {
		var sigma []xfd.FD
		for n := rng.Intn(4); n > 0; n-- {
			f := xfd.FD{
				LHS: []dtd.Path{ps[rng.Intn(len(ps))]},
				RHS: []dtd.Path{ps[rng.Intn(len(ps))]},
			}
			if rng.Intn(2) == 0 {
				f.LHS = append(f.LHS, ps[rng.Intn(len(ps))])
			}
			sigma = append(sigma, f)
		}
		specs[trial] = xnf.Spec{DTD: d, FDs: sigma}
	}
	return specs
}

// TestKeySearchStatsIndependentOfWorkers: the search decides candidates
// in enumeration order, so every refuter scan sees the same cached
// counterexamples and the closure runs it makes (engine misses) and
// the answers it reuses (hits) depend on the spec alone, not on the
// engine's worker count or the schedule.
func TestKeySearchStatsIndependentOfWorkers(t *testing.T) {
	d, sigma := gen.ChainDTD(12, 2), gen.ChainFDs(12, 2)
	var want engine.Stats
	for i, workers := range []int{1, 1, 1, 2, 2, 2, 8, 8, 8} {
		eng, err := engine.New(d, sigma, engine.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := candidateKeysWith(eng, DefaultMaxKeySize); err != nil {
			t.Fatal(err)
		}
		got := eng.Stats()
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("Workers %d: stats %+v, want %+v (Workers 1)", workers, got, want)
		}
	}
}

func render(keys []Key) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k.String()
	}
	return out
}

const flatDTD = `
<!ELEMENT r (a*)>
<!ELEMENT a EMPTY>
<!ATTLIST a k CDATA #REQUIRED v CDATA #REQUIRED w CDATA #REQUIRED u CDATA #REQUIRED>`

// TestKeysAreMinimalSuperkeysTreeLevel is the key property at tree
// level. Superkey: every random conforming, Σ-satisfying document
// satisfies X → p for all p — checked by folding the document through
// a compiled CheckerSet, not by the engine that found the key.
// Minimal: for every proper subset Y ⊊ X, some X-free query fails,
// and the engine's verified counterexample document exhibits the
// failure concretely.
func TestKeysAreMinimalSuperkeysTreeLevel(t *testing.T) {
	s := coursesSpec(t)
	keys, err := CandidateKeys(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 {
		t.Fatal("no keys to test")
	}
	ps, err := s.DTD.Paths()
	if err != nil {
		t.Fatal(err)
	}
	u, err := paths.New(s.DTD)
	if err != nil {
		t.Fatal(err)
	}
	sigmaCheck, err := xfd.NewCheckerSet(u, s.FDs)
	if err != nil {
		t.Fatal(err)
	}
	// Superkey direction over random documents.
	rng := rand.New(rand.NewSource(20020602))
	docs := 0
	trials := 400
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials && docs < 25; trial++ {
		doc, err := gen.Document(s.DTD, rng, 3, 40)
		if err != nil {
			t.Fatal(err)
		}
		if !sigmaCheck.SatisfiesAll(doc) {
			continue
		}
		docs++
		for _, k := range keys {
			cs, err := xfd.NewCheckerSet(u, superkeyQueries(k.Paths, ps))
			if err != nil {
				t.Fatal(err)
			}
			if !cs.SatisfiesAll(doc) {
				t.Fatalf("Σ-satisfying document violates key %s", k)
			}
		}
	}
	if docs < 5 {
		t.Fatalf("only %d Σ-satisfying documents generated; property undersampled", docs)
	}
	// Minimality direction through the engine's verified counterexamples.
	eng, err := engine.New(s.DTD, s.FDs, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		for drop := 0; drop < len(k.Paths); drop++ {
			sub := append(append([]dtd.Path{}, k.Paths[:drop]...), k.Paths[drop+1:]...)
			if len(sub) == 0 {
				continue
			}
			refuted := false
			for _, q := range superkeyQueries(sub, ps) {
				ans, err := eng.Implies(q)
				if err != nil {
					t.Fatal(err)
				}
				if ans.Implied {
					continue
				}
				refuted = true
				if ans.Counterexample == nil || !ans.Verified {
					t.Fatalf("key %s: subset %v refuted without a verified counterexample", k, sub)
				}
				if _, found := xfd.Violation(ans.Counterexample, q); !found {
					t.Fatalf("key %s: counterexample does not violate %s", k, q)
				}
				break
			}
			if !refuted {
				t.Fatalf("key %s is not minimal: subset %v is a superkey", k, sub)
			}
		}
	}
}
