package analyze

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/engine"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/relational"
	"xmlnorm/internal/table"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xnf"
)

func TestParseTreeMVD(t *testing.T) {
	m, err := ParseTreeMVD("r.a.@k ->> r.a.@v, r.a.@w")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.String(); got != "r.a.@k ->> r.a.@v, r.a.@w" {
		t.Errorf("round trip = %q", got)
	}
	for _, bad := range []string{"r.a.@k -> r.a.@v", "->> r.a.@v", "r.a.@k ->>", "r..a ->> r.a.@v"} {
		if _, err := ParseTreeMVD(bad); err == nil {
			t.Errorf("ParseTreeMVD(%q) accepted", bad)
		}
	}
}

// FuzzParseTreeMVD fuzzes the parser behind "xnf analyze -mvd": no
// input may panic it, and an accepted MVD's rendering must parse back
// to the same rendering.
func FuzzParseTreeMVD(f *testing.F) {
	for _, seed := range []string{
		"r.a.@k ->> r.a.@v, r.a.@w",
		"r.a.@k ->> r.a.@v",
		"courses.course.@cno ->> courses.course.title.S",
		"courses.course ->> courses.course.title.S",
		"r.a.@k -> r.a.@v", "->> r.a.@v", "r.a.@k ->>", "r..a ->> r.a.@v",
		" r.a.@k ,, r.a.@v ->> r.a.@w ->> r.a.@x",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		m, err := ParseTreeMVD(text)
		if err != nil {
			return
		}
		again, err := ParseTreeMVD(m.String())
		if err != nil {
			t.Fatalf("rendering %q of accepted %q does not parse: %v", m.String(), text, err)
		}
		if again.String() != m.String() {
			t.Fatalf("round trip of %q: %q -> %q", text, m.String(), again.String())
		}
	})
}

// TestTreeMVDMatchesTableMVD is the instance-level differential: over
// random conforming documents of a flat DTD, the streaming tree fold
// and the Codd-table check through the bridge agree on every random
// MVD. The two implementations share only the convention (⊥ exempts on
// X, distinguishes on Y/Z), not a line of code.
func TestTreeMVDMatchesTableMVD(t *testing.T) {
	d := dtd.MustParse(flatDTD)
	ps, err := d.Paths()
	if err != nil {
		t.Fatal(err)
	}
	vps := table.ValuePaths(ps)
	u, err := paths.New(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20020603))
	pickSet := func() []dtd.Path {
		var out []dtd.Path
		for _, p := range vps {
			if rng.Intn(3) == 0 {
				out = append(out, p)
			}
		}
		if len(out) == 0 {
			out = append(out, vps[rng.Intn(len(vps))])
		}
		return out
	}
	trials := 300
	if testing.Short() {
		trials = 40
	}
	var sat, unsat int
	for trial := 0; trial < trials; trial++ {
		doc, err := gen.Document(d, rng, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		m := TreeMVD{LHS: pickSet(), RHS: pickSet()}
		c, err := NewMVDChecker(u, m, vps)
		if err != nil {
			t.Fatal(err)
		}
		tree := c.Satisfies(doc)
		rel := table.FromTree(doc, vps)
		flat := table.SatisfiesMVD(rel, pathStrings(m.LHS), pathStrings(m.RHS))
		if tree != flat {
			t.Fatalf("trial %d: MVD %s: tree fold says %v, table says %v\nrelation:\n%s",
				trial, m, tree, flat, rel)
		}
		if tree {
			sat++
		} else {
			unsat++
		}
	}
	if sat == 0 || unsat == 0 {
		t.Fatalf("degenerate sample: %d satisfied, %d violated", sat, unsat)
	}
}

// TestTreeMVDAgreesWithRelationalImplication: on a flat spec, an MVD
// the dependency basis derives from Σ's image holds in every
// Σ-satisfying document's tree fold — relational.ImpliesMVD and the
// TreeMVD checker connected end to end through the table bridge.
func TestTreeMVDAgreesWithRelationalImplication(t *testing.T) {
	d := dtd.MustParse(flatDTD)
	ps, err := d.Paths()
	if err != nil {
		t.Fatal(err)
	}
	vps := table.ValuePaths(ps)
	u, err := paths.New(d)
	if err != nil {
		t.Fatal(err)
	}
	sigma := []xfd.FD{
		xfd.MustParse("r.a.@k -> r.a.@v"),
		xfd.MustParse("r.a.@v -> r.a.@w"),
	}
	if err := (xnf.Spec{DTD: d, FDs: sigma}).Validate(); err != nil {
		t.Fatal(err)
	}
	uSet := relational.NewAttrSet(pathStrings(vps)...)
	var rfds []relational.FD
	for _, f := range sigma {
		rfds = append(rfds, relational.FD{
			LHS: relational.NewAttrSet(pathStrings(f.LHS)...),
			RHS: relational.NewAttrSet(pathStrings(f.RHS)...),
		})
	}
	sigmaCheck, err := xfd.NewCheckerSet(u, sigma)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20020604))
	pickSet := func() []dtd.Path {
		var out []dtd.Path
		for _, p := range vps {
			if rng.Intn(2) == 0 {
				out = append(out, p)
			}
		}
		if len(out) == 0 {
			out = append(out, vps[rng.Intn(len(vps))])
		}
		return out
	}
	trials := 500
	if testing.Short() {
		trials = 60
	}
	docs, implied := 0, 0
	for trial := 0; trial < trials; trial++ {
		doc, err := gen.Document(d, rng, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !sigmaCheck.SatisfiesAll(doc) {
			continue
		}
		docs++
		m := TreeMVD{LHS: pickSet(), RHS: pickSet()}
		q := relational.MVD{
			LHS: relational.NewAttrSet(pathStrings(m.LHS)...),
			RHS: relational.NewAttrSet(pathStrings(m.RHS)...),
		}
		if !relational.ImpliesMVD(uSet, rfds, nil, q) {
			continue
		}
		implied++
		c, err := NewMVDChecker(u, m, vps)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Satisfies(doc) {
			t.Fatalf("trial %d: MVD %s implied by the image of Σ but violated by a Σ-satisfying document", trial, m)
		}
	}
	if docs < 10 || implied < 10 {
		t.Fatalf("undersampled: %d Σ-satisfying docs, %d implied MVDs", docs, implied)
	}
}

func pathStrings(ps []dtd.Path) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.String()
	}
	return out
}

// TestCheck4XNFCourses: the courses image fails 4NF — @cno determines
// only the title column, so @cno ->> title.S is a non-superkey MVD —
// and FD2 (element-path LHS) is reported skipped.
func TestCheck4XNFCourses(t *testing.T) {
	fx, err := Check4XNF(coursesSpec(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fx.Satisfied {
		t.Fatal("courses image reported in 4NF")
	}
	if len(fx.Violations) == 0 {
		t.Fatal("no violations reported")
	}
	if len(fx.Skipped) != 1 {
		t.Errorf("skipped = %v, want exactly FD2", fx.Skipped)
	}
	if len(fx.ImageFDs) != 2 {
		t.Errorf("image FDs = %v, want @cno → title.S and @sno → name.S", fx.ImageFDs)
	}
}

// TestCheck4XNFFlat: a flat spec whose only FD's LHS is a key of the
// image is in 4NF; declared MVDs with a non-superkey LHS break it.
func TestCheck4XNFFlat(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT r (a*)>
<!ELEMENT a EMPTY>
<!ATTLIST a k CDATA #REQUIRED v CDATA #REQUIRED>`)
	s := xnf.Spec{DTD: d, FDs: []xfd.FD{xfd.MustParse("r.a.@k -> r.a.@v")}}
	fx, err := Check4XNF(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !fx.Satisfied {
		t.Errorf("k → v over (k, v) reported out of 4NF: %v", fx.Violations)
	}
	// A declared tree MVD with a non-superkey LHS must surface.
	s2 := xnf.Spec{DTD: dtd.MustParse(flatDTD)}
	fx2, err := Check4XNF(s2, Options{MVDs: []TreeMVD{MustParseTreeMVD("r.a.@k ->> r.a.@v")}})
	if err != nil {
		t.Fatal(err)
	}
	if fx2.Satisfied {
		t.Error("declared non-trivial MVD with non-superkey LHS reported in 4NF")
	}
	if len(fx2.ImageMVDs) != 1 {
		t.Errorf("image MVDs = %v", fx2.ImageMVDs)
	}
}

// TestDeclaredMVDPaths: a declared MVD naming a path outside paths(D)
// fails Analyze and Check4XNF with xfd.FD.Validate's wording, like an
// FD naming it; a valid element path is no error, only skipped by the
// flat image.
func TestDeclaredMVDPaths(t *testing.T) {
	s := coursesSpec(t)
	for _, m := range []string{
		"courses.nope.@x ->> courses.course.title.S",
		"courses.course.@cno ->> courses.course.title.S, courses.course.nope",
	} {
		opts := Options{MVDs: []TreeMVD{MustParseTreeMVD(m)}}
		_, err := Analyze(s, opts)
		if err == nil || !strings.Contains(err.Error(), "is not a path of the DTD") {
			t.Errorf("Analyze with MVD %s: err = %v, want a not-a-path error", m, err)
		}
		if _, err4 := Check4XNF(s, opts); err4 == nil || err4.Error() != fmt.Sprint(err) {
			t.Errorf("Check4XNF with MVD %s: err = %v, want Analyze's %v", m, err4, err)
		}
	}
	elem := MustParseTreeMVD("courses.course ->> courses.course.title.S")
	fx, err := Check4XNF(s, Options{MVDs: []TreeMVD{elem}})
	if err != nil {
		t.Fatal(err)
	}
	if want := "mvd " + elem.String(); len(fx.Skipped) != 2 || fx.Skipped[1] != want {
		t.Errorf("skipped = %v, want FD2 and %q", fx.Skipped, want)
	}
}

// disjunctiveSpec has a disjunction under a starred element, so its
// engine enumerates several branch assignments, and value paths on
// both branches for the flat image.
func disjunctiveSpec(t *testing.T) xnf.Spec {
	t.Helper()
	d := dtd.MustParse(`
<!ELEMENT r (p*)>
<!ELEMENT p ((a | b), c?)>
<!ATTLIST p k CDATA #REQUIRED v CDATA #REQUIRED>
<!ELEMENT a EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ELEMENT b EMPTY>
<!ATTLIST b y CDATA #REQUIRED>
<!ELEMENT c (#PCDATA)>`)
	sigma, err := xfd.ParseSet(`r.p.@k -> r.p.@v
r.p.a.@x -> r.p.@k
r.p.@v, r.p.b.@y -> r.p.c.S
r.p.c.S -> r.p`)
	if err != nil {
		t.Fatal(err)
	}
	return xnf.Spec{DTD: d, FDs: sigma}
}

// perQueryImage is the image's FDs as a plain loop of engine queries
// would find them: for each distinct all-value LHS of Σ's splits, in
// first-seen order, every value path q outside it that (D, Σ) implies,
// in paths(D) order — one fresh engine, one closure per (X, q).
func perQueryImage(t *testing.T, s xnf.Spec) []string {
	t.Helper()
	eng, err := engine.New(s.DTD, s.FDs, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := s.DTD.Paths()
	if err != nil {
		t.Fatal(err)
	}
	vps := table.ValuePaths(ps)
	isValue := map[string]bool{}
	for _, p := range vps {
		isValue[p.String()] = true
	}
	var out []string
	seen := map[string]bool{}
	for _, f := range s.FDs {
		for _, split := range f.SingleRHS() {
			lhs := relational.NewAttrSet()
			for _, p := range split.LHS {
				lhs[p.String()] = true
			}
			flat := true
			for p := range lhs {
				flat = flat && isValue[p]
			}
			if !flat || seen[lhs.String()] {
				continue
			}
			seen[lhs.String()] = true
			for _, q := range vps {
				if lhs[q.String()] {
					continue
				}
				ans, err := eng.Implies(xfd.FD{LHS: split.LHS, RHS: []dtd.Path{q}})
				if err != nil {
					t.Fatal(err)
				}
				if ans.Implied {
					out = append(out, relational.FD{LHS: lhs, RHS: relational.NewAttrSet(q.String())}.String())
				}
			}
		}
	}
	return out
}

// TestImageMatchesPerQueryImplication: deciding each LHS's goals
// deepest first, with refutations from the image's counterexample
// cache, must find exactly the image FDs a plain per-query loop finds,
// in the same order — on the running examples, the chain family, the
// seeded random flat specs and a disjunctive spec.
func TestImageMatchesPerQueryImplication(t *testing.T) {
	specs := map[string]xnf.Spec{
		"courses":  coursesSpec(t),
		"dblp":     loadSpec(t, "dblp.spec"),
		"chain-7":  {DTD: gen.ChainDTD(7, 2), FDs: gen.ChainFDs(7, 2)},
		"chain-12": {DTD: gen.ChainDTD(12, 2), FDs: gen.ChainFDs(12, 2)},
		"disj":     disjunctiveSpec(t),
	}
	for i, s := range randomFlatSpecs(t) {
		specs[fmt.Sprintf("random-%d", i)] = s
	}
	for name, s := range specs {
		fx, err := Check4XNF(s, Options{Engine: engine.Options{Workers: 1}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := perQueryImage(t, s); strings.Join(fx.ImageFDs, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: image FDs\n%v\nwant (per query)\n%v", name, fx.ImageFDs, want)
		}
	}
}

// TestImageClosureRunsIndependentOfWorkers: the image decides its
// queries in a fixed order against its own refuter, so the closure
// runs it makes (engine misses) are the same at every worker count.
// On chain-18 one verified counterexample per LHS refutes all of that
// LHS's other goals: 18 implied goals and 18 refuted ones.
func TestImageClosureRunsIndependentOfWorkers(t *testing.T) {
	s := xnf.Spec{DTD: gen.ChainDTD(18, 2), FDs: gen.ChainFDs(18, 2)}
	var want uint64
	for i, workers := range []int{1, 2, 8} {
		eng, err := engine.New(s.DTD, s.FDs, engine.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := check4XNFWith(eng, s, nil); err != nil {
			t.Fatal(err)
		}
		got := eng.Stats().Misses
		if i == 0 {
			want = got
			if got > 36 {
				t.Errorf("Workers 1: %d closure runs, want at most 36", got)
			}
			continue
		}
		if got != want {
			t.Errorf("Workers %d: %d closure runs, want %d (Workers 1)", workers, got, want)
		}
	}
}
