package implication

import (
	"os"
	"path/filepath"
	"testing"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

func load(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("../../testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func coursesSpec(t *testing.T) (*dtd.DTD, []xfd.FD) {
	t.Helper()
	d := dtd.MustParse(load(t, "courses.dtd"))
	sigma := []xfd.FD{
		xfd.MustParse("courses.course.@cno -> courses.course"),
		xfd.MustParse("courses.course, courses.course.taken_by.student.@sno -> courses.course.taken_by.student"),
		xfd.MustParse("courses.course.taken_by.student.@sno -> courses.course.taken_by.student.name.S"),
	}
	return d, sigma
}

func mustImplies(t *testing.T, d *dtd.DTD, sigma []xfd.FD, q string, want bool) {
	t.Helper()
	ans, err := Implies(d, sigma, xfd.MustParse(q))
	if err != nil {
		t.Fatalf("Implies(%s): %v", q, err)
	}
	if ans.Implied != want {
		t.Errorf("Implies(%s) = %v, want %v", q, ans.Implied, want)
	}
	if !ans.Implied {
		if ans.Counterexample == nil || !ans.Verified {
			t.Errorf("Implies(%s): refutation without a verified counterexample", q)
		}
	}
}

func TestTrivialFDs(t *testing.T) {
	d, _ := coursesSpec(t)
	// (D, ∅) ⊢ p → p' for p' a prefix of p (paper, end of Section 4).
	trivial := []string{
		"courses.course -> courses",
		"courses.course.taken_by.student -> courses.course",
		"courses.course.taken_by.student -> courses.course.taken_by",
		// (D, ∅) ⊢ p → p.@l.
		"courses.course -> courses.course.@cno",
		"courses.course.taken_by.student -> courses.course.taken_by.student.@sno",
		// Text content of a #PCDATA element is unique per node.
		"courses.course.title -> courses.course.title.S",
		// Reflexivity.
		"courses.course.@cno -> courses.course.@cno",
		// One-multiplicity children are determined by their parents.
		"courses.course -> courses.course.title",
		"courses.course -> courses.course.taken_by",
		"courses.course -> courses.course.title.S",
		// Everything is determined given the root only if unique: not so
		// for starred children, but the root itself is unique.
		"courses.course -> courses",
	}
	for _, q := range trivial {
		ok, err := Trivial(d, xfd.MustParse(q))
		if err != nil {
			t.Fatalf("Trivial(%s): %v", q, err)
		}
		if !ok {
			t.Errorf("Trivial(%s) = false, want true", q)
		}
	}
	nontrivial := []string{
		"courses.course.@cno -> courses.course", // keys are not trivial
		"courses -> courses.course",             // starred child
		"courses.course.taken_by -> courses.course.taken_by.student",
		"courses.course.taken_by.student.@sno -> courses.course.taken_by.student.name.S",
		"courses.course.title.S -> courses.course.title", // value does not determine vertex
	}
	for _, q := range nontrivial {
		ok, err := Trivial(d, xfd.MustParse(q))
		if err != nil {
			t.Fatalf("Trivial(%s): %v", q, err)
		}
		if ok {
			t.Errorf("Trivial(%s) = true, want false", q)
		}
	}
}

func TestCoursesImplication(t *testing.T) {
	d, sigma := coursesSpec(t)
	// Σ members are implied.
	for _, f := range sigma {
		mustImplies(t, d, sigma, f.String(), true)
	}
	// FD1 + structure: cno determines the title string.
	mustImplies(t, d, sigma, "courses.course.@cno -> courses.course.title.S", true)
	mustImplies(t, d, sigma, "courses.course.@cno -> courses.course.taken_by", true)
	// The XNF-violating fact (Example 5.1): sno determines name.S but NOT
	// the name element.
	mustImplies(t, d, sigma,
		"courses.course.taken_by.student.@sno -> courses.course.taken_by.student.name", false)
	// sno alone does not determine the student element (the same student
	// takes many courses).
	mustImplies(t, d, sigma,
		"courses.course.taken_by.student.@sno -> courses.course.taken_by.student", false)
	// sno does not determine the grade.
	mustImplies(t, d, sigma,
		"courses.course.taken_by.student.@sno -> courses.course.taken_by.student.grade.S", false)
	// cno + sno determine the grade (through FD1 + FD2 + structure).
	mustImplies(t, d, sigma,
		"courses.course.@cno, courses.course.taken_by.student.@sno -> courses.course.taken_by.student.grade.S", true)
	// Multi-RHS query.
	mustImplies(t, d, sigma,
		"courses.course.@cno -> courses.course.title.S, courses.course.taken_by", true)
	mustImplies(t, d, sigma,
		"courses.course.@cno -> courses.course.title.S, courses.course.taken_by.student", false)
}

func TestDBLPImplication(t *testing.T) {
	d := dtd.MustParse(load(t, "dblp.dtd"))
	sigma := []xfd.FD{
		xfd.MustParse("db.conf.title.S -> db.conf"),
		xfd.MustParse("db.conf.issue -> db.conf.issue.inproceedings.@year"),
		xfd.MustParse("db.conf.issue.inproceedings.@key -> db.conf.issue.inproceedings"),
	}
	// FD5 is in Σ.
	mustImplies(t, d, sigma, "db.conf.issue -> db.conf.issue.inproceedings.@year", true)
	// But the issue does not determine the inproceedings element — the
	// XNF violation of Example 5.2.
	mustImplies(t, d, sigma, "db.conf.issue -> db.conf.issue.inproceedings", false)
	// Structure: inproceedings determines its issue (prefix), its year.
	mustImplies(t, d, sigma, "db.conf.issue.inproceedings -> db.conf.issue", true)
	mustImplies(t, d, sigma, "db.conf.issue.inproceedings -> db.conf.issue.inproceedings.@year", true)
	// A key chains: key determines the year through the node.
	mustImplies(t, d, sigma, "db.conf.issue.inproceedings.@key -> db.conf.issue.inproceedings.@year", true)
	// title.S determines conf (FD4), hence not much more: not the issue.
	mustImplies(t, d, sigma, "db.conf.title.S -> db.conf.issue", false)
}

// TestCrossoverRule exercises the branch-swap reasoning: with
// P(r) = a+, b* and Σ = {r.a.@x → r.b.@y}, every tree has an a child
// under the root, and mixed tuples force all b.@y values to agree, so
// r → r.b.@y is implied. With P(r) = a*, b* it is not (a document with
// no a children escapes Σ).
func TestCrossoverRule(t *testing.T) {
	plus := dtd.MustParse(`
<!ELEMENT r (a+, b*)>
<!ELEMENT a EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ELEMENT b EMPTY>
<!ATTLIST b y CDATA #REQUIRED>`)
	star := dtd.MustParse(`
<!ELEMENT r (a*, b*)>
<!ELEMENT a EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ELEMENT b EMPTY>
<!ATTLIST b y CDATA #REQUIRED>`)
	sigma := []xfd.FD{xfd.MustParse("r.a.@x -> r.b.@y")}
	mustImplies(t, plus, sigma, "r -> r.b.@y", true)
	mustImplies(t, star, sigma, "r -> r.b.@y", false)
	// With the a present in the hypothesis, both imply.
	mustImplies(t, star, sigma, "r, r.a.@x -> r.b.@y", true)
	mustImplies(t, star, sigma, "r.a.@x -> r.b.@y", true)
}

// TestDisjunctionImplication checks assignment enumeration: with
// P(r) = (a|b), the root has exactly one child among a, b.
func TestDisjunctionImplication(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT r ((a | b))>
<!ELEMENT a EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ELEMENT b EMPTY>
<!ATTLIST b y CDATA #REQUIRED>`)
	// The root determines both branch children (each occurs at most
	// once): trivial.
	mustImplies(t, d, nil, "r -> r.a", true)
	mustImplies(t, d, nil, "r -> r.b", true)
	mustImplies(t, d, nil, "r -> r.a.@x", true)
	// a's attribute does not determine b's (they never coexist, but two
	// roots... there is only one root; a single tree has one r).
	// In fact with one root and (a|b), r.a.@x → r.b.@y holds vacuously in
	// any single tree: if two tuples agree non-null on r.a.@x, the root
	// has an a child, so r.b is ⊥ in both. Both RHS null: equal.
	mustImplies(t, d, nil, "r.a.@x -> r.b.@y", true)
}

// TestDisjunctionNotImplied: with (a|b) under a starred parent, two
// different parent nodes can take different branches.
func TestDisjunctionNotImplied(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT r (p*)>
<!ELEMENT p ((a | b))>
<!ATTLIST p k CDATA #REQUIRED>
<!ELEMENT a EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ELEMENT b EMPTY>
<!ATTLIST b y CDATA #REQUIRED>`)
	sigma := []xfd.FD{xfd.MustParse("r.p.@k -> r.p")}
	// k is a key for p, so k determines p's branch children.
	mustImplies(t, d, sigma, "r.p.@k -> r.p.a", true)
	mustImplies(t, d, sigma, "r.p.@k -> r.p.a.@x", true)
	// Without the key, the attribute does not determine the branch.
	mustImplies(t, d, nil, "r.p.@k -> r.p.a.@x", false)
	// Any tuple with a non-null a.@x took the a branch at its p node, so
	// its b subtree is ⊥; the RHS is ⊥ = ⊥ for every qualifying pair and
	// the FD holds vacuously.
	mustImplies(t, d, nil, "r.p.a.@x -> r.p.b.@y", true)
	// But the p vertex itself does not determine a sibling p's values.
	mustImplies(t, d, nil, "r.p.@k -> r.p.a", false)
}

func TestImpliesErrors(t *testing.T) {
	d, sigma := coursesSpec(t)
	if _, err := Implies(d, sigma, xfd.MustParse("courses.zzz -> courses")); err == nil {
		t.Error("bad query path should error")
	}
	if _, err := Implies(d, []xfd.FD{xfd.MustParse("courses.zzz -> courses")},
		xfd.MustParse("courses.course -> courses")); err == nil {
		t.Error("bad sigma path should error")
	}
	rec := dtd.MustParse("<!ELEMENT a (b*)><!ELEMENT b (b2?)><!ELEMENT b2 (b?)>")
	if _, err := Implies(rec, nil, xfd.MustParse("a -> a.b")); err == nil {
		t.Error("recursive DTD should error")
	}
	faq := dtd.MustParse(`
<!ELEMENT s (logo*, title, (qna+ | q+ | p+))>
<!ELEMENT logo EMPTY>
<!ELEMENT title EMPTY>
<!ELEMENT qna EMPTY>
<!ELEMENT q EMPTY>
<!ELEMENT p EMPTY>`)
	if _, err := Implies(faq, nil, xfd.MustParse("s -> s.title")); err == nil {
		t.Error("non-disjunctive DTD should error from the closure decider")
	}
}

func TestEngineReuse(t *testing.T) {
	d, sigma := coursesSpec(t)
	eng, err := NewEngine(d, sigma)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ans, err := eng.Implies(xfd.MustParse("courses.course.@cno -> courses.course.title.S"))
		if err != nil || !ans.Implied {
			t.Fatalf("engine run %d: %v %v", i, ans, err)
		}
	}
}

// TestCounterexampleProperties: refutations are concrete documents that
// conform, satisfy Σ, and violate the query.
func TestCounterexampleProperties(t *testing.T) {
	d, sigma := coursesSpec(t)
	q := xfd.MustParse("courses.course.taken_by.student.@sno -> courses.course.taken_by.student.name")
	ans, err := Implies(d, sigma, q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Implied {
		t.Fatal("query should not be implied")
	}
	ce := ans.Counterexample
	if err := xmltree.ConformsUnordered(ce, d); err != nil {
		t.Errorf("counterexample does not conform: %v\n%s", err, ce)
	}
	if !xfd.SatisfiesAll(ce, sigma) {
		t.Errorf("counterexample violates Σ:\n%s", ce)
	}
	if xfd.Satisfies(ce, q) {
		t.Errorf("counterexample satisfies the query:\n%s", ce)
	}
}

// TestVerifyCounterexample pins the certification of refutations on
// every engine construction path (NewEngine, the one-shot Implies and
// ImpliesBounded, the latter over a bounded skeleton's query universe,
// and an engine WithSigma derives from one built for (D, ∅)): a
// candidate tree is accepted only if it conforms to D, satisfies Σ
// through the engine's compiled checker, and violates q. Each rejected
// tree fails exactly one check.
func TestVerifyCounterexample(t *testing.T) {
	d, sigma := coursesSpec(t)
	q := xfd.MustParse("courses.course.taken_by.student.@sno -> courses.course.taken_by.student.name")
	student := func(sno, name string) string {
		return `<student sno="` + sno + `"><name>` + name + `</name><grade>A</grade></student>`
	}
	course := func(cno string, title bool, students ...string) string {
		s := `<course cno="` + cno + `">`
		if title {
			s += `<title>T</title>`
		}
		s += `<taken_by>`
		for _, st := range students {
			s += st
		}
		return s + `</taken_by></course>`
	}
	cases := []struct {
		name string
		doc  string
		want bool
	}{
		{"not conforming", course("c1", false, student("s1", "N")) + course("c2", true, student("s1", "N")), false},
		{"violates Σ", course("c1", true, student("s1", "N")) + course("c2", true, student("s1", "M")), false},
		{"satisfies q", course("c1", true, student("s1", "N"), student("s2", "N")), false},
		{"counterexample", course("c1", true, student("s1", "N")) + course("c2", true, student("s1", "N")), true},
	}
	trees := make([]*xmltree.Tree, len(cases))
	for i, c := range cases {
		trees[i] = xmltree.MustParseString("<courses>" + c.doc + "</courses>")
		failed := 0
		for _, ok := range []bool{
			xmltree.ConformsUnordered(trees[i], d) == nil,
			xfd.SatisfiesAll(trees[i], sigma),
			!xfd.Satisfies(trees[i], q),
		} {
			if !ok {
				failed++
			}
		}
		if c.want != (failed == 0) || failed > 1 {
			t.Fatalf("%s: the tree fails %d of the three checks", c.name, failed)
		}
	}
	full, err := NewEngine(d, sigma)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := buildSkeleton(d)
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := newEngine(sk, sigma)
	if err != nil {
		t.Fatal(err)
	}
	bsk, err := buildSkeletonBounded(d, 6)
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := newEngine(bsk, sigma)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := NewEngine(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	derived, err := empty.WithSigma(sigma)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []struct {
		name string
		e    *Engine
	}{{"NewEngine", full}, {"Implies", oneShot}, {"ImpliesBounded", bounded}, {"WithSigma", derived}} {
		for i, c := range cases {
			if got := eng.e.verifyCounterexample(q, trees[i]); got != c.want {
				t.Errorf("%s: %s: verifyCounterexample = %v, want %v", eng.name, c.name, got, c.want)
			}
		}
	}
}

func TestBruteForceBasics(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT r (a*)>
<!ELEMENT a EMPTY>
<!ATTLIST a
    k CDATA #REQUIRED
    v CDATA #REQUIRED>`)
	sigma := []xfd.FD{xfd.MustParse("r.a.@k -> r.a.@v")}
	// Σ member: implied.
	ans, err := BruteForce(d, sigma, xfd.MustParse("r.a.@k -> r.a.@v"), Bounds{})
	if err != nil || !ans.Implied {
		t.Fatalf("Σ member: %+v, %v", ans, err)
	}
	// Reverse: not implied; expect verified counterexample.
	ans, err = BruteForce(d, sigma, xfd.MustParse("r.a.@v -> r.a.@k"), Bounds{})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Implied {
		t.Fatal("reverse FD should not be implied")
	}
	if ans.Counterexample == nil || !ans.Verified {
		t.Fatal("refutation must carry a verified counterexample")
	}
	// Trivial: r.a -> r.a.@k.
	ans, err = BruteForce(d, nil, xfd.MustParse("r.a -> r.a.@k"), Bounds{})
	if err != nil || !ans.Implied {
		t.Fatalf("trivial: %+v, %v", ans, err)
	}
}

func TestBruteForceBoundsExceeded(t *testing.T) {
	d, sigma := coursesSpec(t)
	_, err := BruteForce(d, sigma,
		xfd.MustParse("courses.course.@cno -> courses.course.title.S"),
		Bounds{MaxValuePositions: 2})
	if err == nil {
		t.Error("tight bounds should be reported, not silently ignored")
	}
}

// TestClosureAgainstBruteForce cross-validates the closure decider
// against the semantic ground truth on a curated set of small specs
// covering multiplicities, disjunctions, text content and crossovers.
func TestClosureAgainstBruteForce(t *testing.T) {
	type spec struct {
		dtd   string
		sigma []string
	}
	specs := []spec{
		{`<!ELEMENT r (a*)><!ELEMENT a EMPTY><!ATTLIST a k CDATA #REQUIRED v CDATA #REQUIRED>`,
			[]string{"r.a.@k -> r.a.@v"}},
		{`<!ELEMENT r (a*)><!ELEMENT a EMPTY><!ATTLIST a k CDATA #REQUIRED v CDATA #REQUIRED>`,
			[]string{"r.a.@k -> r.a"}},
		{`<!ELEMENT r (a+, b?)><!ELEMENT a EMPTY><!ATTLIST a x CDATA #REQUIRED><!ELEMENT b EMPTY><!ATTLIST b y CDATA #REQUIRED>`,
			[]string{"r.a.@x -> r.b.@y"}},
		{`<!ELEMENT r (a, b*)><!ELEMENT a (#PCDATA)><!ELEMENT b EMPTY><!ATTLIST b y CDATA #REQUIRED>`,
			[]string{"r.a.S -> r.b.@y"}},
		{`<!ELEMENT r ((a|b))><!ELEMENT a EMPTY><!ATTLIST a x CDATA #REQUIRED><!ELEMENT b EMPTY><!ATTLIST b y CDATA #REQUIRED>`,
			[]string{}},
		{`<!ELEMENT r (p*)><!ELEMENT p ((a|b))><!ATTLIST p k CDATA #REQUIRED><!ELEMENT a EMPTY><!ATTLIST a x CDATA #REQUIRED><!ELEMENT b EMPTY>`,
			[]string{"r.p.@k -> r.p"}},
		{`<!ELEMENT r (p*)><!ELEMENT p (c?)><!ATTLIST p k CDATA #REQUIRED><!ELEMENT c EMPTY><!ATTLIST c v CDATA #REQUIRED>`,
			[]string{"r.p.@k -> r.p.c.@v"}},
	}
	for si, sp := range specs {
		d := dtd.MustParse(sp.dtd)
		var sigma []xfd.FD
		for _, s := range sp.sigma {
			sigma = append(sigma, xfd.MustParse(s))
		}
		paths, err := d.Paths()
		if err != nil {
			t.Fatal(err)
		}
		// Query every pair (single LHS path, single RHS path) and some
		// two-path LHS combinations.
		var queries []xfd.FD
		for _, l := range paths {
			for _, r := range paths {
				queries = append(queries, xfd.FD{LHS: []dtd.Path{l}, RHS: []dtd.Path{r}})
			}
		}
		for i := 0; i+1 < len(paths); i += 2 {
			queries = append(queries, xfd.FD{LHS: []dtd.Path{paths[i], paths[i+1]}, RHS: []dtd.Path{paths[0]}})
		}
		agree, skipped := 0, 0
		for _, q := range queries {
			fast, err := Implies(d, sigma, q)
			if err != nil {
				t.Fatalf("spec %d: Implies(%s): %v", si, q, err)
			}
			slow, err := BruteForce(d, sigma, q, Bounds{})
			if err != nil {
				skipped++
				continue
			}
			if fast.Implied != slow.Implied {
				t.Errorf("spec %d query %s: closure=%v bruteforce=%v", si, q, fast.Implied, slow.Implied)
				continue
			}
			agree++
		}
		if agree == 0 {
			t.Errorf("spec %d: no queries compared (skipped %d)", si, skipped)
		}
		t.Logf("spec %d: %d queries agreed, %d skipped (bounds)", si, agree, skipped)
	}
}
