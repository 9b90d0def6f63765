package bench

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/engine"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/implication"
	"xmlnorm/internal/nested"
	"xmlnorm/internal/paperdata"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/relational"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
	"xmlnorm/internal/xnf"
)

// Options configures the experiment suite.
type Options struct {
	// Engine sets the worker count of the engine-backed experiments
	// (E6–E9, E16).
	Engine engine.Options
}

// CoursesSpec loads Example 1.1's specification.
func CoursesSpec() (xnf.Spec, error) {
	d, err := paperdata.Read("courses.spec")
	if err != nil {
		return xnf.Spec{}, err
	}
	return parseSpec(d)
}

// DBLPSpec loads Example 1.2's specification.
func DBLPSpec() (xnf.Spec, error) {
	d, err := paperdata.Read("dblp.spec")
	if err != nil {
		return xnf.Spec{}, err
	}
	return parseSpec(d)
}

// parseSpec is a local copy of the facade's spec parsing (the facade
// imports nothing from here; bench stays independent of it).
func parseSpec(text string) (xnf.Spec, error) {
	var dtdPart, fdPart string
	if i := indexLine(text, "%%"); i >= 0 {
		dtdPart, fdPart = text[:i], text[i+3:]
	} else {
		dtdPart = text
	}
	d, err := dtd.Parse(dtdPart)
	if err != nil {
		return xnf.Spec{}, err
	}
	fds, err := xfd.ParseSet(fdPart)
	if err != nil {
		return xnf.Spec{}, err
	}
	return xnf.Spec{DTD: d, FDs: fds}, nil
}

func indexLine(text, line string) int {
	off := 0
	for _, l := range splitLines(text) {
		if l == line {
			return off
		}
		off += len(l) + 1
	}
	return -1
}

func splitLines(text string) []string {
	var out []string
	start := 0
	for i := 0; i < len(text); i++ {
		if text[i] == '\n' {
			out = append(out, text[start:i])
			start = i + 1
		}
	}
	return append(out, text[start:])
}

// E1University reproduces Example 1.1 end to end and sweeps document
// sizes: redundancy before/after, with the output DTD checked against
// the paper's Figure 1(b) schema.
func E1University() (*Table, error) {
	spec, err := CoursesSpec()
	if err != nil {
		return nil, err
	}
	names := xnf.Names{Preferred: map[string]string{
		"tau:courses.course.taken_by.student.name.S":  "info",
		"member:courses.course.taken_by.student.@sno": "number",
	}}
	out, steps, err := xnf.Normalize(spec, xnf.Options{Names: names})
	if err != nil {
		return nil, err
	}
	wantText, err := paperdata.Read("courses_xnf.dtd")
	if err != nil {
		return nil, err
	}
	want, err := dtd.Parse(wantText)
	if err != nil {
		return nil, err
	}
	exact := dtd.EquivalentModels(out.DTD, want)
	t := &Table{
		ID:     "E1",
		Title:  "Example 1.1 (university): XNF normalization and redundancy",
		Claim:  "one create-element step yields exactly the DTD of Figure 1(b); the sno→name redundancy disappears",
		Header: Row{"courses", "students/course", "redundant before", "redundant after", "steps", "exact paper DTD"},
	}
	for _, size := range []struct{ c, s int }{{2, 2}, {10, 5}, {50, 10}, {200, 20}} {
		rng := rand.New(rand.NewSource(int64(size.c)))
		pool := size.c * size.s / 2
		doc := gen.University(size.c, size.s, pool, pool/3+1, rng)
		before, err := xnf.MeasureRedundancy(spec, doc)
		if err != nil {
			return nil, err
		}
		migrated := doc.Clone()
		if err := xnf.ApplySteps(migrated, steps); err != nil {
			return nil, err
		}
		after, err := xnf.MeasureRedundancy(out, migrated)
		if err != nil {
			return nil, err
		}
		t.Expect(exact, "E1: normalized DTD differs from Figure 1(b)")
		t.Expect(after.Redundant == 0, "E1 %dx%d: %d redundant values remain after normalization", size.c, size.s, after.Redundant)
		t.Rows = append(t.Rows, Row{
			fmt.Sprint(size.c), fmt.Sprint(size.s),
			fmt.Sprint(before.Redundant), fmt.Sprint(after.Redundant),
			fmt.Sprint(len(steps)), fmt.Sprint(exact),
		})
	}
	return t, nil
}

// E2DBLP reproduces Example 1.2: the year moves to issue in one
// move-attribute step.
func E2DBLP() (*Table, error) {
	spec, err := DBLPSpec()
	if err != nil {
		return nil, err
	}
	out, steps, err := xnf.Normalize(spec, xnf.Options{})
	if err != nil {
		return nil, err
	}
	wantText, err := paperdata.Read("dblp_xnf.dtd")
	if err != nil {
		return nil, err
	}
	want, err := dtd.Parse(wantText)
	if err != nil {
		return nil, err
	}
	exact := dtd.EquivalentModels(out.DTD, want)
	kind := "-"
	if len(steps) == 1 {
		kind = steps[0].Kind.String()
	}
	t := &Table{
		ID:     "E2",
		Title:  "Example 1.2 (DBLP): year moves from inproceedings to issue",
		Claim:  "one move-attribute step; year stored once per issue instead of once per paper",
		Header: Row{"confs", "issues/conf", "papers/issue", "redundant before", "redundant after", "step", "exact paper DTD"},
	}
	for _, size := range []struct{ c, i, p int }{{1, 2, 2}, {5, 10, 10}, {10, 20, 25}} {
		rng := rand.New(rand.NewSource(int64(size.p)))
		doc := gen.DBLP(size.c, size.i, size.p, rng)
		before, err := xnf.MeasureRedundancy(spec, doc)
		if err != nil {
			return nil, err
		}
		migrated := doc.Clone()
		if err := xnf.ApplySteps(migrated, steps); err != nil {
			return nil, err
		}
		after, err := xnf.MeasureRedundancy(out, migrated)
		if err != nil {
			return nil, err
		}
		t.Expect(exact, "E2: normalized DTD differs from the paper's DBLP schema")
		t.Expect(after.Redundant == 0, "E2 %d/%d/%d: %d redundant values remain", size.c, size.i, size.p, after.Redundant)
		t.Rows = append(t.Rows, Row{
			fmt.Sprint(size.c), fmt.Sprint(size.i), fmt.Sprint(size.p),
			fmt.Sprint(before.Redundant), fmt.Sprint(after.Redundant),
			kind, fmt.Sprint(exact),
		})
	}
	return t, nil
}

// E3Tuples measures tree-tuple extraction (Figure 2 / Section 3): the
// maximal tuple count equals the full unnesting size.
func E3Tuples() (*Table, error) {
	t := &Table{
		ID:     "E3",
		Title:  "Tree tuples (Figure 2): tuples_D(T) size and extraction time",
		Claim:  "maximal tuples = one per (course, student) pair, as in the relational unnesting",
		Header: Row{"courses", "students/course", "tuples", "expected", "extract ms", "roundtrip ≡ T"},
	}
	for _, size := range []struct{ c, s int }{{2, 2}, {10, 10}, {40, 25}} {
		rng := rand.New(rand.NewSource(7))
		doc := gen.University(size.c, size.s, size.c*size.s, 10, rng)
		spec, err := CoursesSpec()
		if err != nil {
			return nil, err
		}
		u, err := paths.New(spec.DTD)
		if err != nil {
			return nil, err
		}
		var ts []tuples.Tuple
		d, err := timeIt(func() error {
			var err error
			ts, err = tuples.TuplesOf(u, doc, 0)
			return err
		})
		if err != nil {
			return nil, err
		}
		back, err := tuples.TreesOf(spec.DTD, ts)
		if err != nil {
			return nil, err
		}
		t.Expect(len(ts) == size.c*size.s, "E3 %dx%d: %d tuples, want %d", size.c, size.s, len(ts), size.c*size.s)
		t.Expect(xmltree.Equivalent(back, doc), "E3 %dx%d: trees_D(tuples_D(T)) not equivalent to T", size.c, size.s)
		t.Rows = append(t.Rows, Row{
			fmt.Sprint(size.c), fmt.Sprint(size.s),
			fmt.Sprint(len(ts)), fmt.Sprint(size.c * size.s),
			ms(d), fmt.Sprint(xmltree.Equivalent(back, doc)),
		})
	}
	return t, nil
}

// E4NNF measures Proposition 5 agreement (NNF ⇔ XNF) on random nested
// schemas.
func E4NNF(trials int) (*Table, error) {
	rng := rand.New(rand.NewSource(11))
	pool := []string{"A", "B", "C", "D"}
	agree, inNNF := 0, 0
	for trial := 0; trial < trials; trial++ {
		s, attrs := randomNested(rng, pool)
		var fds []relational.FD
		for i := 0; i < rng.Intn(3); i++ {
			l, r := attrs[rng.Intn(len(attrs))], attrs[rng.Intn(len(attrs))]
			if l == r {
				continue
			}
			fds = append(fds, relational.FD{LHS: relational.NewAttrSet(l), RHS: relational.NewAttrSet(r)})
		}
		nnf, _, err := nested.IsNNF(s, fds)
		if err != nil {
			return nil, err
		}
		d, sigma, err := nested.EncodeXML(s, fds)
		if err != nil {
			return nil, err
		}
		xnfOK, _, err := xnf.Check(xnf.Spec{DTD: d, FDs: sigma})
		if err != nil {
			return nil, err
		}
		if nnf == xnfOK {
			agree++
		}
		if nnf {
			inNNF++
		}
	}
	t := &Table{
		ID:     "E4",
		Title:  "Proposition 5: NNF ⇔ XNF on random nested schemas",
		Claim:  "the two normal forms agree on every instance",
		Header: Row{"trials", "agreements", "rate", "in NNF"},
		Rows: []Row{{
			fmt.Sprint(trials), fmt.Sprint(agree),
			fmt.Sprintf("%.1f%%", 100*float64(agree)/float64(trials)),
			fmt.Sprint(inNNF),
		}},
	}
	t.Expect(agree == trials, "E4: NNF and XNF disagree on %d of %d trials", trials-agree, trials)
	return t, nil
}

func randomNested(rng *rand.Rand, pool []string) (*nested.Schema, []string) {
	n := 2 + rng.Intn(len(pool)-1)
	attrs := pool[:n]
	nodes := make([]*nested.Schema, n)
	for i := 0; i < n; i++ {
		nodes[i] = &nested.Schema{Name: fmt.Sprintf("G%d", i), Attrs: []string{attrs[i]}}
	}
	for i := 1; i < n; i++ {
		p := rng.Intn(i)
		nodes[p].Children = append(nodes[p].Children, nodes[i])
	}
	return nodes[0], attrs
}

// E5BCNF measures Proposition 4 agreement (BCNF ⇔ XNF) on random
// relational schemas.
func E5BCNF(trials int) (*Table, error) {
	rng := rand.New(rand.NewSource(13))
	names := []string{"A", "B", "C", "D", "E"}
	agree, inBCNF := 0, 0
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(4)
		schema := relational.Schema{Name: "R", Attrs: relational.NewAttrSet(names[:n]...)}
		var fds []relational.FD
		for i := 0; i < rng.Intn(3); i++ {
			lhs := relational.NewAttrSet(names[rng.Intn(n)])
			if rng.Intn(2) == 0 {
				lhs[names[rng.Intn(n)]] = true
			}
			rhs := relational.NewAttrSet(names[rng.Intn(n)])
			fds = append(fds, relational.FD{LHS: lhs, RHS: rhs})
		}
		bcnf, _ := relational.IsBCNF(schema, fds)
		d, sigma, err := relational.EncodeXML(schema, fds)
		if err != nil {
			return nil, err
		}
		xnfOK, _, err := xnf.Check(xnf.Spec{DTD: d, FDs: sigma})
		if err != nil {
			return nil, err
		}
		if bcnf == xnfOK {
			agree++
		}
		if bcnf {
			inBCNF++
		}
	}
	t := &Table{
		ID:     "E5",
		Title:  "Proposition 4: BCNF ⇔ XNF on random relational schemas",
		Claim:  "the two normal forms agree on every instance",
		Header: Row{"trials", "agreements", "rate", "in BCNF"},
		Rows: []Row{{
			fmt.Sprint(trials), fmt.Sprint(agree),
			fmt.Sprintf("%.1f%%", 100*float64(agree)/float64(trials)),
			fmt.Sprint(inBCNF),
		}},
	}
	t.Expect(agree == trials, "E5: BCNF and XNF disagree on %d of %d trials", trials-agree, trials)
	return t, nil
}

// E6ImplicationSimple sweeps the size of a simple DTD and measures one
// implication query (Theorem 3: quadratic in |D| + |Σ|). The printed
// exponent is the local log-log slope of time against path count.
func E6ImplicationSimple(opts Options) (*Table, error) {
	t := &Table{
		ID:     "E6",
		Title:  "Theorem 3: FD implication over simple DTDs",
		Claim:  "solvable in quadratic time (growth exponent ≲ 2)",
		Header: Row{"chain depth", "paths(D)", "|Σ|", "implies ms", "exponent"},
	}
	var prevPaths int
	var prevTime int64
	for _, depth := range []int{4, 8, 16, 32, 64} {
		d := gen.ChainDTD(depth, 2)
		sigma := gen.ChainFDs(depth, 2)
		paths, err := d.Paths()
		if err != nil {
			return nil, err
		}
		level := gen.ChainPaths(depth)[depth]
		q := xfd.FD{
			LHS: []dtd.Path{level.Child(fmt.Sprintf("@a%d_0", depth))},
			RHS: []dtd.Path{level.Child(fmt.Sprintf("@a%d_1", depth))},
		}
		eng, err := engine.New(d, sigma, opts.Engine)
		if err != nil {
			return nil, err
		}
		var ans implication.Answer
		dur, err := timeIt(func() error {
			var err error
			ans, err = eng.Implies(q)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Expect(ans.Implied, "depth %d: the chain FD query should be implied", depth)
		exp := growth(prevPaths, time.Duration(prevTime), len(paths), dur)
		t.Rows = append(t.Rows, Row{
			fmt.Sprint(depth), fmt.Sprint(len(paths)), fmt.Sprint(len(sigma)),
			ms(dur), exp,
		})
		prevPaths, prevTime = len(paths), int64(dur)
	}
	return t, nil
}

// E7Disjunctive sweeps the number of disjunction groups (Theorem 4):
// the running time grows with N_D² (branch assignments), i.e.
// exponentially in the group count but polynomially when N_D is
// bounded.
func E7Disjunctive(opts Options) (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  "Theorem 4: implication over disjunctive DTDs",
		Claim:  "cost scales with the number of branch assignments (≈ N_D²); tractable while N_D ≤ k·log|D|",
		Header: Row{"groups", "branches", "N_D", "assignments", "implies ms"},
	}
	for _, cfg := range []struct{ g, b int }{{1, 2}, {2, 2}, {3, 2}, {4, 2}, {2, 3}, {3, 3}} {
		d := gen.DisjunctiveDTD(cfg.g, cfg.b)
		nd, err := d.ND()
		if err != nil {
			return nil, err
		}
		sigma := []xfd.FD{{
			LHS: []dtd.Path{{"r", "p", "@k"}},
			RHS: []dtd.Path{{"r", "p"}},
		}}
		q := xfd.FD{
			LHS: []dtd.Path{{"r", "p", "@k"}},
			RHS: []dtd.Path{{"r", "p", "b0_0", "@v"}},
		}
		eng, err := engine.New(d, sigma, opts.Engine)
		if err != nil {
			return nil, err
		}
		dur, err := timeIt(func() error {
			_, err := eng.Implies(q)
			return err
		})
		if err != nil {
			return nil, err
		}
		assignments := int64(1)
		for i := 0; i < cfg.g; i++ {
			assignments *= int64(cfg.b * cfg.b)
		}
		t.Rows = append(t.Rows, Row{
			fmt.Sprint(cfg.g), fmt.Sprint(cfg.b), fmt.Sprint(nd),
			fmt.Sprint(assignments), ms(dur),
		})
	}
	return t, nil
}

// E8BruteVsClosure compares the closure decider against the brute-force
// semantic checker (the coNP baseline of Theorem 5) on growing specs.
// The brute-force side fans its per-shape searches across the
// configured workers, so wall clock scales with cores while the
// checked-tree count (the coNP blowup being measured) is unchanged.
func E8BruteVsClosure(opts Options) (*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "Theorem 5 baseline: semantic (coNP) check vs closure algorithm",
		Claim:  "the generic checker blows up exponentially; the closure stays polynomial — same answers",
		Header: Row{"width", "paths(D)", "closure ms", "brute ms", "ratio", "agree"},
	}
	for _, width := range []int{1, 2, 3} {
		d := gen.WideDTD(width, 2)
		paths, err := d.Paths()
		if err != nil {
			return nil, err
		}
		sigma := []xfd.FD{{
			LHS: []dtd.Path{{"r", "c0", "@a0_0"}},
			RHS: []dtd.Path{{"r", "c0", "@a0_1"}},
		}}
		q := xfd.FD{
			LHS: []dtd.Path{{"r", "c0", "@a0_1"}},
			RHS: []dtd.Path{{"r", "c0", "@a0_0"}},
		}
		var fast, slow implication.Answer
		fastT, err := timeIt(func() error {
			var err error
			fast, err = implication.Implies(d, sigma, q)
			return err
		})
		if err != nil {
			return nil, err
		}
		slowT, err := timeIt(func() error {
			var err error
			slow, err = implication.BruteForceParallel(d, sigma, q,
				implication.Bounds{MaxValuePositions: 12, MaxTrees: 5000000}, opts.Engine.Workers)
			return err
		})
		if err != nil {
			return nil, err
		}
		ratio := "-"
		if fastT > 0 {
			ratio = fmt.Sprintf("%.0fx", float64(slowT)/float64(fastT))
		}
		t.Expect(fast.Implied == slow.Implied, "width %d: closure and brute force disagree", width)
		t.Rows = append(t.Rows, Row{
			fmt.Sprint(width), fmt.Sprint(len(paths)),
			ms(fastT), ms(slowT), ratio, fmt.Sprint(fast.Implied == slow.Implied),
		})
	}
	return t, nil
}

// E9XNFCheck sweeps the XNF test cost (Corollary 1: cubic for simple
// DTDs).
func E9XNFCheck(opts Options) (*Table, error) {
	t := &Table{
		ID:     "E9",
		Title:  "Corollary 1: XNF test over simple DTDs",
		Claim:  "decidable in cubic time (growth exponent ≲ 3)",
		Header: Row{"chain depth", "paths(D)", "|Σ|", "check ms", "exponent"},
	}
	var prevPaths int
	var prevTime int64
	for _, depth := range []int{4, 8, 16, 32} {
		d := gen.ChainDTD(depth, 2)
		sigma := gen.ChainFDs(depth, 2)
		paths, err := d.Paths()
		if err != nil {
			return nil, err
		}
		spec := xnf.Spec{DTD: d, FDs: sigma}
		dur, err := timeIt(func() error {
			_, _, err := xnf.CheckOpts(spec, opts.Engine)
			return err
		})
		if err != nil {
			return nil, err
		}
		exp := growth(prevPaths, time.Duration(prevTime), len(paths), dur)
		t.Rows = append(t.Rows, Row{
			fmt.Sprint(depth), fmt.Sprint(len(paths)), fmt.Sprint(len(sigma)),
			ms(dur), exp,
		})
		prevPaths, prevTime = len(paths), int64(dur)
	}
	return t, nil
}

// E10Normalize runs the full decomposition on the chain family
// (Theorem 2 / Proposition 6: terminates in XNF, anomalous paths
// strictly decrease).
func E10Normalize() (*Table, error) {
	t := &Table{
		ID:     "E10",
		Title:  "Theorem 2 / Proposition 6: the decomposition algorithm",
		Claim:  "terminates with an XNF result; each step removes an anomalous path",
		Header: Row{"chain depth", "anomalies before", "steps", "result in XNF", "normalize ms"},
	}
	for _, depth := range []int{2, 4, 8, 12} {
		spec := xnf.Spec{DTD: gen.ChainDTD(depth, 2), FDs: gen.ChainFDs(depth, 2)}
		anomalies, err := xnf.Anomalies(spec)
		if err != nil {
			return nil, err
		}
		var steps []xnf.Step
		var out xnf.Spec
		dur, err := timeIt(func() error {
			var err error
			out, steps, err = xnf.Normalize(spec, xnf.Options{})
			return err
		})
		if err != nil {
			return nil, err
		}
		ok, _, err := xnf.Check(out)
		if err != nil {
			return nil, err
		}
		t.Expect(ok, "E10 depth %d: normalization result is not in XNF", depth)
		t.Rows = append(t.Rows, Row{
			fmt.Sprint(depth), fmt.Sprint(len(anomalies)),
			fmt.Sprint(len(steps)), fmt.Sprint(ok), ms(dur),
		})
	}
	return t, nil
}

// E11SimplifiedVsFull is the Proposition 7 ablation: the
// implication-free variant also reaches XNF but may add more element
// types than the full algorithm (which can move attributes instead).
func E11SimplifiedVsFull() (*Table, error) {
	t := &Table{
		ID:     "E11",
		Title:  "Proposition 7 ablation: implication-free variant vs full algorithm",
		Claim:  "both reach XNF; the simplified variant may produce a less economical schema",
		Header: Row{"spec", "full: steps/new elems", "simplified: steps/new elems", "both XNF"},
	}
	specs := []struct {
		name string
		load func() (xnf.Spec, error)
	}{
		{"university", CoursesSpec},
		{"dblp", DBLPSpec},
	}
	for _, sp := range specs {
		s, err := sp.load()
		if err != nil {
			return nil, err
		}
		full, fullSteps, err := xnf.Normalize(s, xnf.Options{})
		if err != nil {
			return nil, err
		}
		simp, simpSteps, err := xnf.Normalize(s, xnf.Options{Simplified: true})
		if err != nil {
			return nil, err
		}
		okFull, _, err := xnf.Check(full)
		if err != nil {
			return nil, err
		}
		okSimp, _, err := xnf.Check(simp)
		if err != nil {
			return nil, err
		}
		t.Expect(okFull && okSimp, "E11 %s: a variant failed to reach XNF", sp.name)
		t.Rows = append(t.Rows, Row{
			sp.name,
			fmt.Sprintf("%d / %d", len(fullSteps), full.DTD.Len()-s.DTD.Len()),
			fmt.Sprintf("%d / %d", len(simpSteps), simp.DTD.Len()-s.DTD.Len()),
			fmt.Sprint(okFull && okSimp),
		})
	}
	return t, nil
}

// E12Lossless verifies Proposition 8 constructively: documents round
// trip through the normalization's document transformation.
func E12Lossless() (*Table, error) {
	t := &Table{
		ID:     "E12",
		Title:  "Proposition 8: lossless decompositions",
		Claim:  "transform + reconstruct returns the original document (up to ≡)",
		Header: Row{"family", "size (nodes)", "transform ms", "roundtrip exact"},
	}
	// University family.
	uniSpec, err := CoursesSpec()
	if err != nil {
		return nil, err
	}
	_, uniSteps, err := xnf.Normalize(uniSpec, xnf.Options{})
	if err != nil {
		return nil, err
	}
	dblpSpec, err := DBLPSpec()
	if err != nil {
		return nil, err
	}
	_, dblpSteps, err := xnf.Normalize(dblpSpec, xnf.Options{})
	if err != nil {
		return nil, err
	}
	cases := []struct {
		family string
		doc    *xmltree.Tree
		steps  []xnf.Step
	}{
		{"university", gen.University(20, 10, 100, 30, rand.New(rand.NewSource(5))), uniSteps},
		{"university", gen.University(100, 20, 800, 200, rand.New(rand.NewSource(6))), uniSteps},
		{"dblp", gen.DBLP(5, 10, 10, rand.New(rand.NewSource(7))), dblpSteps},
		{"dblp", gen.DBLP(10, 25, 20, rand.New(rand.NewSource(8))), dblpSteps},
	}
	for _, c := range cases {
		original := c.doc.Clone()
		var migrated *xmltree.Tree
		dur, err := timeIt(func() error {
			migrated = c.doc.Clone()
			return xnf.ApplySteps(migrated, c.steps)
		})
		if err != nil {
			return nil, err
		}
		if err := xnf.InvertSteps(migrated, c.steps); err != nil {
			return nil, err
		}
		t.Expect(xmltree.Isomorphic(migrated, original), "E12 %s (%d nodes): round trip is lossy", c.family, original.Size())
		t.Rows = append(t.Rows, Row{
			c.family, fmt.Sprint(original.Size()), ms(dur),
			fmt.Sprint(xmltree.Isomorphic(migrated, original)),
		})
	}
	return t, nil
}

// E13EbXML classifies the ebXML Business Process Specification Schema
// (Figure 5) and the FAQ content model the paper contrasts it with.
func E13EbXML() (*Table, error) {
	ebText, err := paperdata.Read("ebxml.dtd")
	if err != nil {
		return nil, err
	}
	eb, err := dtd.Parse(ebText)
	if err != nil {
		return nil, err
	}
	faq, err := dtd.Parse(`
<!ELEMENT faq (section*)>
<!ELEMENT section (logo*, title, (qna+ | q+ | (p | div | subsection)+))>
<!ELEMENT logo EMPTY>
<!ELEMENT title EMPTY>
<!ELEMENT qna EMPTY>
<!ELEMENT q EMPTY>
<!ELEMENT p EMPTY>
<!ELEMENT div EMPTY>
<!ELEMENT subsection EMPTY>`)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E13",
		Title:  "Figure 5: classifying real DTDs",
		Claim:  "the ebXML BPSS is a simple DTD; the FAQ content model is not (not even disjunctive)",
		Header: Row{"DTD", "simple", "disjunctive", "relational heuristic"},
	}
	for _, c := range []struct {
		name string
		d    *dtd.DTD
	}{{"ebXML BPSS", eb}, {"FAQ (QAML)", faq}} {
		t.Rows = append(t.Rows, Row{
			c.name,
			fmt.Sprint(c.d.IsSimple()),
			fmt.Sprint(c.d.IsDisjunctive()),
			c.d.RelationalHeuristic().String(),
		})
	}
	return t, nil
}

// E14Redundancy sweeps redundancy growth with document size on the
// university family (Section 1's motivation): redundancy grows linearly
// with enrollment before normalization and is identically zero after.
func E14Redundancy() (*Table, error) {
	spec, err := CoursesSpec()
	if err != nil {
		return nil, err
	}
	out, steps, err := xnf.Normalize(spec, xnf.Options{})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E14",
		Title:  "Redundancy growth (Section 1 motivation)",
		Claim:  "name copies grow with enrollments; the normalized design stores each name once per student group",
		Header: Row{"enrollments", "name values stored", "redundant before", "redundant after"},
	}
	for _, size := range []struct{ c, s int }{{5, 4}, {20, 10}, {80, 20}, {160, 40}} {
		rng := rand.New(rand.NewSource(21))
		doc := gen.University(size.c, size.s, size.c*size.s/3+1, 10, rng)
		before, err := xnf.MeasureRedundancy(spec, doc)
		if err != nil {
			return nil, err
		}
		migrated := doc.Clone()
		if err := xnf.ApplySteps(migrated, steps); err != nil {
			return nil, err
		}
		after, err := xnf.MeasureRedundancy(out, migrated)
		if err != nil {
			return nil, err
		}
		occ := 0
		if len(before.PerFD) > 0 {
			occ = before.PerFD[0].Occurrences
		}
		t.Expect(after.Redundant == 0, "E14 %d enrollments: %d redundant values remain", size.c*size.s, after.Redundant)
		t.Rows = append(t.Rows, Row{
			fmt.Sprint(size.c * size.s), fmt.Sprint(occ),
			fmt.Sprint(before.Redundant), fmt.Sprint(after.Redundant),
		})
	}
	return t, nil
}

// E16EngineAblation runs the suite's heavy workloads on one worker and
// on the configured worker pool (-parallel, default GOMAXPROCS). The
// implied bits, verdicts and normalized schemas must agree between
// the two: the fan-out changes wall time, never an answer.
func E16EngineAblation(opts Options) (*Table, error) {
	w := opts.Engine.WorkerCount()
	configs := [2]engine.Options{{Workers: 1}, {Workers: w}}
	t := &Table{
		ID:     "E16",
		Title:  "Engine ablation: worker fan-out",
		Claim:  fmt.Sprintf("identical answers at 1 and at %d workers", w),
		Header: Row{"workload", "1 worker ms", fmt.Sprintf("%d workers ms", w), "speedup", "agree"},
	}
	add := func(name string, times [2]time.Duration, agree bool) {
		speed := "-"
		if times[1] > 0 {
			speed = fmt.Sprintf("%.1fx", float64(times[0])/float64(times[1]))
		}
		t.Expect(agree, "E16 %s: configurations disagree", name)
		t.Rows = append(t.Rows, Row{name, ms(times[0]), ms(times[1]), speed, fmt.Sprint(agree)})
	}

	// Workload 1: the anomaly-scan implication batch on a deep chain —
	// every σ ∈ Σ plus its parent-element target, as the XNF check
	// issues them, fanned across the engine's pool.
	{
		const depth = 32
		d := gen.ChainDTD(depth, 2)
		sigma := gen.ChainFDs(depth, 2)
		var qs []xfd.FD
		for _, f := range sigma {
			for _, s := range f.SingleRHS() {
				qs = append(qs, s, xfd.FD{LHS: s.LHS, RHS: []dtd.Path{s.RHS[0].Parent()}})
			}
		}
		var answers [2][]bool
		var times [2]time.Duration
		for i, eo := range configs {
			eng, err := engine.New(d, sigma, eo)
			if err != nil {
				return nil, err
			}
			answers[i] = make([]bool, len(qs))
			times[i], err = timeIt(func() error {
				return eng.ForEach(len(qs), func(j int) error {
					ans, err := eng.Implies(qs[j])
					answers[i][j] = ans.Implied
					return err
				})
			})
			if err != nil {
				return nil, err
			}
		}
		add(fmt.Sprintf("implication batch ×%d (chain %d)", len(qs), depth),
			times, slices.Equal(answers[0], answers[1]))
	}

	// Workload 2: the bounded semantic checker on the widest E8 spec —
	// the per-shape searches fan across the pool.
	{
		d := gen.WideDTD(3, 2)
		sigma := []xfd.FD{{
			LHS: []dtd.Path{{"r", "c0", "@a0_0"}},
			RHS: []dtd.Path{{"r", "c0", "@a0_1"}},
		}}
		q := xfd.FD{
			LHS: []dtd.Path{{"r", "c0", "@a0_1"}},
			RHS: []dtd.Path{{"r", "c0", "@a0_0"}},
		}
		bounds := implication.Bounds{MaxValuePositions: 12, MaxTrees: 5000000}
		var answers [2]implication.Answer
		var times [2]time.Duration
		for i, eo := range configs {
			var err error
			times[i], err = timeIt(func() error {
				var err error
				answers[i], err = implication.BruteForceParallel(d, sigma, q, bounds, eo.Workers)
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		add("brute force (wide 3)", times, answers[0].Implied == answers[1].Implied)
	}

	// Workload 3: a full XNF check, whose anomaly scan fans across the
	// pool.
	{
		const depth = 16
		spec := xnf.Spec{DTD: gen.ChainDTD(depth, 2), FDs: gen.ChainFDs(depth, 2)}
		var oks [2]bool
		var times [2]time.Duration
		for i, eo := range configs {
			var err error
			times[i], err = timeIt(func() error {
				var err error
				oks[i], _, err = xnf.CheckOpts(spec, eo)
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		add(fmt.Sprintf("XNF check (chain %d)", depth), times, oks[0] == oks[1])
	}

	// Workload 4: the full decomposition algorithm.
	{
		const depth = 8
		spec := xnf.Spec{DTD: gen.ChainDTD(depth, 2), FDs: gen.ChainFDs(depth, 2)}
		var outs [2]xnf.Spec
		var nsteps [2]int
		var times [2]time.Duration
		for i, eo := range configs {
			var err error
			times[i], err = timeIt(func() error {
				out, steps, err := xnf.Normalize(spec, xnf.Options{Engine: eo})
				outs[i], nsteps[i] = out, len(steps)
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		add(fmt.Sprintf("normalize (chain %d)", depth), times,
			nsteps[0] == nsteps[1] && dtd.EquivalentModels(outs[0].DTD, outs[1].DTD))
	}
	return t, nil
}

// IDs lists the experiment identifiers in suite order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

var registry = []struct {
	id  string
	run func(opts Options) (*Table, error)
}{
	{"E1", func(Options) (*Table, error) { return E1University() }},
	{"E2", func(Options) (*Table, error) { return E2DBLP() }},
	{"E3", func(Options) (*Table, error) { return E3Tuples() }},
	{"E4", func(Options) (*Table, error) { return E4NNF(60) }},
	{"E5", func(Options) (*Table, error) { return E5BCNF(120) }},
	{"E6", E6ImplicationSimple},
	{"E7", E7Disjunctive},
	{"E8", E8BruteVsClosure},
	{"E9", E9XNFCheck},
	{"E10", func(Options) (*Table, error) { return E10Normalize() }},
	{"E11", func(Options) (*Table, error) { return E11SimplifiedVsFull() }},
	{"E12", func(Options) (*Table, error) { return E12Lossless() }},
	{"E13", func(Options) (*Table, error) { return E13EbXML() }},
	{"E14", func(Options) (*Table, error) { return E14Redundancy() }},
	{"E15", func(Options) (*Table, error) { return E15DesignStudies() }},
	{"E16", E16EngineAblation},
}

// Run executes the selected experiments in suite order with the given
// options. A nil or empty ids slice selects the whole suite; an unknown
// id is an error.
func Run(ids []string, opts Options) ([]*Table, error) {
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[strings.ToUpper(strings.TrimSpace(id))] = true
	}
	for id := range want {
		known := false
		for _, e := range registry {
			if e.id == id {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("bench: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
		}
	}
	var out []*Table
	for _, e := range registry {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		t, err := e.run(opts)
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
	return out, nil
}

// All runs every experiment with default options.
func All() ([]*Table, error) { return Run(nil, Options{}) }
