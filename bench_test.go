package xmlnorm

// One benchmark per experiment of the paper, E1–E15 (see DESIGN.md's
// per-experiment index and EXPERIMENTS.md for a recorded run of the full
// tables via cmd/experiments), plus micro-benchmarks of the core
// operations. Custom metrics report the figures the tables are built
// from (tuple counts, redundancy, growth sizes). The engine ablation
// beyond the paper (E16) has no wrapper here: CI runs it once, with the
// rest of the suite, in the `cmd/experiments` gate step. End-to-end
// speed is measured by the repository benchmark in perfbench/.

import (
	"fmt"
	"math/rand"
	"testing"

	"xmlnorm/internal/bench"
	"xmlnorm/internal/dtd"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/implication"
	"xmlnorm/internal/nested"
	"xmlnorm/internal/paperdata"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/relational"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xnf"
)

func mustSpec(b *testing.B, load func() (xnf.Spec, error)) xnf.Spec {
	b.Helper()
	s, err := load()
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkE1_NormalizeUniversity: Example 1.1, the full normalization.
func BenchmarkE1_NormalizeUniversity(b *testing.B) {
	s := mustSpec(b, bench.CoursesSpec)
	for i := 0; i < b.N; i++ {
		if _, _, err := xnf.Normalize(s, xnf.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2_NormalizeDBLP: Example 1.2.
func BenchmarkE2_NormalizeDBLP(b *testing.B) {
	s := mustSpec(b, bench.DBLPSpec)
	for i := 0; i < b.N; i++ {
		if _, _, err := xnf.Normalize(s, xnf.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3_TupleExtraction: tuples_D(T) over a 100-enrollment
// document (Figure 2 / Section 3).
func BenchmarkE3_TupleExtraction(b *testing.B) {
	doc := gen.University(10, 10, 100, 10, rand.New(rand.NewSource(7)))
	s := mustSpec(b, bench.CoursesSpec)
	u, err := paths.New(s.DTD)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		ts, err := tuples.TuplesOf(u, doc, 0)
		if err != nil {
			b.Fatal(err)
		}
		n = len(ts)
	}
	b.ReportMetric(float64(n), "tuples")
}

// BenchmarkE4_NNFEquivalence: one Proposition 5 round (NNF check +
// encoding + XNF check).
func BenchmarkE4_NNFEquivalence(b *testing.B) {
	s := &nested.Schema{
		Name: "H1", Attrs: []string{"Country"},
		Children: []*nested.Schema{{
			Name: "H2", Attrs: []string{"State"},
			Children: []*nested.Schema{{Name: "H3", Attrs: []string{"City"}}},
		}},
	}
	fds := []relational.FD{relational.MustParseFD("State -> Country")}
	for i := 0; i < b.N; i++ {
		if _, _, err := nested.IsNNF(s, fds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5_BCNFEquivalence: one Proposition 4 round.
func BenchmarkE5_BCNFEquivalence(b *testing.B) {
	schema := relational.Schema{Name: "R", Attrs: relational.NewAttrSet("A", "B", "C", "D")}
	fds := []relational.FD{relational.MustParseFD("A -> B"), relational.MustParseFD("B -> C")}
	for i := 0; i < b.N; i++ {
		relational.IsBCNF(schema, fds)
		d, sigma, err := relational.EncodeXML(schema, fds)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := xnf.Check(xnf.Spec{DTD: d, FDs: sigma}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6_ImplicationSimple: Theorem 3 workload at several sizes;
// run with -bench 'E6' -benchtime to sweep. Sub-benchmarks carry the
// path count in the name so the quadratic shape is visible in the
// standard output.
func BenchmarkE6_ImplicationSimple(b *testing.B) {
	for _, depth := range []int{8, 16, 32, 64} {
		d := gen.ChainDTD(depth, 2)
		sigma := gen.ChainFDs(depth, 2)
		level := gen.ChainPaths(depth)[depth]
		q := xfd.FD{
			LHS: []dtd.Path{level.Child(fmt.Sprintf("@a%d_0", depth))},
			RHS: []dtd.Path{level.Child(fmt.Sprintf("@a%d_1", depth))},
		}
		paths, err := d.Paths()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("paths=%d", len(paths)), func(b *testing.B) {
			eng, err := implication.NewEngine(d, sigma)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := eng.Implies(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7_ImplicationDisjunctive: Theorem 4 workload over growing
// N_D.
func BenchmarkE7_ImplicationDisjunctive(b *testing.B) {
	for _, groups := range []int{1, 2, 3, 4} {
		d := gen.DisjunctiveDTD(groups, 2)
		sigma := []xfd.FD{{LHS: []dtd.Path{{"r", "p", "@k"}}, RHS: []dtd.Path{{"r", "p"}}}}
		q := xfd.FD{LHS: []dtd.Path{{"r", "p", "@k"}}, RHS: []dtd.Path{{"r", "p", "b0_0", "@v"}}}
		nd, err := d.ND()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("ND=%d", nd), func(b *testing.B) {
			eng, err := implication.NewEngine(d, sigma)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := eng.Implies(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8_BruteForceVsClosure: the Theorem 5 baseline against the
// closure on the same query.
func BenchmarkE8_BruteForceVsClosure(b *testing.B) {
	d := gen.WideDTD(2, 2)
	sigma := []xfd.FD{{LHS: []dtd.Path{{"r", "c0", "@a0_0"}}, RHS: []dtd.Path{{"r", "c0", "@a0_1"}}}}
	q := xfd.FD{LHS: []dtd.Path{{"r", "c0", "@a0_1"}}, RHS: []dtd.Path{{"r", "c0", "@a0_0"}}}
	b.Run("closure", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := implication.Implies(d, sigma, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bruteforce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := implication.BruteForce(d, sigma, q, implication.Bounds{MaxValuePositions: 12, MaxTrees: 5000000}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE9_XNFCheck: Corollary 1 workload.
func BenchmarkE9_XNFCheck(b *testing.B) {
	for _, depth := range []int{8, 16, 32} {
		spec := xnf.Spec{DTD: gen.ChainDTD(depth, 2), FDs: gen.ChainFDs(depth, 2)}
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := xnf.Check(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE10_NormalizeRandom: the full decomposition on the chain
// family (Theorem 2).
func BenchmarkE10_NormalizeRandom(b *testing.B) {
	spec := xnf.Spec{DTD: gen.ChainDTD(6, 2), FDs: gen.ChainFDs(6, 2)}
	for i := 0; i < b.N; i++ {
		if _, _, err := xnf.Normalize(spec, xnf.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11_SimplifiedVsFull: Proposition 7 ablation.
func BenchmarkE11_SimplifiedVsFull(b *testing.B) {
	s := mustSpec(b, bench.CoursesSpec)
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := xnf.Normalize(s, xnf.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("simplified", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := xnf.Normalize(s, xnf.Options{Simplified: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE12_Lossless: document transformation + reconstruction round
// trip (Proposition 8).
func BenchmarkE12_Lossless(b *testing.B) {
	s := mustSpec(b, bench.CoursesSpec)
	_, steps, err := xnf.Normalize(s, xnf.Options{})
	if err != nil {
		b.Fatal(err)
	}
	doc := gen.University(50, 10, 250, 60, rand.New(rand.NewSource(3)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := doc.Clone()
		if err := xnf.ApplySteps(work, steps); err != nil {
			b.Fatal(err)
		}
		if err := xnf.InvertSteps(work, steps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13_ClassifyEbXML: Figure 5 classification.
func BenchmarkE13_ClassifyEbXML(b *testing.B) {
	text := paperdata.MustRead("ebxml.dtd")
	d, err := dtd.Parse(text)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if !d.IsSimple() {
			b.Fatal("ebXML must classify simple")
		}
	}
}

// BenchmarkE14_Redundancy: redundancy measurement over a large
// document.
func BenchmarkE14_Redundancy(b *testing.B) {
	s := mustSpec(b, bench.CoursesSpec)
	doc := gen.University(100, 20, 700, 150, rand.New(rand.NewSource(21)))
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		rep, err := xnf.MeasureRedundancy(s, doc)
		if err != nil {
			b.Fatal(err)
		}
		total = rep.Redundant
	}
	b.ReportMetric(float64(total), "redundant_values")
}

// --- core micro-benchmarks ---

func BenchmarkParseDTD(b *testing.B) {
	text := paperdata.MustRead("courses.dtd")
	for i := 0; i < b.N; i++ {
		if _, err := dtd.Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseDocument(b *testing.B) {
	text := paperdata.MustRead("courses.xml")
	for i := 0; i < b.N; i++ {
		if _, err := ParseDocument(text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConformance(b *testing.B) {
	d, err := dtd.Parse(paperdata.MustRead("courses.dtd"))
	if err != nil {
		b.Fatal(err)
	}
	doc := gen.University(100, 20, 700, 150, rand.New(rand.NewSource(2)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Conforms(doc, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFDSatisfaction(b *testing.B) {
	doc := gen.University(100, 20, 700, 150, rand.New(rand.NewSource(2)))
	f := xfd.MustParse("courses.course.taken_by.student.@sno -> courses.course.taken_by.student.name.S")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !xfd.Satisfies(doc, f) {
			b.Fatal("generated document must satisfy FD3")
		}
	}
}

// BenchmarkE15_DesignStudies: the real-world design-study pipeline.
func BenchmarkE15_DesignStudies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E15DesignStudies(); err != nil {
			b.Fatal(err)
		}
	}
}
