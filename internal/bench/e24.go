package bench

// E24: the schema-analysis ablation, in two phases.
//
// Key phase: brute-force candidate-key search (is every minimal X ⊆
// paths(D) with X → p for all p a key?) decided two ways over the same
// layered enumeration — "baseline", a fresh uncached implication engine
// per candidate checked sequentially (what a naive script over `xnf
// implies` pays), and "memoized", the analyze subsystem's search: one
// memoized engine deciding the candidates in enumeration order, and
// verified counterexample documents kept so an in-memory tuple-table
// scan refutes later candidates without a closure run. Both must
// return bit-identical key lists; at the courses spec the memoized
// side must win ≥2x. Both sides run on one goroutine, so the memoized
// closure and the counterexample reuse carry that bound.
//
// Cover phase: the canonical cover and the full analysis report must
// be deterministic artifacts — xnf.MinimalCover renders to the same
// bytes across worker counts and cache settings, and analyze.Analyze
// reports identical keys/cover/classification/diagnoses/4XNF facts
// across {1 worker}, {8 workers}, {4 workers, no cache} — above one
// worker its four parts run concurrently over one shared engine.

import (
	"fmt"
	"strings"

	"xmlnorm/internal/analyze"
	"xmlnorm/internal/engine"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/xnf"
)

// e24KeysEqual compares two key lists for bit-identity of rendering.
func e24KeysEqual(a, b []analyze.Key) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

// e24Candidates counts the enumeration space searched at maxSize 2:
// singletons plus unordered pairs over paths(D).
func e24Candidates(s xnf.Spec) int {
	ps, err := s.DTD.Paths()
	if err != nil {
		return 0
	}
	n := len(ps)
	return n + n*(n-1)/2
}

// e24Facts renders every engine-independent fact of a report; the
// determinism gate compares these across engine configurations.
func e24Facts(rep *analyze.Report) string {
	var b strings.Builder
	for _, k := range rep.Keys {
		fmt.Fprintf(&b, "key %s\n", k)
	}
	for _, f := range rep.Cover.FDs {
		fmt.Fprintf(&b, "cover %s\n", f)
	}
	for _, c := range rep.Cover.Sigma {
		fmt.Fprintf(&b, "sigma %s: %s\n", c.FD, c.Describe())
	}
	fmt.Fprintf(&b, "xnf %v\n", rep.InXNF)
	for _, d := range rep.Diagnoses {
		fmt.Fprintf(&b, "diag %s -> %s repair %s\n", d.Minimal, d.Anomaly.Target, d.Repair)
	}
	fmt.Fprintf(&b, "4xnf %v %v\n", rep.FourXNF.Satisfied, rep.FourXNF.Violations)
	return b.String()
}

// E24SpecAnalysis runs both phases. Gates: memoized and baseline key
// lists are bit-identical on every spec; the memoized search wins ≥2x
// at the courses spec; the minimal cover renders to the same bytes
// under every engine configuration; and the full report's facts are
// identical across worker counts and cache settings.
func E24SpecAnalysis() (*Table, error) {
	t := &Table{
		ID:     "E24",
		Title:  "Spec analysis: memoized in-order candidate-key search vs naive baseline, and report determinism",
		Claim:  "one memoized engine + counterexample reuse beats a fresh-engine-per-candidate search ≥2x on the courses spec; keys, cover and report are bit-identical across engine configurations",
		Header: Row{"spec", "candidates", "keys", "baseline ms", "memoized ms", "speedup", "agree"},
	}

	courses, err := CoursesSpec()
	if err != nil {
		return nil, err
	}
	dblp, err := DBLPSpec()
	if err != nil {
		return nil, err
	}
	chain := xnf.Spec{DTD: gen.ChainDTD(8, 2), FDs: gen.ChainFDs(8, 2)}

	for _, sp := range []struct {
		name string
		spec xnf.Spec
		gate bool // the ≥2x speedup bound applies
	}{
		{"courses", courses, true},
		{"dblp", dblp, false},
		{"chain-8", chain, false},
	} {
		var base, memo []analyze.Key
		baseT, err := bestOf(3, 1, func() error {
			base, err = analyze.CandidateKeysBaseline(sp.spec, analyze.DefaultMaxKeySize)
			return err
		})
		if err != nil {
			return nil, err
		}
		memoT, err := bestOf(3, 1, func() error {
			memo, err = analyze.CandidateKeys(sp.spec, analyze.Options{})
			return err
		})
		if err != nil {
			return nil, err
		}
		agree := e24KeysEqual(base, memo)
		t.Expect(agree, "E24 %s: memoized and baseline key lists differ", sp.name)
		if sp.gate {
			t.Expect(baseT >= 2*memoT,
				"E24 %s: memoized speedup %.1fx over baseline, want >= 2x",
				sp.name, float64(baseT)/float64(memoT))
		}
		t.Rows = append(t.Rows, Row{
			sp.name, fmt.Sprint(e24Candidates(sp.spec)), fmt.Sprint(len(memo)),
			ms(baseT), ms(memoT), speedup(baseT, memoT), fmt.Sprint(agree),
		})
	}

	// Cover byte-stability across engine configurations. MinimalCover
	// takes no engine knobs itself, but its answers ride the global
	// implication machinery; rendering must not depend on run-to-run
	// scheduling either, so render repeatedly.
	var covers []string
	for i := 0; i < 3; i++ {
		cover, err := xnf.MinimalCover(courses)
		if err != nil {
			return nil, err
		}
		var lines []string
		for _, f := range cover {
			lines = append(lines, f.String())
		}
		covers = append(covers, strings.Join(lines, "\n"))
	}
	t.Expect(covers[0] == covers[1] && covers[1] == covers[2],
		"E24 cover: repeated MinimalCover runs render differently")

	// Full-report determinism across the engine matrix, both specs.
	configs := []engine.Options{
		{Workers: 1},
		{Workers: 8},
		{Workers: 4, NoCache: true},
	}
	for _, sp := range []struct {
		name string
		spec xnf.Spec
	}{{"courses", courses}, {"dblp", dblp}} {
		var facts []string
		for _, cfg := range configs {
			rep, err := analyze.Analyze(sp.spec, analyze.Options{Engine: cfg})
			if err != nil {
				return nil, err
			}
			facts = append(facts, e24Facts(rep))
		}
		same := facts[0] == facts[1] && facts[1] == facts[2]
		t.Expect(same, "E24 %s: report facts differ across engine configurations", sp.name)
		t.Rows = append(t.Rows, Row{
			sp.name + " report", fmt.Sprint(len(configs)) + " configs", "-",
			"-", "-", "-", fmt.Sprint(same),
		})
	}

	t.Notes = "baseline builds a fresh uncached implication engine per candidate; the memoized side shares one engine and reuses verified counterexample documents as an in-memory prefilter; both decide candidates in order on one goroutine, so the ≥2x bound at courses is the memoization's, not parallelism's; report rows gate determinism, not speed"
	return t, nil
}
