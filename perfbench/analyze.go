package main

// analyze_specs: one pass runs "xnf analyze" over testdata/courses.spec,
// testdata/dblp.spec, chain-7 and chain-18 ("xnfgen chain -depth N
// -attrs 2"), in a seeded order. The only workload on engine,
// implication, analyze, xnf and relational: chain-7 spends its time in
// the 4NF sweep of Check4XNF, chain-18 in key search and image
// implication.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"xmlnorm"
	"xmlnorm/internal/analyze"
	"xmlnorm/internal/engine"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xnf"
)

// specInput is one analysed spec.
type specInput struct {
	name string // metric suffix
	path string
	spec xmlnorm.Spec
}

// chainSpecText is what "xnfgen chain -depth depth -attrs 2" prints.
func chainSpecText(depth int) string {
	return gen.ChainDTD(depth, 2).String() + "%%\n" + xfd.FormatSet(gen.ChainFDs(depth, 2))
}

// analyzeInputs writes the chain specs and returns the four specs in
// the seed's pass order.
func analyzeInputs(e *env, o *outcome) ([]specInput, error) {
	depths := [2]int{7, 18}
	if e.smoke {
		depths = [2]int{3, 4}
	}
	specs := []specInput{
		{name: "courses", path: filepath.Join(e.root, "testdata", "courses.spec")},
		{name: "dblp", path: filepath.Join(e.root, "testdata", "dblp.spec")},
		{name: "chain7", path: filepath.Join(e.work, "chain7.spec")},
		{name: "chain18", path: filepath.Join(e.work, "chain18.spec")},
	}
	for i, d := range depths {
		if err := os.WriteFile(specs[2+i].path, []byte(chainSpecText(d)), 0o644); err != nil {
			return nil, err
		}
	}
	sizes := map[string]int{}
	for i := range specs {
		b, err := os.ReadFile(specs[i].path)
		if err != nil {
			return nil, err
		}
		if specs[i].spec, err = xmlnorm.ParseSpec(string(b)); err != nil {
			return nil, fmt.Errorf("%s: %w", specs[i].path, err)
		}
		sizes[specs[i].name] = len(b)
	}
	o.inputs["spec_bytes"] = sizes
	o.inputs["chain_depths"] = depths
	ordered := make([]specInput, len(specs))
	for i, j := range rand.New(rand.NewSource(e.seed)).Perm(len(specs)) {
		ordered[i] = specs[j]
	}
	return ordered, nil
}

// analyzeExit is the exit code every spec of the workload must give:
// none is in XNF (courses and dblp are the paper's examples, and the
// chain family carries FD3's pattern at every level), so all exit 1.
const analyzeExit = 1

// analyzeOracle checks one invocation against the spec's first output.
func analyzeOracle(o *outcome, s specInput, inv invocation, first map[string][]byte) {
	ref, seen := first[s.name]
	if !seen {
		first[s.name] = inv.stdout
		ref = inv.stdout
	}
	o.check(inv.exit == analyzeExit && len(inv.stdout) > 0 && bytes.Equal(inv.stdout, ref),
		"analyze %s: exit %d, %d output bytes (first run: %d)", s.name, inv.exit, len(inv.stdout), len(ref))
}

func runAnalyze(e *env) (*outcome, error) {
	o := newOutcome()
	specs, err := analyzeInputs(e, o)
	if err != nil {
		return nil, err
	}
	first := map[string][]byte{}
	err = cliRun(e, o, func(int) (pass invocation, work float64, err error) {
		for _, s := range specs {
			inv, err := e.xnfRun("analyze", s.path)
			if err != nil {
				return inv, 0, err
			}
			analyzeOracle(o, s, inv, first)
			pass.maxRSSMB = max(pass.maxRSSMB, inv.maxRSSMB)
			pass.wall += inv.wall
		}
		return pass, float64(len(specs)), nil
	})
	return o, err
}

func traceAnalyze(e *env, tr *tracer) (*outcome, error) {
	o := newOutcome()
	specs, err := analyzeInputs(e, o)
	if err != nil {
		return nil, err
	}
	opts := analyze.Options{}

	// Counts and the key oracle, once. The cache counters come from the
	// diagnosis path's shared engine (the anomaly scan, then minimizing
	// each anomaly), run on one worker so they repeat exactly.
	var hits, misses uint64
	for _, s := range specs {
		eng, err := engine.New(s.spec.DTD, s.spec.FDs, engine.Options{Workers: 1})
		if err != nil {
			return nil, err
		}
		anomalies, err := xnf.AnomaliesWith(eng, s.spec.FDs)
		if err != nil {
			return nil, err
		}
		for _, a := range anomalies {
			if _, err := xnf.MinimizeAnomaly(eng, a.FD); err != nil {
				return nil, err
			}
		}
		st := eng.Stats()
		hits, misses = hits+st.Hits, misses+st.Misses
		keys, err := analyze.CandidateKeys(s.spec, opts)
		if err != nil {
			return nil, err
		}
		base, err := analyze.CandidateKeysBaseline(s.spec, analyze.DefaultMaxKeySize)
		if err != nil {
			return nil, err
		}
		o.check(slices.EqualFunc(keys, base, func(a, b analyze.Key) bool { return a.String() == b.String() }),
			"%s: CandidateKeys %v differ from CandidateKeysBaseline %v", s.name, keys, base)
	}
	if hits+misses > 0 {
		o.metrics["engine.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	o.metrics["engine.queries"] = float64(hits + misses)

	first := map[string][]byte{}
	deadline := time.Now().Add(e.seconds)
	for r := 0; r < minRounds || time.Now().Before(deadline); r++ {
		round := tr.begin("round", 0)
		for _, s := range specs {
			steps := []struct {
				name string
				fn   func() error
			}{
				{"keys", func() error { _, err := analyze.CandidateKeys(s.spec, opts); return err }},
				{"cover", func() error { _, err := analyze.CanonicalCover(s.spec); return err }},
				{"diagnose", func() error { _, err := analyze.Diagnose(s.spec, opts); return err }},
				{"fourxnf", func() error { _, err := analyze.Check4XNF(s.spec, opts); return err }},
			}
			for _, st := range steps {
				tr.timed("analyze."+st.name+"."+s.name, round, func() { err = st.fn() })
				if err != nil {
					return nil, err
				}
			}
			tr.timed("analyze.Analyze."+s.name, round, func() { _, err = analyze.Analyze(s.spec, opts) })
			if err != nil {
				return nil, err
			}
			var inv invocation
			tr.timed("cmd.xnf."+s.name, round, func() { inv, err = e.xnfRun("analyze", s.path) })
			if err != nil {
				return nil, err
			}
			analyzeOracle(o, s, inv, first)
		}
		tr.end(round)
	}
	// The residual of a pass is the sum of its invocations' residuals.
	var residuals []time.Duration
	for _, s := range specs {
		self := tr.roundSelfTimes([]string{"cmd.xnf." + s.name, "analyze.Analyze." + s.name})
		for r, d := range self["cmd.xnf."+s.name] {
			if r == len(residuals) {
				residuals = append(residuals, 0)
			}
			residuals[r] += d
		}
	}
	for _, s := range specs {
		for _, stage := range []string{"keys", "cover", "diagnose", "fourxnf"} {
			o.metrics["analyze."+stage+"_s."+s.name] = secs(tr.medianDur("analyze." + stage + "." + s.name))
		}
	}
	o.metrics["cmd.residual_s"] = secs(medianOf(residuals))
	o.samples["rounds"] = len(residuals)
	return o, nil
}
