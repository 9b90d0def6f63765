package analyze

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/engine"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xnf"
)

func load(t testing.TB, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("../../testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// coursesSpec is Example 1.1 / 4.1 / 5.1: the university DTD with FD1,
// FD2, FD3.
func coursesSpec(t *testing.T) xnf.Spec {
	t.Helper()
	return xnf.Spec{
		DTD: dtd.MustParse(load(t, "courses.dtd")),
		FDs: []xfd.FD{
			xfd.MustParse("courses.course.@cno -> courses.course"),
			xfd.MustParse("courses.course, courses.course.taken_by.student.@sno -> courses.course.taken_by.student"),
			xfd.MustParse("courses.course.taken_by.student.@sno -> courses.course.taken_by.student.name.S"),
		},
	}
}

// TestAnalyzeCourses exercises the whole report on the paper's running
// example: keys found, cover classified, the FD3 anomaly diagnosed
// with a witness and a repair, and the flat image failing 4NF.
func TestAnalyzeCourses(t *testing.T) {
	rep, err := Analyze(coursesSpec(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Keys) == 0 {
		t.Fatal("no candidate keys found")
	}
	if rep.InXNF {
		t.Fatal("courses spec reported in XNF; FD3 is anomalous")
	}
	if len(rep.Diagnoses) != 1 {
		t.Fatalf("diagnoses = %d, want 1 (the FD3 anomaly)", len(rep.Diagnoses))
	}
	d := rep.Diagnoses[0]
	if !d.HasWitness {
		t.Error("diagnosis has no witness tuple pair")
	}
	if d.Explanation == "" || d.RepairDetail == "" {
		t.Errorf("incomplete diagnosis: %+v", d)
	}
	if got := len(rep.Cover.Sigma); got != 3 {
		t.Errorf("classified %d Σ splits, want 3", got)
	}
	for _, c := range rep.Cover.Sigma {
		if c.Class != ClassEssential {
			t.Errorf("split %s classified %s; the courses Σ is already minimal", c.FD, c.Describe())
		}
	}
	if rep.FourXNF.Satisfied {
		t.Error("flat image of the courses spec reported in 4NF; @cno ->> title.S should violate it")
	}
	if len(rep.FourXNF.Skipped) == 0 {
		t.Error("FD2 ranges over an element path and should be reported skipped")
	}
	if !rep.Negative() {
		t.Error("report should be negative (anomalies present)")
	}
}

// TestAnalyzeDeterministic: the report is identical across worker
// counts — the fan-outs only change the wall-clock, never an answer. Above one worker the report's parts
// share one engine from concurrent goroutines, which makes this the
// race detector's test of that sharing.
func TestAnalyzeDeterministic(t *testing.T) {
	specs := map[string]xnf.Spec{
		"courses": coursesSpec(t),
		"dblp":    loadSpec(t, "dblp.spec"),
		"chain-8": {DTD: gen.ChainDTD(8, 2), FDs: gen.ChainFDs(8, 2)},
	}
	configs := []engine.Options{
		{Workers: 1},
		{Workers: 2},
		{Workers: 8},
		{Workers: 4},
	}
	for name, s := range specs {
		var base []string
		for _, eo := range configs {
			rep, err := Analyze(s, Options{Engine: eo})
			if err != nil {
				t.Fatal(err)
			}
			// Witness documents and tuples vary in in-memory identity;
			// compare the rendered facts.
			got := renderFacts(rep)
			if base == nil {
				base = got
				continue
			}
			if !reflect.DeepEqual(got, base) {
				t.Errorf("%s, config %+v: report facts differ:\n got %v\nwant %v", name, eo, got, base)
			}
		}
	}
}

// TestQueryCounts pins the implication queries the engine-backed
// parts decide, one closure run each (engine.Stats.Misses); no query
// is answered without one, so Hits stays 0. The diagnosis path that
// perfbench traces — the anomaly scan, then each anomaly's
// minimization, on one worker — decides 174 queries over courses,
// dblp, chain-7 and chain-18. On chain-18, the key search, the
// diagnosis and the 4XNF image decide 1,232, 121 and 36 queries at
// every worker count, though they share one engine in report order as
// Analyze's parts do: no part's answers come from another's work.
func TestQueryCounts(t *testing.T) {
	var traced uint64
	for _, name := range []string{"courses.spec", "dblp.spec", "chain7.spec", "chain18.spec"} {
		s := loadSpec(t, name)
		eng, err := engine.New(s.DTD, s.FDs, engine.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		anomalies, err := xnf.AnomaliesWith(eng, s.FDs)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range anomalies {
			if _, err := xnf.MinimizeAnomaly(eng, a.FD); err != nil {
				t.Fatal(err)
			}
		}
		st := eng.Stats()
		if st.Hits != 0 {
			t.Errorf("%s: traced diagnosis path: stats %+v, want no hits", name, st)
		}
		traced += st.Misses
	}
	if traced != 174 {
		t.Errorf("traced diagnosis path decides %d queries, want 174", traced)
	}

	s := loadSpec(t, "chain18.spec")
	parts := []struct {
		name string
		want uint64
		run  func(*engine.Engine) error
	}{
		{"key search", 1232, func(eng *engine.Engine) error { _, err := candidateKeysWith(eng, DefaultMaxKeySize); return err }},
		{"diagnosis", 121, func(eng *engine.Engine) error { _, err := diagnoseWith(eng, s); return err }},
		{"image", 36, func(eng *engine.Engine) error { _, err := check4XNFWith(eng, s, nil); return err }},
	}
	for _, workers := range []int{1, 2, 8} {
		eng, err := engine.New(s.DTD, s.FDs, engine.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var before engine.Stats
		for _, p := range parts {
			if err := p.run(eng); err != nil {
				t.Fatal(err)
			}
			after := eng.Stats()
			got := engine.Stats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}
			if want := (engine.Stats{Misses: p.want}); got != want {
				t.Errorf("chain-18 %s, Workers %d: stats %+v, want %+v", p.name, workers, got, want)
			}
			before = after
		}
	}
}

func renderFacts(r *Report) []string {
	var out []string
	for _, k := range r.Keys {
		out = append(out, "key "+k.String())
	}
	for _, f := range r.Cover.FDs {
		out = append(out, "cover "+f.String())
	}
	for _, c := range r.Cover.Sigma {
		out = append(out, "sigma "+c.FD.String()+" "+c.Describe())
	}
	for _, d := range r.Diagnoses {
		out = append(out, "anomaly "+d.Anomaly.FD.String()+" min "+d.Minimal.String()+
			" repair "+d.Repair.String()+" "+d.RepairDetail)
	}
	out = append(out, "4xnf", renderBool(r.FourXNF.Satisfied))
	out = append(out, r.FourXNF.ImageFDs...)
	out = append(out, r.FourXNF.Violations...)
	out = append(out, r.FourXNF.Skipped...)
	return out
}

func renderBool(b bool) string {
	if b {
		return "t"
	}
	return "f"
}

// TestAnalyzeDBLP: the DBLP spec carries the paper's FD5 anomaly
// (issue → @year), and its minimal form is the one the cheap
// move-attribute step repairs — the fix of Example 1.2.
func TestAnalyzeDBLP(t *testing.T) {
	s := loadSpec(t, "dblp.spec")
	rep, err := Analyze(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.InXNF || len(rep.Diagnoses) != 1 {
		t.Fatalf("dblp spec: InXNF=%v, %d diagnoses; want the FD5 anomaly alone", rep.InXNF, len(rep.Diagnoses))
	}
	d := rep.Diagnoses[0]
	if d.Repair != xnf.StepMoveAttribute {
		t.Errorf("dblp repair = %s (%s), want move-attribute (the paper moves @year to issue)",
			d.Repair, d.RepairDetail)
	}
}

// loadSpec reads a testdata "DTD %% FDs" spec file.
func loadSpec(t testing.TB, name string) xnf.Spec {
	t.Helper()
	text := load(t, name)
	parts := strings.SplitN(text, "\n%%\n", 2)
	s := xnf.Spec{DTD: dtd.MustParse(parts[0])}
	if len(parts) == 2 {
		fds, err := xfd.ParseSet(parts[1])
		if err != nil {
			t.Fatal(err)
		}
		s.FDs = fds
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// BenchmarkAnalyze runs the whole analysis on the specs of the
// repository benchmark's analyze_specs workload: the paper's courses
// and dblp specs, and the chain family at depths 7 (whose 4XNF image
// sweeps 14 value columns) and 18 (whose key search, cover and
// certified refutations dominate), each with a fresh engine per pass.
func BenchmarkAnalyze(b *testing.B) {
	for _, c := range []struct {
		name string
		spec xnf.Spec
	}{
		{"courses", loadSpec(b, "courses.spec")},
		{"dblp", loadSpec(b, "dblp.spec")},
		{"chain-7", xnf.Spec{DTD: gen.ChainDTD(7, 2), FDs: gen.ChainFDs(7, 2)}},
		{"chain-18", xnf.Spec{DTD: gen.ChainDTD(18, 2), FDs: gen.ChainFDs(18, 2)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(c.spec, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
