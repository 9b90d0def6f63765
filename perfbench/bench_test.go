package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the spawner of TestSmoke.
func TestMain(m *testing.M) {
	if os.Getenv(spawnerEnv) == "1" {
		if err := runSpawner(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestGeneratorsDeterministic(t *testing.T) {
	logs := func(seed int64) [][]byte {
		dir := t.TempDir()
		docs, err := writeLogDocs(dir, seed, 64<<10, 16)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, d := range docs {
			b, err := os.ReadFile(d.path)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
		return out
	}
	if a, b := logs(3), logs(3); !reflect.DeepEqual(a, b) {
		t.Error("log documents differ for one seed")
	}
	if a, b := logs(3), logs(4); bytes.Equal(a[0], b[0]) {
		t.Error("log documents do not depend on the seed")
	}

	for i := 0; i < 40; i++ {
		a, va := universityDoc(7, i)
		b, vb := universityDoc(7, i)
		if a != b || va != vb {
			t.Fatalf("corpus document %d differs for one seed", i)
		}
		if va != (i%corpusViolateEvery == corpusViolateEvery-1) {
			t.Fatalf("corpus document %d: violate=%v", i, va)
		}
	}
	if a, _ := universityDoc(7, 0); a == func() string { s, _ := universityDoc(8, 0); return s }() {
		t.Error("corpus documents do not depend on the seed")
	}

	d1, d2 := serveDoc(5, 1, 16), serveDoc(5, 1, 16)
	if !bytes.Equal(d1.body, d2.body) || !reflect.DeepEqual(d1.shared, d2.shared) {
		t.Error("hosted documents differ for one seed")
	}
	if len(d1.shared) == 0 {
		t.Error("hosted document has no shared students to rename")
	}
	scripts := func() [][]edit {
		m := &docModel{doc: &d1}
		rng := rand.New(rand.NewSource(9))
		var out [][]edit
		for i := 0; i < 20; i++ {
			out = append(out, m.script(rng))
		}
		return out
	}
	if a, b := scripts(), scripts(); !reflect.DeepEqual(a, b) {
		t.Error("transaction scripts differ for one seed")
	}
	if chainSpecText(7) != chainSpecText(7) {
		t.Error("chain spec is not deterministic")
	}
}

func TestScriptModel(t *testing.T) {
	d := serveDoc(5, 0, 16)
	m := &docModel{doc: &d}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		edits := m.script(rng)
		if len(edits) != scriptLines {
			t.Fatalf("script has %d lines", len(edits))
		}
		// Every renamed occurrence is in the broken list, every other name
		// edit restores the generated name.
		for _, e := range edits {
			if e.field != "name" {
				continue
			}
			restored := e.text == d.names[e.at]
			for _, b := range m.broken {
				if b == e.at && restored {
					t.Fatalf("restored %v is still listed as broken", e.at)
				}
			}
		}
	}
}

func TestOraclesCountFailures(t *testing.T) {
	t.Run("stream", func(t *testing.T) {
		d := logDoc{path: "log1.xml", violate: true}
		code, text := logExpect(true)
		o := newOutcome()
		streamOracle(o, d, invocation{exit: code, stdout: []byte(text)})
		streamOracle(o, d, invocation{exit: 0, stdout: []byte(text)})
		_, sat := logExpect(false)
		streamOracle(o, d, invocation{exit: code, stdout: []byte(sat)})
		if o.attempted != 3 || o.failed != 2 {
			t.Errorf("attempted %d, failed %d; want 3, 2", o.attempted, o.failed)
		}
	})
	t.Run("corpus", func(t *testing.T) {
		fd3 := "a.b -> a.c"
		sh := corpusShard{dir: "shard0", docs: []corpusDoc{{"d0.xml", false}, {"d1.xml", true}, {"d2.xml", false}}}
		lines := func(flip int) []byte {
			var b bytes.Buffer
			for i, d := range sh.docs {
				v := map[string]any{"doc": filepath.Join(sh.dir, d.name), "satisfied": !d.violate, "total": 3}
				if d.violate {
					v["violated"] = []map[string]string{{"fd": fd3}}
				}
				if i == flip {
					v["satisfied"] = d.violate
					delete(v, "violated")
				}
				line, _ := json.Marshal(v)
				b.Write(append(line, '\n'))
			}
			return b.Bytes()
		}
		o := newOutcome()
		corpusOracle(o, sh, 3, fd3, invocation{exit: 1, stdout: lines(-1)})
		if o.failed != 0 {
			t.Fatalf("correct sweep: %v", o.failures)
		}
		corpusOracle(o, sh, 3, fd3, invocation{exit: 1, stdout: lines(1)})
		if o.failed != 1 {
			t.Errorf("flipped verdict: failed %d, want 1", o.failed)
		}
		corpusOracle(o, sh, 3, fd3, invocation{exit: 0, stdout: lines(-1)})
		if o.failed != 2 {
			t.Errorf("wrong exit code: failed %d, want 2", o.failed)
		}
	})
	t.Run("serve", func(t *testing.T) {
		fd3 := "a.b -> a.c"
		d := servedDoc{name: "doc0"}
		m := &docModel{doc: &d, broken: []loc{{0, 0}}}
		violated := []byte(`{"doc":"doc0","seq":4,"satisfied":false,"total":3,"violated":[{"fd":"a.b -> a.c"}]}` + "\n")
		altered := []byte(`{"doc":"doc0","seq":4,"satisfied":true,"total":3}` + "\n")
		o := newOutcome()
		reportsAgree(o, m, 200, violated, 200, violated, 3, fd3)
		if o.failed != 0 {
			t.Fatalf("agreeing reports: %v", o.failures)
		}
		reportsAgree(o, m, 200, altered, 200, violated, 3, fd3)
		reportsAgree(o, m, 200, violated, 503, violated, 3, fd3)
		m.broken = nil
		reportsAgree(o, m, 200, violated, 200, violated, 3, fd3)
		if o.failed != 3 {
			t.Errorf("failed %d, want 3", o.failed)
		}
	})
	t.Run("analyze", func(t *testing.T) {
		s := specInput{name: "courses"}
		first := map[string][]byte{}
		o := newOutcome()
		analyzeOracle(o, s, invocation{exit: analyzeExit, stdout: []byte("report\n")}, first)
		analyzeOracle(o, s, invocation{exit: analyzeExit, stdout: []byte("report\n")}, first)
		if o.failed != 0 {
			t.Fatalf("identical runs: %v", o.failures)
		}
		analyzeOracle(o, s, invocation{exit: analyzeExit, stdout: []byte("altered\n")}, first)
		analyzeOracle(o, s, invocation{exit: 0, stdout: []byte("report\n")}, first)
		if o.failed != 2 {
			t.Errorf("failed %d, want 2", o.failed)
		}
	})
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50}, // overlaps span 2
		{ID: 4, Parent: 1, Start: 60, End: 70},
		{ID: 5, Parent: 4, Start: 61, End: 69},  // a grandchild: not the root's
		{ID: 6, Parent: 1, Start: 90, End: 120}, // runs past the parent
	}
	for id, want := range map[int]time.Duration{1: 40, 2: 20, 3: 30, 4: 2, 5: 8, 6: 30} {
		if got := selfTime(spans, id); got != want {
			t.Errorf("selfTime(%d) = %d, want %d", id, got, want)
		}
	}

	tr := newTracer("test")
	for _, durs := range [][3]time.Duration{{100, 70, 50}, {100, 110, 50}} {
		round := tr.begin("round", 0)
		for i, name := range []string{"outer", "middle", "inner"} {
			tr.add(name, round, 0, durs[i])
		}
		tr.end(round)
	}
	self := tr.roundSelfTimes([]string{"outer", "middle", "inner"})
	want := map[string][]time.Duration{
		"outer":  {30, 0}, // noise made the callee longer: clamped to 0
		"middle": {20, 60},
		"inner":  {50, 50},
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("roundSelfTimes = %v, want %v", self, want)
	}
}

func TestStats(t *testing.T) {
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, to exercise the sort
		}
		return xs
	}
	for _, c := range []struct {
		n         int
		value, pc float64
	}{
		{5, 5, 100}, // too few: the maximum
		{30, 20, 200.0 / 3},
		{100, 90, 90}, // p90 has exactly ten beyond it
		{2000, 1980, 99},
		{20000, 19980, 99.9},
	} {
		v, p := tail(seq(c.n))
		if v != c.value || p != c.pc {
			t.Errorf("tail of %d samples = %v at p%v, want %v at p%v", c.n, v, p, c.value, c.pc)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's workloads in step with the
// program's.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct{ Workloads []struct{ Name string } }
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var listed, have []string
	for _, w := range bj.Workloads {
		listed = append(listed, w.Name)
	}
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(listed, have) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %v", listed, have)
	}
}

// TestSmoke runs every workload end to end and traced on tiny inputs
// against an xnf binary built from this checkout: every run must pass
// its oracle, report every end-to-end metric BENCHMARK.json lists, and
// between them the traced runs must measure every per-layer metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds xnf and runs every workload")
	}
	bin := filepath.Join(t.TempDir(), "xnf")
	if out, err := exec.Command("go", "build", "-o", bin, "xmlnorm/cmd/xnf").CombinedOutput(); err != nil {
		t.Fatalf("build xnf: %v\n%s", err, out)
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bj, err := loadBenchmarkJSON(root)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := startSpawner()
	if err != nil {
		t.Fatal(err)
	}
	defer sp.close()
	perLayer := map[string]bool{}
	for _, d := range bj.PerLayer {
		perLayer[d.Name] = false
	}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			t.Run(fmt.Sprintf("%s/trace%d", w.name, trace), func(t *testing.T) {
				e := &env{xnf: bin, root: root, work: t.TempDir(), seed: 1, seconds: 300 * time.Millisecond, smoke: true, sp: sp}
				var out *outcome
				var err error
				if trace == 1 {
					out, err = w.trace(e, newTracer("smoke"))
				} else {
					out, err = w.run(e)
				}
				if err != nil {
					t.Fatal(err)
				}
				if out.attempted == 0 || out.failed != 0 {
					t.Fatalf("attempted %d, failed %d: %v", out.attempted, out.failed, out.failures)
				}
				if trace == 1 {
					for name := range out.metrics {
						if _, ok := perLayer[name]; !ok {
							t.Errorf("measured %s, which BENCHMARK.json does not list", name)
						}
						perLayer[name] = true
					}
					return
				}
				if len(out.metrics) != len(bj.EndToEnd) {
					t.Errorf("measured %d end-to-end metrics, BENCHMARK.json lists %d", len(out.metrics), len(bj.EndToEnd))
				}
				for _, d := range bj.EndToEnd {
					if v := out.metrics[d.Name]; v <= 0 {
						t.Errorf("%s = %v", d.Name, v)
					}
				}
			})
		}
	}
	for name, seen := range perLayer {
		if !seen {
			t.Errorf("no traced workload measures %s", name)
		}
	}
}
