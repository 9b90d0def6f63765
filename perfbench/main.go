// Command perfbench is the repository benchmark. run.sh builds the xnf
// binary from the checkout and this program, then runs
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// from the checkout root. The program generates the workload's inputs
// from the seed, drives the built xnf binary for the given time, checks
// every output against an oracle, and prints one JSON object as the last
// line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics BENCHMARK.json
// lists, measured from outside the binary. Every workload reports all
// of them, each in its own unit of work: a throughput op is one MB
// checked (stream_log), one document checked (corpus_sweep), one HTTP
// request answered (serve_mixed) or one spec analysed (analyze_specs),
// and a latency op is one check invocation, one shard sweep, one request
// or one analyze pass (perfbench/MAP.json has the details). Every time
// is scaled to reference speed by calibrations around it, so that the
// host's drift cancels (calibrate.go). With
// --trace 1 the same inputs go through a separate, in-process run that
// calls each layer's public functions and records spans around those
// calls; the metrics are then the per-layer ones BENCHMARK.json lists.
// --smoke shrinks every input so that a whole workload runs in seconds.
//
// The lines before the result are for people: every metric by name and
// unit, the oracle's failures, and a provenance record. The provenance
// and the spans are also written under .bench_build/results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// env is what every workload needs: where the binary and the checkout
// are, where to put generated inputs, and how long to measure.
type env struct {
	xnf     string        // the built xnf binary
	root    string        // the checkout root (holds testdata/)
	work    string        // scratch directory for generated inputs
	seed    int64         // input seed
	seconds time.Duration // measurement budget
	smoke   bool          // tiny inputs
	sp      *spawner      // starts every xnf child
}

// xnfRun runs the xnf binary to completion through the spawner.
func (e *env) xnfRun(args ...string) (invocation, error) { return e.sp.run(e.xnf, args...) }

// outcome is one workload run: operation counts for the oracle, metric
// values by name, and provenance details.
type outcome struct {
	attempted, failed int
	failures          []string // the first few oracle failures, for stderr
	metrics           map[string]float64
	inputs            map[string]any // input sizes
	samples           map[string]any // sample counts and tail percentiles
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, inputs: map[string]any{}, samples: map[string]any{}}
}

// check counts one oracle verdict: ok, or a failure described by msg.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if ok {
		return
	}
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// workload is one benchmark workload: its end-to-end run and its traced
// per-layer run. Why each was chosen is in BENCHMARK.json and MAP.json.
type workload struct {
	name  string
	run   func(e *env) (*outcome, error)
	trace func(e *env, tr *tracer) (*outcome, error)
}

var workloads = []workload{
	{"stream_log", runStream, traceStream},
	{"corpus_sweep", runCorpus, traceCorpus},
	{"serve_mixed", runServe, traceServe},
	{"analyze_specs", runAnalyze, traceAnalyze},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// benchmarkJSON is the part of BENCHMARK.json the program reads: the
// metrics each kind of run must report, with their units.
type benchmarkJSON struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmarkJSON(root string) (benchmarkJSON, error) {
	var bj benchmarkJSON
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return bj, err
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		return bj, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bj, nil
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	if os.Getenv(spawnerEnv) == "1" {
		if err := runSpawner(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench spawner:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer probe instead of the end-to-end run")
	smoke := fs.Bool("smoke", false, "tiny inputs, for a quick end-to-end check")
	xnf := fs.String("xnf", filepath.Join(".bench_build", "bin", "xnf"), "the xnf binary under test")
	root := fs.String("root", ".", "checkout root")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	bin, err := filepath.Abs(*xnf)
	if err != nil {
		return err
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("xnf binary: %w", err)
	}
	rootAbs, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	bj, err := loadBenchmarkJSON(rootAbs)
	if err != nil {
		return err
	}
	// Start the spawner while this process is still small (see spawner.go).
	sp, err := startSpawner()
	if err != nil {
		return err
	}
	defer sp.close()
	buildDir := filepath.Join(rootAbs, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(buildDir, "work-"+w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	e := &env{
		xnf:     bin,
		root:    rootAbs,
		work:    work,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		smoke:   *smoke,
		sp:      sp,
	}
	var (
		out  *outcome
		tr   *tracer
		defs []metricDef
	)
	if *trace == 1 {
		tr = newTracer(fmt.Sprintf("%s-seed%d-%d", w.name, *seed, time.Now().UnixNano()))
		out, err = w.trace(e, tr)
		defs = bj.PerLayer
	} else {
		out, err = w.run(e)
		defs = bj.EndToEnd
	}
	if err != nil {
		return err
	}

	res := resultJSON{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok && *trace == 0 {
			return fmt.Errorf("workload %s did not measure %s", w.name, d.Name)
		}
		// A per-layer metric of a layer this workload does not reach
		// reads 0 (see MAP.json).
		res.Metrics[d.Name] = metricJSON{Value: v, Unit: d.Unit}
	}
	for name := range out.metrics {
		if _, ok := res.Metrics[name]; !ok {
			return fmt.Errorf("workload %s measured %s, which BENCHMARK.json does not list", w.name, name)
		}
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "perfbench: oracle:", f)
	}
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("%-40s %14d of %d\n", "failed", out.failed, out.attempted)

	prov := provenance(e, w, *trace, out)
	provLine, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Printf("provenance %s\n", provLine)
	if err := saveResults(buildDir, w.name, *seed, *trace, prov, res, tr); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
