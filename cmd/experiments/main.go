// Command experiments runs the experiment suite — one table per
// figure, example, proposition and theorem of the paper (see DESIGN.md's
// per-experiment index) — and prints the tables. EXPERIMENTS.md records
// a reference run with the paper-vs-measured comparison.
//
// Usage:
//
//	experiments [-parallel N] [-cache=BOOL]            run everything
//	experiments [-parallel N] [-cache=BOOL] E6 E9      run selected experiments
//
// -parallel sets the implication-engine worker count (0 = GOMAXPROCS;
// a negative count is an error) and -cache toggles its closure cache;
// both feed the engine-backed experiments E6–E9 and E16. The process
// exits nonzero when any table reports a MISMATCH between the paper's
// claim and the measured outcome, so CI can gate on the suite.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"xmlnorm/internal/bench"
	"xmlnorm/internal/engine"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// run parses args, runs the selected tables and prints them to stdout.
// It returns the exit code, or an error for a usage or harness failure.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	parallel := fs.Int("parallel", 0, "engine worker count (0 = GOMAXPROCS)")
	cache := fs.Bool("cache", true, "enable the engine's implication cache")
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	if *parallel < 0 {
		return 1, fmt.Errorf("-parallel %d: the worker count must be 0 (GOMAXPROCS) or positive", *parallel)
	}
	opts := bench.Options{Engine: engine.Options{Workers: *parallel, NoCache: !*cache}}
	tables, err := bench.Run(fs.Args(), opts)
	if err != nil {
		return 1, err
	}
	mismatches := 0
	for _, t := range tables {
		fmt.Fprintln(stdout, t)
		mismatches += len(t.Mismatches)
	}
	if mismatches > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d mismatch(es) — see MISMATCH lines above\n", mismatches)
		return 1, nil
	}
	return 0, nil
}
