// Command experiments runs the experiment suite — one table per
// figure, example, proposition and theorem of the paper (see DESIGN.md's
// per-experiment index) — and prints the tables. EXPERIMENTS.md records
// a reference run with the paper-vs-measured comparison.
//
// Usage:
//
//	experiments [-parallel N] [-cache=BOOL]            run everything
//	experiments [-parallel N] [-cache=BOOL] E6 E9      run selected experiments
//	experiments -json out.json E18                     also write the tables as JSON
//
// -parallel sets the implication-engine worker count (0 = GOMAXPROCS)
// and -cache toggles its closure cache; both feed the engine-backed
// experiments E6–E9 and E16. -json additionally writes the result
// tables to a file as a JSON array (CI's bench job runs each of E18–E24
// once this way and uploads the BENCH_<name>.json files). The process
// exits nonzero when any table reports a MISMATCH between the paper's
// claim and the measured outcome, so CI can gate on the suite.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"xmlnorm/internal/bench"
	"xmlnorm/internal/engine"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	parallel := fs.Int("parallel", 0, "engine worker count (0 = GOMAXPROCS)")
	cache := fs.Bool("cache", true, "enable the engine's implication cache")
	jsonOut := fs.String("json", "", "also write the result tables to this file as JSON")
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	opts := bench.Options{Engine: engine.Options{Workers: *parallel, NoCache: !*cache}}
	tables, err := bench.Run(fs.Args(), opts)
	if err != nil {
		return 1, err
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(tables, "", "  ")
		if err != nil {
			return 1, err
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return 1, err
		}
	}
	mismatches := 0
	for _, t := range tables {
		fmt.Println(t)
		mismatches += len(t.Mismatches)
	}
	if mismatches > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d mismatch(es) — see MISMATCH lines above\n", mismatches)
		return 1, nil
	}
	return 0, nil
}
