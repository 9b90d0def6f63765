// Package engine pairs the implication engine of internal/implication
// with a worker count. Every expensive operation in the system — the
// XNF check (Corollary 1), the normalization loop (Theorem 2), schema
// analysis and the benchmark sweeps — bottoms out in many independent
// implication queries over one specification (D, Σ). An Engine is the
// closure engine for (D, Σ), which decides, counts and certifies every
// query and answers (D, ∅) questions through the (D, ∅) engine it
// builds once, plus a worker pool that fans out what callers hand it
// as an index range (ForEach: the XNF anomaly scan of internal/xnf)
// across up to GOMAXPROCS goroutines. Single queries (Implies, Trivial
// and their ID forms, all promoted from implication.Engine) run on the
// caller's goroutine: the candidate-key search of internal/analyze
// asks them one at a time, in order, and analyze.Analyze gets its
// parallelism by running its report's four parts side by side over
// one engine.
//
// Every query is decided afresh by the closure, so the answer does not
// depend on the worker count or on what was asked before, and a
// refutation's counterexample is a new tree that belongs to its
// caller alone. No answer is memoized: across the XNF check, the
// normalization loop and xnf analyze, callers almost never repeat a
// query (EXPERIMENTS.md, "Engine speedup").
//
// The package also hosts the process-global registry of compiled
// xfd.CheckerSets (SharedCheckers), which lets xnf serve, xnf check -r
// and the distributed checker compile one Σ once across any number of
// documents. ARCHITECTURE.md (layer 4) at the repo root places this in
// the larger picture.
package engine

import (
	"xmlnorm/internal/dtd"
	"xmlnorm/internal/implication"
	"xmlnorm/internal/pool"
	"xmlnorm/internal/xfd"
)

// Options configures an Engine. The zero value is the recommended
// production setting: GOMAXPROCS workers.
type Options struct {
	// Workers is the number of goroutines ForEach uses; single queries
	// never fan out. Callers read it through Engine.Workers to size
	// their own fan-outs: analyze.Analyze runs its four report parts
	// concurrently when it is above one. 0 means GOMAXPROCS; 1 disables
	// parallelism.
	Workers int
}

// WorkerCount resolves the effective worker count: Workers when
// positive, GOMAXPROCS otherwise. Exported for callers that reuse the
// engine's options to size other fan-outs (e.g. sharded document
// checks).
func (o Options) WorkerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return pool.DefaultWorkers()
}

// Stats counts an engine's work.
type Stats struct {
	// Hits is always 0: the engine memoizes no answer. It stays
	// because perfbench's traced run still reads it.
	Hits uint64
	// Misses is implication.Engine.Queries: the single-RHS queries
	// decided over (D, Σ) and (D, ∅) alike, one closure run each.
	Misses uint64
}

// Engine is the closure engine over one fixed (D, Σ) pair with the
// worker count its fan-outs use. All methods are safe for concurrent
// use.
type Engine struct {
	*implication.Engine
	opts Options
}

// New builds an engine for (D, Σ). Like implication.NewEngine it
// requires a non-recursive disjunctive DTD and rejects specifications
// whose branch-assignment count exceeds implication.MaxAssignments.
func New(d *dtd.DTD, sigma []xfd.FD, opts Options) (*Engine, error) {
	imp, err := implication.NewEngine(d, sigma)
	if err != nil {
		return nil, err
	}
	return &Engine{Engine: imp, opts: opts}, nil
}

// Workers returns the effective worker count of ForEach.
func (e *Engine) Workers() int { return e.opts.WorkerCount() }

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats { return Stats{Misses: e.Queries()} }

// ForEach runs fn(i) for every i in [0, n) across the engine's worker
// pool and returns the first error. With Workers == 1 the calls are
// strictly sequential and stop at the first error, matching a plain
// loop. fn must only write state owned by index i.
func (e *Engine) ForEach(n int, fn func(i int) error) error {
	return pool.ForEach(e.Workers(), n, fn)
}
