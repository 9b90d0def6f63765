// Package engine is the concurrency-safe front end to the implication
// deciders of internal/implication. Every expensive operation in the
// system — the XNF check (Corollary 1), the normalization loop
// (Theorem 2), schema analysis and the benchmark sweeps — bottoms out
// in many independent implication queries over one specification
// (D, Σ). The engine builds the closure engine for (D, Σ) once, and
// the one for (D, ∅) on first use, and offers a worker pool that fans
// out what callers hand it as an index range (ForEach: the XNF anomaly
// scan of internal/xnf) across up to GOMAXPROCS goroutines. Single
// queries (Implies, Implied, Trivial and their ID forms) run on the
// caller's goroutine: the candidate-key search of internal/analyze
// asks them one at a time, in order, and analyze.Analyze gets its
// parallelism by running its report's four parts side by side over
// one engine.
//
// A query crosses the engine as an LHS paths.Set and an RHS paths.ID
// of the DTD's universe (ImpliesIDs, ImpliedIDs, TrivialIDs). The
// xfd.FD forms resolve each single-RHS split once, through the closure
// engine's Resolve, and ask the ID form; a path outside the universe
// fails the query there, before anything is decided.
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
	"sync"
	"sync/atomic"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/implication"
	"xmlnorm/internal/paths"
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
	// Misses counts the single-RHS queries decided, over (D, Σ) and
	// (D, ∅) alike: one closure run each.
	Misses uint64
}

// Engine decides implication queries over one fixed (D, Σ) pair. All
// methods are safe for concurrent use.
type Engine struct {
	d    *dtd.DTD
	opts Options

	imp *implication.Engine // closure engine over (D, Σ)

	trivOnce sync.Once // closure engine over (D, ∅), built on demand
	triv     *implication.Engine
	trivErr  error

	queries atomic.Uint64
}

// New builds an engine for (D, Σ). Like implication.NewEngine it
// requires a non-recursive disjunctive DTD and rejects specifications
// whose branch-assignment count exceeds implication.MaxAssignments.
func New(d *dtd.DTD, sigma []xfd.FD, opts Options) (*Engine, error) {
	imp, err := implication.NewEngine(d, sigma)
	if err != nil {
		return nil, err
	}
	return &Engine{d: d, opts: opts, imp: imp}, nil
}

// DTD returns the engine's DTD.
func (e *Engine) DTD() *dtd.DTD { return e.d }

// Universe returns the interned path universe of the engine's DTD,
// shared with the underlying closure engine.
func (e *Engine) Universe() *paths.Universe { return e.imp.Universe() }

// Workers returns the effective worker count of ForEach.
func (e *Engine) Workers() int { return e.opts.WorkerCount() }

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats { return Stats{Misses: e.queries.Load()} }

// Implies decides (D, Σ) ⊢ q. A query with several RHS paths is
// implied iff each single-RHS split is; a refutation carries the first
// refuted split's counterexample.
func (e *Engine) Implies(q xfd.FD) (implication.Answer, error) {
	return e.ask(q, e.ImpliesIDs)
}

// Implied is Implies for callers that read only the verdict.
func (e *Engine) Implied(q xfd.FD) (bool, error) {
	ans, err := e.Implies(q)
	return ans.Implied, err
}

// Trivial decides whether q follows from the DTD alone: (D, ∅) ⊢ q.
func (e *Engine) Trivial(q xfd.FD) (bool, error) {
	ans, err := e.ask(q, e.trivial)
	return ans.Implied, err
}

// ImpliesIDs decides (D, Σ) ⊢ lhs → rhs for paths of the engine's
// universe. lhs is only read.
func (e *Engine) ImpliesIDs(lhs paths.Set, rhs paths.ID) (implication.Answer, error) {
	e.queries.Add(1)
	return e.imp.ImpliesIDs(lhs, rhs), nil
}

// ImpliedIDs is ImpliesIDs for callers that read only the verdict.
func (e *Engine) ImpliedIDs(lhs paths.Set, rhs paths.ID) (bool, error) {
	ans, err := e.ImpliesIDs(lhs, rhs)
	return ans.Implied, err
}

// TrivialIDs decides (D, ∅) ⊢ lhs → rhs for paths of the engine's
// universe.
func (e *Engine) TrivialIDs(lhs paths.Set, rhs paths.ID) (bool, error) {
	ans, err := e.trivial(lhs, rhs)
	return ans.Implied, err
}

// ask answers q one single-RHS split at a time through decide,
// stopping at the first refutation. Each split is resolved in the
// universe first, so a path outside it fails q with the closure
// engine's error before anything is decided.
func (e *Engine) ask(q xfd.FD, decide func(paths.Set, paths.ID) (implication.Answer, error)) (implication.Answer, error) {
	for _, single := range q.SingleRHS() {
		lhs, rhs, err := e.imp.Resolve(single)
		if err != nil {
			return implication.Answer{}, err
		}
		ans, err := decide(lhs, rhs)
		if err != nil || !ans.Implied {
			return ans, err
		}
	}
	return implication.Answer{Implied: true}, nil
}

// trivial answers lhs → rhs over (D, ∅). The (D, ∅) closure engine is
// derived once, on first use, from the (D, Σ) one
// (implication.Engine.WithSigma: it shares the skeleton, the conformer
// and the branch assignments).
func (e *Engine) trivial(lhs paths.Set, rhs paths.ID) (implication.Answer, error) {
	e.trivOnce.Do(func() {
		e.triv, e.trivErr = e.imp.WithSigma(nil)
	})
	if e.trivErr != nil {
		return implication.Answer{}, e.trivErr
	}
	e.queries.Add(1)
	return e.triv.ImpliesIDs(lhs, rhs), nil
}

// ForEach runs fn(i) for every i in [0, n) across the engine's worker
// pool and returns the first error. With Workers == 1 the calls are
// strictly sequential and stop at the first error, matching a plain
// loop. fn must only write state owned by index i.
func (e *Engine) ForEach(n int, fn func(i int) error) error {
	return pool.ForEach(e.Workers(), n, fn)
}
