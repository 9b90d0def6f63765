// Package engine is the concurrency-safe, memoizing front end to the
// implication deciders of internal/implication. Every expensive
// operation in the system — the XNF check (Corollary 1), the
// normalization loop (Theorem 2), and the benchmark sweeps — bottoms
// out in many independent implication queries over one specification
// (D, Σ). The engine amortizes them two ways:
//
//   - a per-spec answer cache keyed by the canonicalized query
//     (LHS path *set* + RHS path; Σ is fixed per engine), with
//     single-flight deduplication so concurrent identical queries are
//     computed once;
//   - a worker pool that fans out what callers hand it as a batch —
//     ForEach and ImpliesBatch index ranges (the XNF anomaly scan of
//     internal/xnf) and the per-shape searches of BruteForce — across
//     up to GOMAXPROCS goroutines. Single queries (Implies, Implied,
//     Trivial) run on the caller's goroutine: the candidate-key search
//     of internal/analyze asks them one at a time, in order, and
//     analyze.Analyze gets its parallelism by running its report's
//     four parts side by side over one engine.
//
// Both layers preserve answers exactly: a cached or parallel run
// returns the same Implied bit. Implies, ImpliesBatch and BruteForce
// hand every caller its own clone of a counterexample, so callers can
// never observe shared mutable state; Implied and Trivial return
// verdicts only and clone nothing.
//
// The package also hosts the process-global Registry sharing one
// engine and one compiled xfd.CheckerSet per canonicalized spec —
// what lets xnf serve and xnf check -r compile a schema once across
// any number of documents. ARCHITECTURE.md (layer 4) at the repo root
// places this in the larger picture.
package engine

import (
	"context"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/implication"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/pool"
	"xmlnorm/internal/xfd"
)

// Options configures an Engine. The zero value is the recommended
// production setting: GOMAXPROCS workers, caching on.
type Options struct {
	// Workers is the number of goroutines used by batch operations
	// (ForEach, ForEachCtx, ImpliesBatch) and by parallel brute-force
	// searches; single queries never fan out. Callers read it through
	// Engine.Workers to size their own fan-outs: analyze.Analyze runs
	// its four report parts concurrently when it is above one. 0 means
	// GOMAXPROCS; 1 disables parallelism.
	Workers int
	// NoCache disables answer memoization; every query recomputes the
	// closure. Intended for measurements and differential tests against
	// the sequential path.
	NoCache bool
}

// workers resolves the effective worker count.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// WorkerCount resolves the effective worker count: Workers when
// positive, GOMAXPROCS otherwise. Exported for callers that reuse the
// engine's options to size other fan-outs (e.g. sharded document
// checks).
func (o Options) WorkerCount() int { return o.workers() }

// Stats reports cache effectiveness counters.
type Stats struct {
	Hits   uint64 // queries answered from the cache
	Misses uint64 // queries that ran a decider
}

// Engine decides implication queries over one fixed (D, Σ) pair. All
// methods are safe for concurrent use.
type Engine struct {
	d     *dtd.DTD
	sigma []xfd.FD
	opts  Options

	imp *implication.Engine // closure engine over (D, Σ)

	trivOnce sync.Once // closure engine over (D, ∅), built on demand
	triv     *implication.Engine
	trivErr  error

	mu      sync.Mutex
	results map[string]*entry

	hits, misses atomic.Uint64
}

// entry is one single-flight cache slot: the first goroutine to claim
// it computes the answer inside once; later goroutines block on the
// same once and read the stored result.
type entry struct {
	once sync.Once
	ans  implication.Answer
	err  error
}

// New builds an engine for (D, Σ). Like implication.NewEngine it
// requires a non-recursive disjunctive DTD and rejects specifications
// whose branch-assignment count exceeds implication.MaxAssignments.
func New(d *dtd.DTD, sigma []xfd.FD, opts Options) (*Engine, error) {
	imp, err := implication.NewEngine(d, sigma)
	if err != nil {
		return nil, err
	}
	return &Engine{
		d:       d,
		sigma:   sigma,
		opts:    opts,
		imp:     imp,
		results: map[string]*entry{},
	}, nil
}

// DTD returns the engine's DTD.
func (e *Engine) DTD() *dtd.DTD { return e.d }

// Universe returns the interned path universe of the engine's DTD,
// shared with the underlying closure engine.
func (e *Engine) Universe() *paths.Universe { return e.imp.Universe() }

// Sigma returns the engine's FD set (not a copy; treat as read-only).
func (e *Engine) Sigma() []xfd.FD { return e.sigma }

// Workers returns the effective worker count for batch operations.
func (e *Engine) Workers() int { return e.opts.workers() }

// Stats returns a snapshot of the cache counters.
func (e *Engine) Stats() Stats {
	return Stats{Hits: e.hits.Load(), Misses: e.misses.Load()}
}

// Implies decides (D, Σ) ⊢ q, answering from the cache when possible.
// A query with several RHS paths is implied iff each single-RHS split
// is; splits are cached individually. A refutation's counterexample is
// the caller's own clone.
func (e *Engine) Implies(q xfd.FD) (implication.Answer, error) {
	ans, err := e.implies(q)
	return owned(ans), err
}

// Implied is Implies for callers that read only the verdict: same
// cache entries, same single-flight, same counters, but no
// counterexample is cloned.
func (e *Engine) Implied(q xfd.FD) (bool, error) {
	ans, err := e.implies(q)
	return ans.Implied, err
}

// implies is Implies without the clone: a refutation carries the
// cached counterexample itself, which callers must not let escape.
func (e *Engine) implies(q xfd.FD) (implication.Answer, error) {
	for _, single := range q.SingleRHS() {
		ans, err := e.single("", single, func() (implication.Answer, error) {
			return e.imp.Implies(single)
		})
		if err != nil {
			return implication.Answer{}, err
		}
		if !ans.Implied {
			return ans, nil
		}
	}
	return implication.Answer{Implied: true}, nil
}

// Trivial decides whether q follows from the DTD alone: (D, ∅) ⊢ q.
// The (D, ∅) closure engine is derived once, on first use, from the
// (D, Σ) one (implication.Engine.WithSigma: it shares the skeleton, the
// conformer and the branch assignments), and its answers share the
// cache under a separate key space.
func (e *Engine) Trivial(q xfd.FD) (bool, error) {
	e.trivOnce.Do(func() {
		e.triv, e.trivErr = e.imp.WithSigma(nil)
	})
	if e.trivErr != nil {
		return false, e.trivErr
	}
	for _, single := range q.SingleRHS() {
		ans, err := e.single("triv\x00", single, func() (implication.Answer, error) {
			return e.triv.Implies(single)
		})
		if err != nil {
			return false, err
		}
		if !ans.Implied {
			return false, nil
		}
	}
	return true, nil
}

// BruteForce decides (D, Σ) ⊢ q with the bounded semantic checker,
// fanning the per-shape value searches across the engine's workers.
// Answers are cached under a key that includes the bounds.
func (e *Engine) BruteForce(q xfd.FD, bounds implication.Bounds) (implication.Answer, error) {
	key := boundsKey(bounds)
	for _, single := range q.SingleRHS() {
		ans, err := e.single(key, single, func() (implication.Answer, error) {
			return implication.BruteForceParallel(e.d, e.sigma, single, bounds, e.opts.workers())
		})
		if err != nil {
			return implication.Answer{}, err
		}
		if !ans.Implied {
			return owned(ans), nil
		}
	}
	return implication.Answer{Implied: true}, nil
}

// single answers one single-RHS query through the cache (or directly
// when caching is off). space prefixes the key so closure, trivial and
// brute-force answers never collide. The answer's counterexample is
// the cached tree itself; exported methods that return it hand out a
// clone (owned).
func (e *Engine) single(space string, q xfd.FD, compute func() (implication.Answer, error)) (implication.Answer, error) {
	if e.opts.NoCache {
		return compute()
	}
	key := space + e.queryKey(q)
	e.mu.Lock()
	ent, ok := e.results[key]
	if !ok {
		ent = &entry{}
		e.results[key] = ent
	}
	e.mu.Unlock()
	hit := true
	ent.once.Do(func() {
		hit = false
		ent.ans, ent.err = compute()
	})
	if hit {
		e.hits.Add(1)
	} else {
		e.misses.Add(1)
	}
	if ent.err != nil {
		return implication.Answer{}, ent.err
	}
	return ent.ans, nil
}

// owned hands the caller its own counterexample tree — every caller,
// including the miss that computed it: the cached counterexample must
// never alias across goroutines or absorb a caller's mutations.
func owned(ans implication.Answer) implication.Answer {
	if ans.Counterexample != nil {
		ans.Counterexample = ans.Counterexample.Clone()
	}
	return ans
}

// ImpliesBatch decides a batch of queries across the worker pool,
// returning answers in input order. The first error aborts the batch.
func (e *Engine) ImpliesBatch(qs []xfd.FD) ([]implication.Answer, error) {
	out := make([]implication.Answer, len(qs))
	err := e.ForEach(len(qs), func(i int) error {
		ans, err := e.Implies(qs[i])
		if err != nil {
			return err
		}
		out[i] = ans
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ForEach runs fn(i) for every i in [0, n) across the engine's worker
// pool and returns the first error. With Workers == 1 the calls are
// strictly sequential and stop at the first error, matching a plain
// loop. fn must only write state owned by index i.
func (e *Engine) ForEach(n int, fn func(i int) error) error {
	return forEach(e.opts.workers(), n, fn)
}

// ForEachCtx is ForEach under a context: a cancellation stops new
// indices from being handed out and surfaces as the context's error
// (see pool.ForEachCtx). Servers use it to cut batch implication work
// loose on shutdown or request deadline.
func (e *Engine) ForEachCtx(ctx context.Context, n int, fn func(i int) error) error {
	return pool.ForEachCtx(ctx, e.opts.workers(), n, fn)
}

// queryKey canonicalizes a single-RHS query into its cache key. The
// fast path renders the query's interned bitset sides (xfd.FD.AppendKey
// against the closure engine's path universe): bitsets are sets, so
// LHS deduplication and order-independence come for free and the key is
// a few machine words instead of the concatenated path strings. Queries
// mentioning paths outside the universe can never be answered, but they
// are keyed anyway (by the sorted string rendering, under a distinct
// leading byte) so their errors are memoized like any other answer.
func (e *Engine) queryKey(q xfd.FD) string {
	if key, ok := q.AppendKey(e.imp.Universe(), nil); ok {
		return "\x01" + string(key)
	}
	return "\x02" + canonicalQuery(q)
}

// canonicalQuery renders a single-RHS query as its canonical string
// cache key: the LHS as a sorted, deduplicated path set (FD semantics
// is set-based, see xfd.FD.Equal), then the RHS path. It is the slow
// fallback of queryKey for queries that do not resolve in the universe.
func canonicalQuery(q xfd.FD) string {
	lhs := make([]string, 0, len(q.LHS))
	seen := map[string]bool{}
	for _, p := range q.LHS {
		s := p.String()
		if !seen[s] {
			seen[s] = true
			lhs = append(lhs, s)
		}
	}
	sort.Strings(lhs)
	var b strings.Builder
	for _, s := range lhs {
		b.WriteString(s)
		b.WriteByte('\x1f')
	}
	b.WriteString("->")
	b.WriteString(q.RHS[0].String())
	return b.String()
}

// boundsKey renders brute-force bounds into the cache-key prefix.
func boundsKey(b implication.Bounds) string {
	return "bf\x00" + strconv.Itoa(b.MaxRepeat) + "," +
		strconv.Itoa(b.MaxTrees) + "," + strconv.Itoa(b.MaxValuePositions) + "\x00"
}
