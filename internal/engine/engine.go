// Package engine is the concurrency-safe, memoizing front end to the
// implication deciders of internal/implication. Every expensive
// operation in the system — the XNF check (Corollary 1), the
// normalization loop (Theorem 2), and the benchmark sweeps — bottoms
// out in many independent implication queries over one specification
// (D, Σ). The engine amortizes them two ways:
//
//   - a per-spec answer cache keyed by the query's path IDs in the
//     DTD's universe (the RHS ID and the LHS ID set's words; Σ is fixed
//     per engine), with single-flight deduplication so concurrent
//     identical queries are computed once;
//   - a worker pool that fans out what callers hand it as a batch —
//     ForEach and ImpliesBatch index ranges (the XNF anomaly scan of
//     internal/xnf) and the per-shape searches of BruteForce — across
//     up to GOMAXPROCS goroutines. Single queries (Implies, Implied,
//     Trivial and their ID forms) run on the caller's goroutine: the
//     candidate-key search of internal/analyze asks them one at a
//     time, in order, and analyze.Analyze gets its parallelism by
//     running its report's four parts side by side over one engine.
//
// A query crosses the engine as an LHS paths.Set and an RHS paths.ID
// of the DTD's universe (ImpliesIDs, ImpliedIDs, TrivialIDs). The
// xfd.FD forms resolve each single-RHS split once, through the closure
// engine's Resolve, and ask the ID form; a path outside the universe
// fails the query there, before the cache is touched.
//
// Both layers preserve answers exactly: a cached or parallel run
// returns the same Implied bit. Implies, ImpliesIDs, ImpliesBatch and
// BruteForce hand every caller its own clone of a counterexample, so
// callers can never observe shared mutable state; Implied, Trivial
// and their ID forms return verdicts only and clone nothing.
//
// The package also hosts the process-global Registry sharing one
// engine and one compiled xfd.CheckerSet per canonicalized spec —
// what lets xnf serve and xnf check -r compile a schema once across
// any number of documents. ARCHITECTURE.md (layer 4) at the repo root
// places this in the larger picture.
package engine

import (
	"context"
	"encoding/binary"
	"runtime"
	"strconv"
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
	ans, err := e.ask(q, e.implies)
	return owned(ans), err
}

// Implied is Implies for callers that read only the verdict: same
// cache entries, same single-flight, same counters, but no
// counterexample is cloned.
func (e *Engine) Implied(q xfd.FD) (bool, error) {
	ans, err := e.ask(q, e.implies)
	return ans.Implied, err
}

// Trivial decides whether q follows from the DTD alone: (D, ∅) ⊢ q.
func (e *Engine) Trivial(q xfd.FD) (bool, error) {
	ans, err := e.ask(q, e.trivial)
	return ans.Implied, err
}

// ImpliesIDs decides (D, Σ) ⊢ lhs → rhs for paths of the engine's
// universe, from the same cache entry as the equal Implies query. A
// refutation's counterexample is the caller's own clone. lhs is only
// read.
func (e *Engine) ImpliesIDs(lhs paths.Set, rhs paths.ID) (implication.Answer, error) {
	ans, err := e.implies(lhs, rhs)
	return owned(ans), err
}

// ImpliedIDs is ImpliesIDs for callers that read only the verdict.
func (e *Engine) ImpliedIDs(lhs paths.Set, rhs paths.ID) (bool, error) {
	ans, err := e.implies(lhs, rhs)
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
// engine's error and leaves the cache and its counters alone.
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

// implies answers lhs → rhs over (D, Σ) through the cache. A
// refutation carries the cached counterexample itself, which callers
// must not let escape.
func (e *Engine) implies(lhs paths.Set, rhs paths.ID) (implication.Answer, error) {
	return e.single(closureSpace, lhs, rhs, func() (implication.Answer, error) {
		return e.imp.ImpliesIDs(lhs, rhs), nil
	})
}

// trivial answers lhs → rhs over (D, ∅) through the cache. The (D, ∅)
// closure engine is derived once, on first use, from the (D, Σ) one
// (implication.Engine.WithSigma: it shares the skeleton, the conformer
// and the branch assignments), and its answers share the cache under
// their own key space.
func (e *Engine) trivial(lhs paths.Set, rhs paths.ID) (implication.Answer, error) {
	e.trivOnce.Do(func() {
		e.triv, e.trivErr = e.imp.WithSigma(nil)
	})
	if e.trivErr != nil {
		return implication.Answer{}, e.trivErr
	}
	return e.single(trivialSpace, lhs, rhs, func() (implication.Answer, error) {
		return e.triv.ImpliesIDs(lhs, rhs), nil
	})
}

// BruteForce decides (D, Σ) ⊢ q with the bounded semantic checker,
// fanning the per-shape value searches across the engine's workers.
// Answers are cached under a key that includes the bounds.
func (e *Engine) BruteForce(q xfd.FD, bounds implication.Bounds) (implication.Answer, error) {
	space := boundsKey(bounds)
	ans, err := e.ask(q, func(lhs paths.Set, rhs paths.ID) (implication.Answer, error) {
		single := xfd.FD{LHS: q.LHS, RHS: []dtd.Path{e.Universe().PathOf(rhs)}}
		return e.single(space, lhs, rhs, func() (implication.Answer, error) {
			return implication.BruteForceParallel(e.d, e.sigma, single, bounds, e.opts.workers())
		})
	})
	return owned(ans), err
}

// Key spaces of the cache: closure, trivial and brute-force answers
// (boundsKey, per bounds) never share a key.
const (
	closureSpace = "c"
	trivialSpace = "t"
)

// appendKey appends the cache key of the single-RHS query lhs → rhs in
// a key space: the space, the RHS ID, then the LHS set's words. A set
// has no order and no duplicates, so reordered or repeated LHS paths
// share one key.
func appendKey(dst []byte, space string, lhs paths.Set, rhs paths.ID) []byte {
	dst = binary.LittleEndian.AppendUint32(append(dst, space...), uint32(rhs))
	return lhs.AppendWords(dst)
}

// single answers one single-RHS query through the cache (or directly
// when caching is off). The answer's counterexample is the cached tree
// itself; exported methods that return it hand out a clone (owned).
func (e *Engine) single(space string, lhs paths.Set, rhs paths.ID, compute func() (implication.Answer, error)) (implication.Answer, error) {
	if e.opts.NoCache {
		return compute()
	}
	var buf [64]byte
	key := appendKey(buf[:0], space, lhs, rhs)
	e.mu.Lock()
	ent, ok := e.results[string(key)]
	if !ok {
		ent = &entry{}
		e.results[string(key)] = ent
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
	return pool.ForEach(e.opts.workers(), n, fn)
}

// ForEachCtx is ForEach under a context: a cancellation stops new
// indices from being handed out and surfaces as the context's error
// (see pool.ForEachCtx). Servers use it to cut batch implication work
// loose on shutdown or request deadline.
func (e *Engine) ForEachCtx(ctx context.Context, n int, fn func(i int) error) error {
	return pool.ForEachCtx(ctx, e.opts.workers(), n, fn)
}

// boundsKey renders brute-force bounds into the cache-key prefix.
func boundsKey(b implication.Bounds) string {
	return "bf\x00" + strconv.Itoa(b.MaxRepeat) + "," +
		strconv.Itoa(b.MaxTrees) + "," + strconv.Itoa(b.MaxValuePositions) + "\x00"
}
