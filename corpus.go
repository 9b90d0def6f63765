package xmlnorm

// Corpus- and fragment-scale checking: the facade over internal/corpus
// (many documents, one compiled checker) and internal/xfd's FoldState
// (one document, many independently checkable fragments). Both reuse
// the process-global registry, so a sweep over thousands of files and
// a server hosting thousands of sessions compile each Σ exactly once.

import (
	"context"

	"xmlnorm/internal/corpus"
	"xmlnorm/internal/engine"
)

// Corpus-level types, re-exported from internal/corpus.
type (
	// CorpusOptions configures CheckCorpus: worker bound, nesting
	// bound, extension filter. The zero value checks ".xml" files on
	// GOMAXPROCS workers with the default nesting bound.
	CorpusOptions = corpus.Options
	// CorpusVerdict is one file's outcome: its violated FDs, or the
	// isolated error (unreadable, malformed, over-deep) that kept it
	// from being checked.
	CorpusVerdict = corpus.Verdict
	// CorpusSummary counts a sweep: documents seen, satisfied,
	// violating, failed.
	CorpusSummary = corpus.Summary
)

// CheckCorpus checks every matching document under dir against Σ: ONE
// compiled checker (from the process-global registry) shared across
// all files, files fanned out over the worker pool, each streamed in
// constant memory via the reader-driven checker. Verdicts arrive on
// emit (which may be nil) in lexical walk order; a malformed or
// unreadable file becomes that entry's error without aborting the
// sweep; symlinked directories are never followed, so cycles cannot
// hang the walk. Cancelling ctx stops the sweep with the context's
// error. The returned summary counts the emitted verdicts.
func CheckCorpus(ctx context.Context, sigma []FD, dir string, opts CorpusOptions, emit func(CorpusVerdict)) (CorpusSummary, error) {
	cs, err := engine.SharedCheckers(sigma)
	if err != nil {
		return CorpusSummary{}, err
	}
	return corpus.Check(ctx, cs, dir, opts, emit)
}

// ViolationsFragmented is Violations computed the distributed way: the
// document is split at a top-level sibling group into up to k
// fragments (xfd.CheckerSet.SplitFragments), each fragment's per-FD
// fold state is computed independently — here in parallel on up to k
// workers; on a cluster, each state could be computed on its own node
// and shipped as bytes (xfd.FoldState) — and the states are merged
// associatively into the whole-document verdict. Witnesses are then
// re-derived for the violated FDs only, so the report is bit-identical
// to Violations' for every k. k < 2 degenerates to the sequential
// check. It is xfd.CheckerSet.ViolationsShardedCtx with k as the
// worker count.
func ViolationsFragmented(t *Tree, sigma []FD, k int) ([]Violated, error) {
	if len(sigma) == 0 {
		return nil, nil
	}
	cs, err := engine.SharedCheckers(sigma)
	if err != nil {
		return nil, err
	}
	return cs.ViolationsShardedCtx(context.TODO(), t, k)
}
