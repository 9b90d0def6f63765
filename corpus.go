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
