// Package analyze is the schema-analysis subsystem: it turns a
// specification (D, Σ) into a structured report a schema designer can
// act on, where the checking stack (internal/xnf, internal/engine)
// only answers yes/no questions about it. One Analyze call produces
// four parts:
//
//   - candidate keys: the minimal path sets X with (D, Σ) ⊢ X → p for
//     every p ∈ paths(D), found by a bounded brute-force search over
//     the implication engine that decides candidates in order, behind
//     a counterexample-reuse prefilter (keys.go);
//   - a canonical cover of Σ with a per-FD classification — which
//     members of Σ survive, which are redundant, and which were
//     weakened to a smaller FD (cover.go);
//   - an XNF diagnosis: for each anomalous FD, the violating path, a
//     witness tuple pair exhibiting the stored redundancy, and the
//     normalization step that would repair it (diagnose.go);
//   - a 4XNF test: tree MVDs over tuple projections and the 4NF
//     verdict of the spec's flat image through the internal/table
//     bridge and internal/relational (mvd.go).
//
// Everything in the report is deterministic: byte-identical output for
// one input regardless of worker count or cache configuration.
package analyze

import (
	"xmlnorm/internal/engine"
	"xmlnorm/internal/pool"
	"xmlnorm/internal/xnf"
)

// DefaultMaxKeySize bounds the candidate-key search when Options does
// not: keys of up to this many paths are found, larger ones are not
// reported. The search space is C(|paths(D)|, k) per layer, so the
// default stays small.
const DefaultMaxKeySize = 2

// Options configures Analyze.
type Options struct {
	// Engine configures the shared implication engine (worker count,
	// caching). The zero value is GOMAXPROCS workers with caching on.
	Engine engine.Options
	// MaxKeySize bounds the candidate-key search; 0 means
	// DefaultMaxKeySize.
	MaxKeySize int
	// MVDs are declared tree MVDs; those inside the flat fragment join
	// Σ's image in the 4XNF test. Every path must be in paths(D).
	MVDs []TreeMVD
}

func (o Options) maxKeySize() int {
	if o.MaxKeySize > 0 {
		return o.MaxKeySize
	}
	return DefaultMaxKeySize
}

// Report is the full analysis of one specification.
type Report struct {
	// Keys are the candidate keys of size ≤ MaxKeySize, smallest first.
	Keys []Key
	// MaxKeySize is the bound the search ran under.
	MaxKeySize int
	// Cover is the canonical cover with Σ's classification.
	Cover Cover
	// InXNF reports the XNF verdict; Diagnoses explains each anomaly
	// when it is false.
	InXNF     bool
	Diagnoses []Diagnosis
	// FourXNF is the 4NF verdict of the spec's flat image.
	FourXNF FourXNF
}

// Negative reports whether the analysis found a normal-form defect —
// an XNF anomaly or a 4NF violation of the flat image. It is the
// CLI's exit-1 condition, mirroring the check verdict.
func (r *Report) Negative() bool {
	return !r.InXNF || !r.FourXNF.Satisfied
}

// Analyze produces the full report for (D, Σ). One cached engine
// serves the candidate-key search, the diagnosis and the 4XNF image;
// the cover construction builds its own reduced engines as
// xnf.MinimalCover requires. With more than one engine worker the four
// parts run concurrently, each on its own goroutine, so the longest
// one starts at once; with one worker they run in report order on the
// calling goroutine. Either way the first error in report order is
// returned, and the report is the same: each part writes its own
// field, reads the spec only, and shares the engine, whose answers do
// not depend on which part asks first.
func Analyze(s xnf.Spec, opts Options) (*Report, error) {
	if err := validate(s, opts.MVDs); err != nil {
		return nil, err
	}
	eng, err := engine.New(s.DTD, s.FDs, opts.Engine)
	if err != nil {
		return nil, err
	}
	r := &Report{MaxKeySize: opts.maxKeySize()}
	parts := [...]func() error{
		func() (err error) { r.Keys, err = candidateKeysWith(eng, r.MaxKeySize); return err },
		func() (err error) { r.Cover, err = CanonicalCover(s); return err },
		func() (err error) { r.Diagnoses, err = diagnoseWith(eng, s); return err },
		func() (err error) { r.FourXNF, err = check4XNFWith(eng, s, opts.MVDs); return err },
	}
	workers := 1
	if eng.Workers() > 1 {
		workers = len(parts)
	}
	// Parts are handed out in report order and every part below a
	// failed one has run to completion, so the first non-nil entry is
	// the first error in report order.
	var errs [len(parts)]error
	_ = pool.ForEach(workers, len(parts), func(i int) error {
		errs[i] = parts[i]()
		return errs[i]
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	r.InXNF = len(r.Diagnoses) == 0
	return r, nil
}
