// Package xmlnorm is a library for XML design theory: functional
// dependencies over DTD paths, the XML normal form XNF, and lossless
// XNF normalization, implementing Arenas & Libkin, "A Normal Form for
// XML Documents" (PODS 2002).
//
// The top-level API works on specifications — a DTD plus a set of
// functional dependencies — written in a plain-text format: the DTD in
// standard <!ELEMENT>/<!ATTLIST> syntax, a line containing only "%%",
// then one FD per line in dotted-path notation:
//
//	<!ELEMENT courses (course*)>
//	<!ELEMENT course (title, taken_by)>
//	...
//	%%
//	courses.course.@cno -> courses.course
//	courses.course.taken_by.student.@sno -> courses.course.taken_by.student.name.S
//
// The heavy lifting lives in the internal packages:
//
//	internal/dtd         DTDs, paths, Section 7 classifications
//	internal/xmltree     the XML tree model, conformance, subsumption
//	internal/tuples      tree tuples (Section 3)
//	internal/xfd         XML functional dependencies (Section 4)
//	internal/implication FD implication (Theorems 3-5)
//	internal/xnf         XNF, normalization, losslessness (Sections 5-6)
//	internal/relational  BCNF substrate and Proposition 4 encoding
//	internal/nested      nested relations, NNF, Proposition 5 encoding
//	internal/table       Codd tables and null-aware relational algebra
//	internal/gen         workload generators for tests and benchmarks
package xmlnorm

import (
	"context"
	"fmt"
	"io"
	"strings"

	"xmlnorm/internal/analyze"
	"xmlnorm/internal/dtd"
	"xmlnorm/internal/engine"
	"xmlnorm/internal/implication"
	"xmlnorm/internal/incremental"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
	"xmlnorm/internal/xnf"
)

// Re-exported core types. The library's own packages are internal;
// these aliases are the supported public surface.
type (
	// Spec is a specification (D, Σ).
	Spec = xnf.Spec
	// DTD is a Document Type Definition.
	DTD = dtd.DTD
	// Path is a dotted DTD path.
	Path = dtd.Path
	// FD is an XML functional dependency.
	FD = xfd.FD
	// Tree is an XML document tree.
	Tree = xmltree.Tree
	// Anomaly is an XNF violation.
	Anomaly = xnf.Anomaly
	// Step is one normalization step.
	Step = xnf.Step
	// NormalizeOptions configures Normalize.
	NormalizeOptions = xnf.Options
	// ImplicationAnswer is the result of an implication test.
	ImplicationAnswer = implication.Answer
	// Engine is the concurrency-safe implication engine over one
	// specification, which decides and counts (D, Σ) and (D, ∅)
	// queries alike, with the worker count its batches fan out over;
	// see NewEngine.
	Engine = engine.Engine
	// EngineOptions sets the worker count of an Engine, of the Opts
	// variants of the spec-level operations and of ViolationsCtx. The
	// zero value means GOMAXPROCS workers.
	EngineOptions = engine.Options
	// EngineStats counts the queries an engine decided (Misses); Hits
	// is always 0.
	EngineStats = engine.Stats
	// RedundancyReport quantifies update-anomaly-causing redundancy.
	RedundancyReport = xnf.RedundancyReport
	// AnalysisReport is the structured schema analysis of a
	// specification: candidate keys, the classified canonical cover,
	// the XNF diagnosis, and the 4XNF verdict. See Analyze.
	AnalysisReport = analyze.Report
	// AnalyzeOptions configures Analyze (key-size bound, declared tree
	// MVDs, engine options).
	AnalyzeOptions = analyze.Options
	// CandidateKey is one candidate key of a specification.
	CandidateKey = analyze.Key
	// Diagnosis explains one XNF anomaly: witness, repair step,
	// minimal form.
	Diagnosis = analyze.Diagnosis
	// TreeMVD is a multivalued dependency over tree tuples.
	TreeMVD = analyze.TreeMVD
	// Preservation reports which original FDs survive a normalization.
	Preservation = xnf.Preservation
	// Node is one element node of a Tree.
	Node = xmltree.Node
	// NodeID identifies a node within a Tree.
	NodeID = xmltree.NodeID
	// UnknownNodeError is the typed failure of a Session edit (or any
	// indexed tree operation) addressed at a NodeID that is not in the
	// tree; test with errors.As.
	UnknownNodeError = xmltree.UnknownNodeError
	// Session is a stateful incremental checker: it validates a
	// document once, then re-validates each edit against Σ by
	// retracting and re-asserting only the tree tuples the edit can
	// touch, instead of re-streaming the whole tree. See NewSession.
	Session = incremental.Session
	// Txn is an open transaction on a Session (Session.Begin): a batch
	// of edits folded in one retract/assert pass at Commit, invisible
	// to readers until then, undone entirely by Rollback.
	Txn = incremental.Txn
	// Snapshot is one committed epoch of a Session: an immutable
	// verdict + report readers can pin (Session.Snapshot) and keep
	// reading, lock-free, while later transactions commit.
	Snapshot = incremental.Snapshot
	// ReaderOptions configures the streaming checker entry points
	// (CheckDocumentReader); the zero value applies the default
	// nesting bound.
	ReaderOptions = xfd.ReaderOptions
	// MalformedError is the typed failure for input rejected by the
	// XML reader or the data model's structural rules; test with
	// errors.As.
	MalformedError = xmltree.MalformedError
	// DepthError is the typed failure for element nesting beyond the
	// configured streaming bound; test with errors.As.
	DepthError = xmltree.DepthError
)

// ParseSpec reads the "DTD %% FDs" specification format. The FD section
// may be empty or absent.
func ParseSpec(text string) (Spec, error) {
	dtdPart, fdPart := splitSpec(text)
	d, err := dtd.Parse(dtdPart)
	if err != nil {
		return Spec{}, err
	}
	fds, err := xfd.ParseSet(fdPart)
	if err != nil {
		return Spec{}, err
	}
	s := Spec{DTD: d, FDs: fds}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

func splitSpec(text string) (string, string) {
	lines := strings.Split(text, "\n")
	for i, l := range lines {
		if strings.TrimSpace(l) == "%%" {
			return strings.Join(lines[:i], "\n"), strings.Join(lines[i+1:], "\n")
		}
	}
	return text, ""
}

// FormatSpec renders a specification in the parseable format.
func FormatSpec(s Spec) string {
	var b strings.Builder
	b.WriteString(s.DTD.String())
	b.WriteString("%%\n")
	b.WriteString(xfd.FormatSet(s.FDs))
	return b.String()
}

// ParseDocument reads an XML document.
func ParseDocument(text string) (*Tree, error) {
	return xmltree.ParseString(text)
}

// ParseDocumentReader reads an XML document from a reader without
// buffering the raw bytes (the tree is still materialized; see
// CheckDocumentReader for checking without one).
func ParseDocumentReader(r io.Reader) (*Tree, error) {
	return xmltree.Parse(r)
}

// CheckDocumentReader checks the document arriving on r against Σ in
// one streaming pass, without materializing its tree or buffering its
// bytes: memory is bounded by nesting depth and the checker's fold
// state, independent of document length for chain-shaped dependencies.
// It returns the violated FDs with first-conflict witnesses in Σ
// order, exactly as Violations reports on the parsed tree. An empty Σ
// degenerates to pure structural validation. Malformed input fails
// with a *MalformedError, nesting beyond ReaderOptions.MaxDepth with a
// *DepthError.
func CheckDocumentReader(r io.Reader, sigma []FD, opts ReaderOptions) ([]Violated, error) {
	cs, err := xfd.NewCheckerSetFor(sigma)
	if err != nil {
		return nil, err
	}
	return cs.ViolationsReader(r, opts)
}

// CheckXNF decides whether the specification is in XNF and returns the
// anomalous FDs.
func CheckXNF(s Spec) (bool, []Anomaly, error) { return xnf.Check(s) }

// CheckXNFOpts is CheckXNF with explicit engine options.
func CheckXNFOpts(s Spec, eo EngineOptions) (bool, []Anomaly, error) {
	return xnf.CheckOpts(s, eo)
}

// NewEngine builds a reusable implication engine for the
// specification: one closure engine for (D, Σ), which builds its
// (D, ∅) engine with itself, decides and counts every query, and fans
// batch operations out across the configured workers. All engine
// methods are safe for concurrent use.
func NewEngine(s Spec, eo EngineOptions) (*Engine, error) {
	return engine.New(s.DTD, s.FDs, eo)
}

// Normalize converts the specification into one in XNF, returning the
// applied steps; each step carries the document transformation needed
// to migrate documents (see TransformDocument).
func Normalize(s Spec, opts NormalizeOptions) (Spec, []Step, error) {
	return xnf.Normalize(s, opts)
}

// TransformDocument migrates a document of the original DTD across the
// steps returned by Normalize, in place.
func TransformDocument(t *Tree, steps []Step) error { return xnf.ApplySteps(t, steps) }

// ReconstructDocument inverts TransformDocument, witnessing that the
// decomposition was lossless.
func ReconstructDocument(t *Tree, steps []Step) error { return xnf.InvertSteps(t, steps) }

// CheckPreservation reports which of the original FDs are still
// enforced by the normalized specification (after rewriting their paths
// along the transformation steps) — the XML analogue of relational
// dependency preservation.
func CheckPreservation(orig, norm Spec, steps []Step) (Preservation, error) {
	return xnf.CheckPreservation(orig, norm, steps)
}

// MinimalCover computes an equivalent reduced FD set: single right-hand
// sides, no trivial FDs, no extraneous LHS paths, no redundant members,
// in canonical order (byte-stable rendering).
func MinimalCover(s Spec) ([]FD, error) { return xnf.MinimalCover(s) }

// Analyze produces the schema-analysis report of a specification:
// candidate keys up to the configured size, the canonical cover with a
// per-FD classification of Σ (essential / weakened / redundant), a
// diagnosis of every XNF anomaly with witness and repair step, and the
// 4XNF (4NF-of-the-flat-image) verdict. The report is deterministic
// across worker counts.
func Analyze(s Spec, opts AnalyzeOptions) (*AnalysisReport, error) {
	return analyze.Analyze(s, opts)
}

// ParseTreeMVD parses a tree MVD in "lhs, ... ->> rhs, ..." dotted
// path notation.
func ParseTreeMVD(text string) (TreeMVD, error) { return analyze.ParseTreeMVD(text) }

// Implies decides (D, Σ) ⊢ q.
func Implies(s Spec, q FD) (ImplicationAnswer, error) {
	return implication.Implies(s.DTD, s.FDs, q)
}

// Trivial decides whether q follows from the DTD alone.
func Trivial(d *DTD, q FD) (bool, error) { return implication.Trivial(d, q) }

// Satisfies checks T ⊨ q.
func Satisfies(t *Tree, q FD) bool { return xfd.Satisfies(t, q) }

// SatisfiesAll checks T ⊨ Σ in one streaming walk of the document —
// the tuple product is never materialized, so there is no cap on how
// many maximal tuples T may have.
func SatisfiesAll(t *Tree, sigma []FD) bool { return xfd.SatisfiesAll(t, sigma) }

// Violated pairs a violated FD with a witness pair of tuple
// projections that agree on its LHS but differ on its RHS.
type Violated = xfd.Violated

// Violations checks every FD of Σ against the document in one
// streaming walk and returns the violated ones with first-conflict
// witnesses, in Σ order. A valid document yields nil.
func Violations(t *Tree, sigma []FD) []Violated {
	return xfd.ViolationReport(t, sigma)
}

// ViolationsCtx is Violations with the verdict pass sharded across
// the engine options' worker count (xfd.CheckerSet.ViolationsShardedCtx):
// the document splits into up to one fragment per worker, the
// fragments' fold states are computed on a worker pool and merged, and
// witnesses are re-derived sequentially for the violated FDs only, so
// the report is identical to Violations' regardless of worker count.
// Cancellation or a deadline aborts the in-flight fold promptly and
// returns the context's error — how a server bounds a from-scratch
// verdict pass by the request's lifetime. The compiled checker comes
// from the process-global registry, so repeated calls over one Σ
// compile once.
func ViolationsCtx(ctx context.Context, t *Tree, sigma []FD, eo EngineOptions) ([]Violated, error) {
	if len(sigma) == 0 {
		return nil, ctx.Err()
	}
	cs, err := engine.SharedCheckers(sigma)
	if err != nil {
		return nil, err
	}
	return cs.ViolationsShardedCtx(ctx, t, eo.WorkerCount())
}

// NewSession builds an incremental checker for the specification's Σ
// over the document: one full validation pass up front, then each
// edit — a batched Txn from Session.Begin, or the single-edit
// convenience methods — re-validates by streaming only the tuples
// crossing the edited region. Session.Violated reports the violated
// FD indices (Σ order) in O(|Σ|); Session.Report derives full witness
// reports that are bit-identical to Violations on the current tree.
// Apply every mutation through the Session — editing the tree
// directly leaves its state stale.
//
// Concurrency: one writer at a time (Begin serializes), while
// Violated, Satisfied, Report and Snapshot are safe from any number
// of goroutines and never block on a writer, except that the first
// Snapshot or Report call waits out an open transaction. Sessions over the same Σ
// share one compiled checker through the process-global registry, so
// a server hosting many documents under one spec compiles it once.
func NewSession(s Spec, doc *Tree) (*Session, error) {
	cs, err := engine.SharedCheckers(s.FDs)
	if err != nil {
		return nil, err
	}
	return incremental.New(cs, doc)
}

// Conforms checks T ⊨ D; ConformsUnordered checks [T] ⊨ D.
func Conforms(t *Tree, d *DTD) error { return xmltree.Conforms(t, d) }

// ConformsUnordered checks conformance up to reordering of children.
func ConformsUnordered(t *Tree, d *DTD) error { return xmltree.ConformsUnordered(t, d) }

// MeasureRedundancy quantifies the redundancy the specification's
// anomalous FDs cause in a document.
func MeasureRedundancy(s Spec, t *Tree) (RedundancyReport, error) {
	return xnf.MeasureRedundancy(s, t)
}

// Classify summarizes a DTD against the paper's Section 7 taxonomy.
type Classification struct {
	Recursive   bool
	Simple      bool
	Disjunctive bool
	ND          int64 // 0 when not disjunctive or recursive
	Relational  string
	Paths       int // 0 when recursive
}

// ClassifyDTD computes the classification.
func ClassifyDTD(d *DTD) Classification {
	c := Classification{
		Recursive:   d.IsRecursive(),
		Simple:      d.IsSimple(),
		Disjunctive: d.IsDisjunctive(),
		Relational:  d.RelationalHeuristic().String(),
	}
	if !c.Recursive {
		if ps, err := d.Paths(); err == nil {
			c.Paths = len(ps)
		}
		if c.Disjunctive {
			if nd, err := d.ND(); err == nil {
				c.ND = nd
			}
		}
	}
	return c
}

// String renders the classification.
func (c Classification) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "recursive:   %v\n", c.Recursive)
	fmt.Fprintf(&b, "simple:      %v\n", c.Simple)
	fmt.Fprintf(&b, "disjunctive: %v", c.Disjunctive)
	if c.Disjunctive && !c.Recursive {
		fmt.Fprintf(&b, " (N_D = %d)", c.ND)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "relational:  %s\n", c.Relational)
	if !c.Recursive {
		fmt.Fprintf(&b, "paths(D):    %d\n", c.Paths)
	}
	return b.String()
}
