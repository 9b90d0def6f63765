// Command xnf is the command-line interface to the xmlnorm library: it
// checks specifications (DTD + functional dependencies) against the XML
// normal form XNF, normalizes them losslessly, migrates documents,
// decides FD implication, and reports redundancy — implementing Arenas &
// Libkin, "A Normal Form for XML Documents" (PODS 2002).
//
// Usage:
//
//	xnf check <spec>                 test XNF, list anomalous FDs
//	xnf check <spec> <doc.xml>       check the document against Σ (streaming)
//	xnf check -stream <spec> <doc>   check straight off the bytes, constant memory
//	xnf check -r <spec> <dir>        check every .xml under dir, NDJSON verdicts
//	xnf check -fragments K ...       check via K merged fragment folds
//	xnf check -workers H1,H2 ...     ship fold work to xnf serve workers (see distrib.go)
//	xnf analyze <spec>               schema analysis: candidate keys, classified
//	                                 canonical cover, anomaly diagnosis, 4XNF
//	xnf normalize <spec>             print the normalized specification
//	xnf implies <spec> "<fd>"        decide (D, Σ) ⊢ fd
//	xnf classify <spec>              DTD taxonomy (simple/disjunctive/N_D/...)
//	xnf tuples <spec> <doc.xml>      print the tree-tuple table
//	xnf redundancy <spec> <doc.xml>  measure update-anomaly redundancy
//	xnf transform <spec> <doc.xml>   normalize and migrate the document
//	xnf validate <spec> <doc.xml>    conformance + FD satisfaction
//	xnf watch <spec> <doc.xml>       apply an edit script, re-check incrementally
//	xnf serve <spec>                 host documents over HTTP/JSON (see serve.go)
//
// A spec file is a DTD in <!ELEMENT>/<!ATTLIST> syntax, then a line
// "%%", then one FD per line ("path, path -> path"). "check" and
// "watch" accept "-" in place of <doc.xml> to read the document from
// stdin; for "check", stdin documents are always checked in streaming
// mode (-stream): Σ is folded straight off the bytes in constant
// memory, without materializing the tree — which also means DTD
// conformance is not checked in that mode. -maxdepth bounds element
// nesting of streamed input (hostile deeply-nested documents fail with
// a typed error).
//
// Global flags (before the subcommand) tune the implication engine:
//
//	xnf [-parallel N] [-cache=BOOL] <command> ...
//
// -parallel sets the worker goroutines (0 = GOMAXPROCS, 1 =
// sequential): batched implication queries and sharded document checks
// fan out over them, and above 1 "analyze" runs its report's four
// parts concurrently; -cache toggles answer memoization
// (default on). Both default to the fastest setting; the sequential
// uncached path (-parallel=1 -cache=false) produces identical output
// and exists for measurement and differential testing.
//
// # Exit status
//
// Every subcommand follows one contract, for single documents and
// multi-input sweeps alike:
//
//	0  success, every answer positive (in XNF, implied, all documents
//	   satisfy Σ, every edit script line applied cleanly)
//	1  the command ran to completion but some answer is negative (not
//	   in XNF, not implied, FDs violated, some corpus document
//	   violating)
//	2  the run failed: usage errors, unreadable specs, malformed
//	   single documents, or a corpus sweep in which some file could
//	   not be checked (each such file is also reported in its own
//	   NDJSON verdict; failures take precedence over violations)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"xmlnorm"
	"xmlnorm/internal/dtd"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xfd"
)

func main() {
	err := run(os.Args[1:])
	if err != nil && !errors.Is(err, errNegative) {
		fmt.Fprintln(os.Stderr, "xnf:", err)
	}
	os.Exit(exitCode(err))
}

// exitCode maps a run outcome onto the documented exit contract (see
// the package comment): 0 for a positive answer, 1 for a negative one,
// 2 for a failed run. Failures outrank negative answers — a corpus
// sweep that both found violations and failed to read some file exits
// 2, because run wraps the failure, not errNegative.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errNegative):
		return 1
	default:
		return 2
	}
}

// errNegative marks a successful run whose answer is negative (not in
// XNF, not implied, FDs violated); main exits 1 so scripts can branch
// on the result without parsing output, and distinguish it from the
// failure exit 2.
var errNegative = errors.New("negative result")

func usage() error {
	return fmt.Errorf("usage: xnf [-parallel N] [-cache=BOOL] <check|analyze|normalize|implies|classify|tuples|redundancy|transform|validate|cover|watch|serve> ...")
}

// engOpts is the engine configuration shared by all subcommands, set
// from the global -parallel/-cache flags.
var engOpts xmlnorm.EngineOptions

func run(args []string) error {
	fs := flag.NewFlagSet("xnf", flag.ContinueOnError)
	parallel := fs.Int("parallel", 0, "worker goroutines for batched implication queries and sharded checks; above 1, analyze runs its four report parts concurrently (0 = GOMAXPROCS, 1 = sequential)")
	cache := fs.Bool("cache", true, "memoize implication answers")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel %d: the worker count must be 0 (GOMAXPROCS) or positive", *parallel)
	}
	engOpts = xmlnorm.EngineOptions{Workers: *parallel, NoCache: !*cache}
	args = fs.Args()
	if len(args) < 1 {
		return usage()
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "check":
		return cmdCheck(rest)
	case "normalize":
		return cmdNormalize(rest)
	case "implies":
		return cmdImplies(rest)
	case "classify":
		return cmdClassify(rest)
	case "tuples":
		return cmdTuples(rest)
	case "redundancy":
		return cmdRedundancy(rest)
	case "transform":
		return cmdTransform(rest)
	case "validate":
		return cmdValidate(rest)
	case "cover":
		return cmdCover(rest)
	case "analyze":
		return cmdAnalyze(rest)
	case "watch":
		return cmdWatch(rest)
	case "serve":
		return cmdServe(rest)
	default:
		return usage()
	}
}

func loadSpec(path string) (xmlnorm.Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return xmlnorm.Spec{}, err
	}
	return xmlnorm.ParseSpec(string(b))
}

// loadDoc reads a document from a file, or from stdin when the path
// is "-" (so pipelines can feed generated documents straight into
// check/watch/validate without a temp file). The reader is parsed
// directly — the raw bytes are never buffered whole.
func loadDoc(path string) (*xmlnorm.Tree, error) {
	if path == "-" {
		return xmlnorm.ParseDocumentReader(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return xmlnorm.ParseDocumentReader(f)
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	witness := fs.Bool("witness", false, "print a concrete redundant document per anomaly / a violating tuple pair per FD")
	stream := fs.Bool("stream", false, "check the document against Σ straight off the byte stream, in constant memory (skips DTD conformance); default when the document is stdin")
	maxDepth := fs.Int("maxdepth", 0, "element nesting limit for -stream (0 = default limit, negative = unlimited)")
	jsonOut := fs.Bool("json", false, "emit the document verdict as one JSON object (the xnf serve wire format)")
	recurse := fs.Bool("r", false, "treat the second argument as a directory: check every matching file under it, one NDJSON verdict per file")
	fragments := fs.Int("fragments", 0, "check the document as K independently folded fragments merged into one verdict (0 = whole-document check)")
	workersFlag := fs.String("workers", "", "comma-separated `xnf serve` worker addresses: ship fold work to them, with transparent local fallback (output stays byte-identical)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var workers []string
	for _, w := range strings.Split(*workersFlag, ",") {
		if w = strings.TrimSpace(w); w != "" {
			workers = append(workers, w)
		}
	}
	if fs.NArg() != 1 && fs.NArg() != 2 {
		return fmt.Errorf("usage: xnf check [-witness] [-stream] [-r] [-fragments K] [-workers H1,H2] [-maxdepth N] [-json] <spec> [doc.xml|dir]")
	}
	if *fragments < 0 {
		return fmt.Errorf("check -fragments %d: the count must be 0 (a whole-document check) or positive", *fragments)
	}
	if *jsonOut && fs.NArg() != 2 {
		return fmt.Errorf("check -json reports document verdicts; pass a document")
	}
	if *fragments > 0 && fs.NArg() != 2 && !*recurse {
		return fmt.Errorf("check -fragments checks documents; pass one")
	}
	if len(workers) > 0 {
		if fs.NArg() != 2 {
			return fmt.Errorf("check -workers distributes document checks; pass a document or (with -r) a directory")
		}
		if *stream {
			return fmt.Errorf("check -workers ships fold work remotely; drop -stream")
		}
	}
	s, err := loadSpec(fs.Arg(0))
	if err != nil {
		return err
	}
	if *recurse {
		if fs.NArg() != 2 {
			return fmt.Errorf("check -r sweeps a directory; pass one")
		}
		if *fragments > 0 {
			return fmt.Errorf("check -r and -fragments are mutually exclusive")
		}
		return corpusCheck(s, fs.Arg(1), *witness, *maxDepth, workers)
	}
	if fs.NArg() == 2 {
		opts := checkOutput{witness: *witness, json: *jsonOut, doc: fs.Arg(1)}
		if len(workers) > 0 {
			// -fragments K keeps its meaning: the split width. Without
			// it the coordinator defaults to two fragments per worker.
			return distributedCheckDocument(s, fs.Arg(1), opts, workers, *fragments, *maxDepth)
		}
		if *fragments > 0 {
			if *stream {
				return fmt.Errorf("check -fragments needs the materialized tree; drop -stream")
			}
			return fragmentCheckDocument(s, fs.Arg(1), opts, *fragments)
		}
		if *stream || fs.Arg(1) == "-" {
			return streamCheckDocument(s, fs.Arg(1), opts, *maxDepth)
		}
		return checkDocument(s, fs.Arg(1), opts)
	}
	ok, anomalies, err := xmlnorm.CheckXNFOpts(s, engOpts)
	if err != nil {
		return err
	}
	if ok {
		fmt.Println("in XNF")
		return nil
	}
	fmt.Printf("NOT in XNF: %d anomalous FD(s)\n", len(anomalies))
	for _, a := range anomalies {
		fmt.Printf("  %s\n    (left-hand side does not determine %s)\n", a.FD, a.Target)
		if *witness && a.Witness != nil {
			fmt.Println("    witness document storing the value redundantly:")
			for _, line := range strings.Split(strings.TrimRight(a.Witness.String(), "\n"), "\n") {
				fmt.Printf("      %s\n", line)
			}
		}
	}
	return errNegative
}

// checkDocument is the document mode of "xnf check": it decides T ⊨ Σ
// through the streaming CheckerSet pipeline — the tuple product is
// never materialized, so documents far past the old MaxTuples ceiling
// check fine — and, with -witness, prints a violating pair of tuple
// projections per violated FD. -parallel shards the verdict pass over
// the root's top-level sibling choices; witnesses are re-derived
// sequentially, so output is identical at every worker count.
func checkDocument(s xmlnorm.Spec, docPath string, out checkOutput) error {
	doc, err := loadDoc(docPath)
	if err != nil {
		return err
	}
	if err := xmlnorm.ConformsUnordered(doc, s.DTD); err != nil {
		return fmt.Errorf("document does not conform to the spec: %v", err)
	}
	return printCheckVerdict(xmlnorm.ViolationsOpts(doc, s.FDs, engOpts), len(s.FDs), out)
}

// fragmentCheckDocument is the -fragments mode of "xnf check": the
// document is split at a top-level sibling group into up to k
// fragments whose per-FD fold states are computed independently and
// merged associatively into the whole-document verdict (the
// distributed-checking substrate, exercised end to end). Witnesses are
// re-derived for the violated FDs only, so the output is identical to
// the whole-document modes at every k.
func fragmentCheckDocument(s xmlnorm.Spec, docPath string, out checkOutput, k int) error {
	doc, err := loadDoc(docPath)
	if err != nil {
		return err
	}
	if err := xmlnorm.ConformsUnordered(doc, s.DTD); err != nil {
		return fmt.Errorf("document does not conform to the spec: %v", err)
	}
	violated, err := xmlnorm.ViolationsFragmented(doc, s.FDs, k)
	if err != nil {
		return err
	}
	return printCheckVerdict(violated, len(s.FDs), out)
}

// streamCheckDocument is the -stream mode of "xnf check": T ⊨ Σ is
// decided straight off the byte stream through CheckDocumentReader —
// the document tree is never materialized and the raw bytes are never
// buffered, so memory stays bounded by nesting depth and fold state
// however large the document is. DTD conformance is NOT checked (it
// needs the materialized tree); the verdict and witness output are
// otherwise identical to the tree mode's. Stdin documents ("-") always
// take this path.
func streamCheckDocument(s xmlnorm.Spec, docPath string, out checkOutput, maxDepth int) error {
	var r io.Reader
	if docPath == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(docPath)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	violated, err := xmlnorm.CheckDocumentReader(r, s.FDs, xmlnorm.ReaderOptions{MaxDepth: maxDepth})
	if err != nil {
		return err
	}
	return printCheckVerdict(violated, len(s.FDs), out)
}

// checkOutput selects the rendering of a document verdict: the classic
// text block, or the JSON object the serve endpoints emit.
type checkOutput struct {
	witness bool
	json    bool
	doc     string
}

// printCheckVerdict renders the shared verdict/witness block of the
// document-checking modes; the streaming and tree paths must stay
// byte-identical here.
func printCheckVerdict(violated []xmlnorm.Violated, total int, out checkOutput) error {
	if out.json {
		if err := writeJSON(os.Stdout, verdictObject(out.doc, 0, total, violated, out.witness)); err != nil {
			return err
		}
		if len(violated) > 0 {
			return errNegative
		}
		return nil
	}
	witness := out.witness
	if len(violated) == 0 {
		fmt.Printf("satisfies all %d FD(s)\n", total)
		return nil
	}
	fmt.Printf("violates %d of %d FD(s)\n", len(violated), total)
	for _, v := range violated {
		fmt.Printf("  %s\n", v.FD)
		if witness {
			fmt.Println("    witness tuple pair (t1 | t2):")
			printWitnessPair(v, "      ")
		}
	}
	return errNegative
}

func cmdNormalize(args []string) error {
	fs := flag.NewFlagSet("normalize", flag.ContinueOnError)
	simplified := fs.Bool("simplified", false, "use the implication-free variant (Proposition 7)")
	verbose := fs.Bool("v", false, "print the applied steps")
	report := fs.Bool("report", false, "print the dependency-preservation report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: xnf normalize [-simplified] [-v] <spec>")
	}
	s, err := loadSpec(fs.Arg(0))
	if err != nil {
		return err
	}
	out, steps, err := xmlnorm.Normalize(s, xmlnorm.NormalizeOptions{Simplified: *simplified, Engine: engOpts})
	if err != nil {
		return err
	}
	if *verbose {
		for i, st := range steps {
			fmt.Fprintf(os.Stderr, "step %d (%s): %s\n", i+1, st.Kind, st.Detail)
			for _, d := range st.Dropped {
				fmt.Fprintf(os.Stderr, "  dropped FD: %s\n", d)
			}
		}
	}
	if *report {
		rep, err := xmlnorm.CheckPreservation(s, out, steps)
		if err != nil {
			return err
		}
		for _, p := range rep.Preserved {
			suffix := ""
			if p.Trivial {
				suffix = " (now structural)"
			}
			if p.Rewritten.Equal(p.Original) {
				fmt.Fprintf(os.Stderr, "preserved: %s%s\n", p.Original, suffix)
			} else {
				fmt.Fprintf(os.Stderr, "preserved: %s  as  %s%s\n", p.Original, p.Rewritten, suffix)
			}
		}
		for _, l := range rep.Lost {
			fmt.Fprintf(os.Stderr, "LOST: %s\n", l)
		}
	}
	fmt.Print(xmlnorm.FormatSpec(out))
	return nil
}

func cmdImplies(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: xnf implies <spec> \"<lhs -> rhs>\"")
	}
	s, err := loadSpec(args[0])
	if err != nil {
		return err
	}
	q, err := xfd.Parse(args[1])
	if err != nil {
		return err
	}
	ans, err := xmlnorm.ImpliesOpts(s, q, engOpts)
	if err != nil {
		return err
	}
	if ans.Implied {
		fmt.Println("implied")
		return nil
	}
	fmt.Println("NOT implied; counterexample document:")
	fmt.Print(ans.Counterexample)
	return errNegative
}

func cmdClassify(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: xnf classify <spec>")
	}
	s, err := loadSpec(args[0])
	if err != nil {
		return err
	}
	fmt.Print(xmlnorm.ClassifyDTD(s.DTD))
	return nil
}

func cmdTuples(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: xnf tuples <spec> <doc.xml>")
	}
	s, err := loadSpec(args[0])
	if err != nil {
		return err
	}
	doc, err := loadDoc(args[1])
	if err != nil {
		return err
	}
	if err := xmlnorm.ConformsUnordered(doc, s.DTD); err != nil {
		return err
	}
	u, err := paths.New(s.DTD)
	if err != nil {
		return err
	}
	ts, err := tuples.TuplesOf(u, doc, 0)
	if err != nil {
		return err
	}
	// Print as a table over the non-recursive DTD's paths.
	ps, err := s.DTD.Paths()
	if err != nil {
		return err
	}
	var cols []string
	for _, p := range ps {
		cols = append(cols, p.String())
	}
	sort.Strings(cols)
	fmt.Printf("%d maximal tuple(s)\n", len(ts))
	for i, tup := range ts {
		fmt.Printf("t%d:\n", i+1)
		for _, c := range cols {
			v, ok := tup.Get(dtd.MustParsePath(c))
			if !ok {
				fmt.Printf("  %-50s ⊥\n", c)
				continue
			}
			fmt.Printf("  %-50s %s\n", c, v)
		}
	}
	return nil
}

func cmdRedundancy(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: xnf redundancy <spec> <doc.xml>")
	}
	s, err := loadSpec(args[0])
	if err != nil {
		return err
	}
	doc, err := loadDoc(args[1])
	if err != nil {
		return err
	}
	rep, err := xmlnorm.MeasureRedundancy(s, doc)
	if err != nil {
		return err
	}
	for _, r := range rep.PerFD {
		fmt.Printf("%s\n  stored %d times for %d distinct determinants: %d redundant\n",
			r.FD, r.Occurrences, r.Groups, r.Redundant)
	}
	fmt.Printf("total redundant values: %d\n", rep.Redundant)
	return nil
}

func cmdTransform(args []string) error {
	fs := flag.NewFlagSet("transform", flag.ContinueOnError)
	verbose := fs.Bool("v", false, "print the applied steps")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: xnf transform [-v] <spec> <doc.xml>")
	}
	s, err := loadSpec(fs.Arg(0))
	if err != nil {
		return err
	}
	doc, err := loadDoc(fs.Arg(1))
	if err != nil {
		return err
	}
	if err := xmlnorm.ConformsUnordered(doc, s.DTD); err != nil {
		return fmt.Errorf("document does not conform to the spec: %v", err)
	}
	_, steps, err := xmlnorm.Normalize(s, xmlnorm.NormalizeOptions{Engine: engOpts})
	if err != nil {
		return err
	}
	if err := xmlnorm.TransformDocument(doc, steps); err != nil {
		return err
	}
	if *verbose {
		for i, st := range steps {
			fmt.Fprintf(os.Stderr, "step %d (%s): %s\n", i+1, st.Kind, st.Detail)
		}
	}
	fmt.Print(doc)
	return nil
}

func cmdCover(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: xnf cover <spec>")
	}
	s, err := loadSpec(args[0])
	if err != nil {
		return err
	}
	mc, err := xmlnorm.MinimalCover(s)
	if err != nil {
		return err
	}
	fmt.Print(xfd.FormatSet(mc))
	return nil
}

func cmdValidate(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: xnf validate <spec> <doc.xml>")
	}
	s, err := loadSpec(args[0])
	if err != nil {
		return err
	}
	doc, err := loadDoc(args[1])
	if err != nil {
		return err
	}
	if err := xmlnorm.Conforms(doc, s.DTD); err != nil {
		return fmt.Errorf("conformance: %v", err)
	}
	// One streaming walk over the document decides all of Σ.
	var violated []string
	for _, v := range xmlnorm.ViolationsOpts(doc, s.FDs, engOpts) {
		violated = append(violated, v.FD.String())
	}
	if len(violated) > 0 {
		fmt.Printf("conforms, but violates %d FD(s):\n  %s\n", len(violated), strings.Join(violated, "\n  "))
		return errNegative
	}
	fmt.Println("valid: conforms and satisfies all FDs")
	return nil
}
