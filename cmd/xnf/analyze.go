package main

// "xnf analyze" — the CLI face of internal/analyze: candidate keys,
// the classified canonical cover, the XNF diagnosis and the 4XNF
// verdict, as text or as one NDJSON object (the same wire shape the
// serve endpoint GET /docs/{name}/analyze returns).

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"xmlnorm"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xmltree"
)

// nodeRenumber renders witness values with vertex identities renumbered
// per diagnosis (#1, #2, ... in order of appearance). Raw vertex IDs
// are allocation counters that differ from run to run; the pattern of
// equal and distinct vertices is all a witness asserts.
type nodeRenumber map[xmltree.NodeID]int

func (m nodeRenumber) render(v tuples.Value) string {
	if !v.IsNode() {
		return v.String()
	}
	n, ok := m[v.Node()]
	if !ok {
		n = len(m) + 1
		m[v.Node()] = n
	}
	return fmt.Sprintf("#%d", n)
}

// mvdList collects repeated -mvd flags.
type mvdList []xmlnorm.TreeMVD

func (l *mvdList) String() string {
	var parts []string
	for _, m := range *l {
		parts = append(parts, m.String())
	}
	return strings.Join(parts, "; ")
}

func (l *mvdList) Set(s string) error {
	m, err := xmlnorm.ParseTreeMVD(s)
	if err != nil {
		return err
	}
	*l = append(*l, m)
	return nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the report as one JSON object (the xnf serve wire format)")
	maxKey := fs.Int("maxkey", 0, "candidate-key size bound (0 = the default, 2)")
	witness := fs.Bool("witness", false, "include a witness tuple pair per diagnosed anomaly")
	var mvds mvdList
	fs.Var(&mvds, "mvd", `declared tree MVD "lhs, ... ->> rhs, ..." joining the 4XNF test (repeatable)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: xnf analyze [-maxkey N] [-mvd MVD]... [-witness] [-json] <spec>")
	}
	if *maxKey < 0 {
		return fmt.Errorf("analyze -maxkey %d: the bound must be 0 (the default) or positive", *maxKey)
	}
	s, err := loadSpec(fs.Arg(0))
	if err != nil {
		return err
	}
	rep, err := xmlnorm.Analyze(s, xmlnorm.AnalyzeOptions{
		Engine:     engOpts,
		MaxKeySize: *maxKey,
		MVDs:       mvds,
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		if err := writeJSON(os.Stdout, analyzeObject(filepath.Base(fs.Arg(0)), rep, *witness)); err != nil {
			return err
		}
	} else {
		printAnalysis(os.Stdout, rep, *witness)
	}
	if rep.Negative() {
		return errNegative
	}
	return nil
}

// analyzeJSON is the wire shape of one analysis report, shared by
// "xnf analyze -json" and the serve endpoint.
type analyzeJSON struct {
	// Spec names the analyzed spec: the file's base name under the CLI,
	// the hosted document name under serve.
	Spec       string           `json:"spec,omitempty"`
	Keys       []string         `json:"keys"`
	MaxKeySize int              `json:"max_key_size"`
	Cover      []string         `json:"cover"`
	Sigma      []sigmaClassJSON `json:"sigma"`
	InXNF      bool             `json:"in_xnf"`
	Anomalies  []diagnosisJSON  `json:"anomalies,omitempty"`
	FourXNF    fourXNFJSON      `json:"four_xnf"`
}

// sigmaClassJSON classifies one single-RHS split of Σ against the
// canonical cover.
type sigmaClassJSON struct {
	FD    string `json:"fd"`
	Class string `json:"class"`
	// WeakenedTo is the cover FD a weakened split reduces to.
	WeakenedTo string `json:"weakened_to,omitempty"`
}

// diagnosisJSON explains one anomaly.
type diagnosisJSON struct {
	FD          string `json:"fd"`
	Target      string `json:"target"`
	Minimal     string `json:"minimal"`
	Explanation string `json:"explanation"`
	Repair      string `json:"repair"`
	Detail      string `json:"detail"`
	// Witness is the redundancy-exhibiting tuple pair, one row per
	// path of the witness FD; present only when requested.
	Witness []witnessJSON `json:"witness,omitempty"`
}

// fourXNFJSON is the 4XNF part of the report.
type fourXNFJSON struct {
	Columns    []string `json:"columns"`
	ImageFDs   []string `json:"image_fds,omitempty"`
	ImageMVDs  []string `json:"image_mvds,omitempty"`
	Skipped    []string `json:"skipped,omitempty"`
	Satisfied  bool     `json:"satisfied"`
	Violations []string `json:"violations,omitempty"`
	Note       string   `json:"note,omitempty"`
}

// analyzeObject builds the wire object from a report.
func analyzeObject(name string, rep *xmlnorm.AnalysisReport, witness bool) analyzeJSON {
	out := analyzeJSON{
		Spec:       name,
		Keys:       []string{},
		MaxKeySize: rep.MaxKeySize,
		Cover:      []string{},
		InXNF:      rep.InXNF,
		FourXNF: fourXNFJSON{
			Columns:    rep.FourXNF.Columns,
			ImageFDs:   rep.FourXNF.ImageFDs,
			ImageMVDs:  rep.FourXNF.ImageMVDs,
			Skipped:    rep.FourXNF.Skipped,
			Satisfied:  rep.FourXNF.Satisfied,
			Violations: rep.FourXNF.Violations,
			Note:       rep.FourXNF.Note,
		},
	}
	for _, k := range rep.Keys {
		out.Keys = append(out.Keys, k.String())
	}
	for _, f := range rep.Cover.FDs {
		out.Cover = append(out.Cover, f.String())
	}
	for _, c := range rep.Cover.Sigma {
		sc := sigmaClassJSON{FD: c.FD.String(), Class: c.Class.String()}
		if c.WeakenedTo != nil {
			sc.WeakenedTo = c.WeakenedTo.String()
		}
		out.Sigma = append(out.Sigma, sc)
	}
	for _, d := range rep.Diagnoses {
		dj := diagnosisJSON{
			FD:          d.Anomaly.FD.String(),
			Target:      d.Anomaly.Target.String(),
			Minimal:     d.Minimal.String(),
			Explanation: d.Explanation,
			Repair:      d.Repair.String(),
			Detail:      d.RepairDetail,
		}
		if witness && d.HasWitness {
			dj.Witness = witnessRows(d.WitnessFD, d.Witness, nodeRenumber{}.render)
		}
		out.Anomalies = append(out.Anomalies, dj)
	}
	return out
}

// printAnalysis renders the report as text, following the check
// command's idiom (upper-case NOT marks the negative answers).
func printAnalysis(w io.Writer, rep *xmlnorm.AnalysisReport, witness bool) {
	fmt.Fprintf(w, "candidate keys (size <= %d): %d\n", rep.MaxKeySize, len(rep.Keys))
	for _, k := range rep.Keys {
		fmt.Fprintf(w, "  %s\n", k)
	}
	fmt.Fprintf(w, "canonical cover: %d FD(s)\n", len(rep.Cover.FDs))
	for _, f := range rep.Cover.FDs {
		fmt.Fprintf(w, "  %s\n", f)
	}
	fmt.Fprintln(w, "sigma classification:")
	for _, c := range rep.Cover.Sigma {
		fmt.Fprintf(w, "  %s: %s\n", c.FD, c.Describe())
	}
	if rep.InXNF {
		fmt.Fprintln(w, "in XNF")
	} else {
		fmt.Fprintf(w, "NOT in XNF: %d anomalous FD(s)\n", len(rep.Diagnoses))
		for _, d := range rep.Diagnoses {
			fmt.Fprintf(w, "  %s\n    %s\n    repair: %s (%s)\n",
				d.Anomaly.FD, d.Explanation, d.Repair, d.RepairDetail)
			if witness && d.HasWitness {
				fmt.Fprintln(w, "    witness tuple pair (t1 | t2):")
				printWitnessRows(w, "      ", witnessRows(d.WitnessFD, d.Witness, nodeRenumber{}.render))
			}
		}
	}
	fx := rep.FourXNF
	verdict := "satisfied"
	if !fx.Satisfied {
		verdict = "NOT satisfied"
	}
	fmt.Fprintf(w, "4XNF (flat image over %d value columns): %s\n", len(fx.Columns), verdict)
	if fx.Note != "" {
		fmt.Fprintf(w, "  note: %s\n", fx.Note)
	}
	for _, f := range fx.ImageFDs {
		fmt.Fprintf(w, "  image fd %s\n", f)
	}
	for _, m := range fx.ImageMVDs {
		fmt.Fprintf(w, "  image mvd %s\n", m)
	}
	for _, v := range fx.Violations {
		fmt.Fprintf(w, "  violating mvd %s\n", v)
	}
	for _, sk := range fx.Skipped {
		fmt.Fprintf(w, "  skipped %s\n", sk)
	}
}
