package analyze

import (
	"fmt"
	"strings"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/engine"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xnf"
)

// Diagnosis explains one XNF anomaly: why the FD is anomalous, a
// concrete witness of the redundancy, and the normalization step that
// would repair it.
type Diagnosis struct {
	// Anomaly is the anomalous split S → p.@l (or S → p.S), the
	// violating element path p it fails to determine, and the witness
	// document exhibiting the redundancy.
	Anomaly xnf.Anomaly
	// Minimal is the (D, Σ)-minimal form of the anomaly — the FD the
	// normalization algorithm would actually transform on.
	Minimal xfd.FD
	// Explanation is the human-readable account of the defect.
	Explanation string
	// Repair names the normalization step the anomaly would trigger
	// (move-attribute or create-element), with RepairDetail spelling it
	// out.
	Repair       xnf.StepKind
	RepairDetail string
	// Witness is a tuple-projection pair from the witness document that
	// agrees on the anomalous FD's paths yet lands on two distinct
	// target vertices — the same determined value stored twice.
	// WitnessFD names the projection's paths; HasWitness guards both.
	WitnessFD  xfd.FD
	Witness    [2]tuples.Tuple
	HasWitness bool
}

// Diagnose lists the diagnoses of every anomalous FD of (D, Σ), in Σ
// split order. An empty result means the spec is in XNF.
func Diagnose(s xnf.Spec, opts Options) ([]Diagnosis, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	eng, err := engine.New(s.DTD, s.FDs, opts.Engine)
	if err != nil {
		return nil, err
	}
	return diagnoseWith(eng, s)
}

// diagnoseWith runs the diagnosis over a caller-supplied engine, which
// the anomaly scan, the minimizations and the repair probes all share.
func diagnoseWith(eng *engine.Engine, s xnf.Spec) ([]Diagnosis, error) {
	anomalies, err := xnf.AnomaliesWith(eng, s.FDs)
	if err != nil {
		return nil, err
	}
	out := make([]Diagnosis, 0, len(anomalies))
	for _, a := range anomalies {
		d := Diagnosis{Anomaly: a}
		d.Minimal, err = xnf.MinimizeAnomaly(eng, a.FD)
		if err != nil {
			return nil, err
		}
		d.Repair, d.RepairDetail, err = repairStep(eng, d.Minimal)
		if err != nil {
			return nil, err
		}
		d.Explanation = fmt.Sprintf(
			"Σ implies %s but not %s -> %s: distinct %s vertices can share one left-hand side, each storing the value of %s again",
			a.FD, formatPaths(a.FD.LHS), a.Target, a.Target.Last(), a.FD.RHS[0])
		if a.Witness != nil {
			// Prefer the pair that displays the duplicated value: agree on
			// S and on the determined value, differ on the target vertex.
			rich := xfd.FD{LHS: append(append([]dtd.Path{}, a.FD.LHS...), a.FD.RHS[0]), RHS: []dtd.Path{a.Target}}
			if w, found := xfd.Violation(a.Witness, rich); found {
				d.WitnessFD, d.Witness, d.HasWitness = rich, w, true
			} else if w, found := xfd.Violation(a.Witness, xfd.FD{LHS: a.FD.LHS, RHS: []dtd.Path{a.Target}}); found {
				d.WitnessFD = xfd.FD{LHS: a.FD.LHS, RHS: []dtd.Path{a.Target}}
				d.Witness, d.HasWitness = w, true
			}
		}
		out = append(out, d)
	}
	return out, nil
}

// repairStep names the normalization step the minimal anomaly would
// trigger, mirroring Normalize's choice: move the attribute when some
// element path q of the LHS determines the whole LHS, otherwise create
// a new element type (Figure 4 of the paper).
func repairStep(eng *engine.Engine, min xfd.FD) (xnf.StepKind, string, error) {
	if min.RHS[0].IsAttr() {
		for _, q := range min.LHS {
			if !q.IsElem() {
				continue
			}
			ans, err := eng.Implies(xfd.FD{LHS: []dtd.Path{q}, RHS: min.LHS})
			if err != nil {
				return 0, "", err
			}
			if ans.Implied {
				return xnf.StepMoveAttribute,
					fmt.Sprintf("move %s to a fresh attribute of %s", min.RHS[0], q), nil
			}
		}
	}
	return xnf.StepCreateElement,
		fmt.Sprintf("create a new element type collecting %s with %s", formatPaths(min.LHS), min.RHS[0]), nil
}

func formatPaths(ps []dtd.Path) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.String()
	}
	return strings.Join(parts, ", ")
}
