package main

// The machine-readable verdict: ONE encoder shared by "xnf check
// -json", "xnf watch -json" and every "xnf serve" endpoint, so a
// pipeline that parses one of them parses all of them. A verdict
// object says what holds NOW (satisfied, the violated FDs, optionally
// their witness pairs); the delta fields say what one edit batch
// CHANGED (FDs newly violated / newly satisfied); seq is the session
// epoch the verdict was read from, when there is one.

import (
	"encoding/json"
	"fmt"
	"io"

	"xmlnorm"
	"xmlnorm/internal/tuples"
)

// verdictJSON is the wire shape of one verdict.
type verdictJSON struct {
	// Doc names the document: the hosted name under serve, the file
	// path (or "-") under the CLI.
	Doc string `json:"doc,omitempty"`
	// Seq is the session epoch (1 = as loaded, +1 per committed
	// transaction); 0 when the verdict did not come from a session.
	Seq       uint64 `json:"seq,omitempty"`
	Satisfied bool   `json:"satisfied"`
	// Total is len(Σ); Violated lists the violated FDs in Σ order.
	Total    int            `json:"total"`
	Violated []violatedJSON `json:"violated,omitempty"`
	// Edits counts the applied edits, and the two delta lists say how
	// the verdict moved, for txn/watch responses.
	Edits          int      `json:"edits,omitempty"`
	NewlyViolated  []string `json:"newly_violated,omitempty"`
	NewlySatisfied []string `json:"newly_satisfied,omitempty"`
	// Inserted maps inserted root labels to their assigned NodeIDs, in
	// script order, so later edits can address them as "#<id>".
	Inserted []insertedJSON `json:"inserted,omitempty"`
	// Error is set when the document could not be checked at all
	// (unreadable, malformed, over-deep) — corpus sweeps emit such
	// entries instead of aborting. Satisfied is false then and the
	// violation fields are absent.
	Error string `json:"error,omitempty"`
}

type violatedJSON struct {
	FD string `json:"fd"`
	// Witness is the violating tuple-projection pair, one row per FD
	// path; present only when witnesses were requested.
	Witness []witnessJSON `json:"witness,omitempty"`
}

// witnessJSON is one path row of a witness pair; a null value is ⊥
// (the tuple has no node on that path).
type witnessJSON struct {
	Path string  `json:"path"`
	T1   *string `json:"t1"`
	T2   *string `json:"t2"`
}

type insertedJSON struct {
	Label string         `json:"label"`
	ID    xmlnorm.NodeID `json:"id"`
}

// verdictObject builds the wire shape from a violation report.
// violated must be the report for the named document state; witness
// controls whether the tuple pairs ride along.
func verdictObject(doc string, seq uint64, total int, report []xmlnorm.Violated, witness bool) verdictJSON {
	v := verdictJSON{Doc: doc, Seq: seq, Satisfied: len(report) == 0, Total: total}
	for _, r := range report {
		vj := violatedJSON{FD: r.FD.String()}
		if witness {
			vj.Witness = witnessRows(r.FD, r.Witness, tuples.Value.String)
		}
		v.Violated = append(v.Violated, vj)
	}
	return v
}

// witnessRows is the one witness-row builder: a witness pair as one
// row per path of fd (FD.Paths order), each non-null value rendered by
// render. The JSON shapes carry the rows as they are; printWitnessRows
// lays them out as text.
func witnessRows(fd xmlnorm.FD, w [2]tuples.Tuple, render func(tuples.Value) string) []witnessJSON {
	var rows []witnessJSON
	for _, p := range fd.Paths() {
		row := witnessJSON{Path: p.String()}
		if a, ok := w[0].Get(p); ok {
			s := render(a)
			row.T1 = &s
		}
		if b, ok := w[1].Get(p); ok {
			s := render(b)
			row.T2 = &s
		}
		rows = append(rows, row)
	}
	return rows
}

// printWitnessRows prints witness rows as text, one path per line with
// ⊥ for a null value: the layout of "xnf check -witness".
func printWitnessRows(w io.Writer, indent string, rows []witnessJSON) {
	orBottom := func(s *string) string {
		if s == nil {
			return "⊥"
		}
		return *s
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%s%-40s %s | %s\n", indent, r.Path, orBottom(r.T1), orBottom(r.T2))
	}
}

// addDelta fills the newly_violated / newly_satisfied lists from the
// violated index sets before and after an edit batch.
func (v *verdictJSON) addDelta(s xmlnorm.Spec, prev, cur []int) {
	was := make(map[int]bool, len(prev))
	for _, fi := range prev {
		was[fi] = true
	}
	is := make(map[int]bool, len(cur))
	for _, fi := range cur {
		is[fi] = true
	}
	for _, fi := range cur {
		if !was[fi] {
			v.NewlyViolated = append(v.NewlyViolated, s.FDs[fi].String())
		}
	}
	for _, fi := range prev {
		if !is[fi] {
			v.NewlySatisfied = append(v.NewlySatisfied, s.FDs[fi].String())
		}
	}
}

// writeJSON encodes one object per line — the CLI's -json modes and
// the serve endpoints both emit newline-delimited JSON.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	return enc.Encode(v)
}
