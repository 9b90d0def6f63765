// Package bench implements the experiment harness: one function per
// table/figure/claim of the paper (see DESIGN.md's per-experiment
// index). Each experiment returns a Table recording the paper's claim
// and the measured outcome; cmd/experiments prints them all and
// EXPERIMENTS.md records a reference run. The root bench_test.go wraps
// the paper's experiments E1–E15 as testing.B benchmarks.
package bench

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Row is one table row.
type Row []string

// Table is one experiment's result.
type Table struct {
	ID     string // e.g. "E6"
	Title  string
	Claim  string // what the paper asserts
	Header Row
	Rows   []Row
	Notes  string
	// Mismatches lists reproduction checks that failed (see Expect);
	// empty for a clean run. cmd/experiments exits nonzero when any
	// table carries mismatches, so CI can gate on the suite.
	Mismatches []string
}

// Expect records one reproduction check: when cond is false the table
// is marked mismatched with the formatted explanation.
func (t *Table) Expect(cond bool, format string, a ...any) {
	if !cond {
		t.Mismatches = append(t.Mismatches, fmt.Sprintf(format, a...))
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(&b, "paper: %s\n", t.Claim)
	widths := make([]int, len(t.Header))
	rows := append([]Row{t.Header}, t.Rows...)
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(r Row) {
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make(Row, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	for _, m := range t.Mismatches {
		fmt.Fprintf(&b, "MISMATCH: %s\n", m)
	}
	return b.String()
}

// timeIt runs f repeatedly until at least minDuration has elapsed (or
// maxReps runs) and returns the average duration per run.
func timeIt(f func() error) (time.Duration, error) {
	const minDuration = 20 * time.Millisecond
	const maxReps = 1000
	start := time.Now()
	reps := 0
	for reps == 0 || (time.Since(start) < minDuration && reps < maxReps) {
		if err := f(); err != nil {
			return 0, err
		}
		reps++
	}
	return time.Since(start) / time.Duration(reps), nil
}

// ms formats a duration in fractional milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000.0)
}

// growth returns the log-log slope between two (size, time) points: the
// locally fitted polynomial exponent.
func growth(size1 int, t1 time.Duration, size2 int, t2 time.Duration) string {
	if size1 <= 0 || size2 <= size1 || t1 <= 0 || t2 <= 0 {
		return "-"
	}
	num := math.Log(float64(t2) / float64(t1))
	den := math.Log(float64(size2) / float64(size1))
	if den == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", num/den)
}
