package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestNegativeParallelRejected: a negative worker count is a usage
// error raised before any table runs, with xnf's wording.
func TestNegativeParallelRejected(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"-parallel", "-3", "E13"}, &out)
	if err == nil || code == 0 {
		t.Fatalf("-parallel -3: exit %d, err %v; want a nonzero exit and an error", code, err)
	}
	if want := "-parallel -3: the worker count must be 0 (GOMAXPROCS) or positive"; err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
	if out.Len() != 0 {
		t.Errorf("a table ran before the flag was rejected:\n%s", out.String())
	}
}

// TestRetiredExperimentUnknown: E18 is not in the suite, and the error
// lists the IDs that are.
func TestRetiredExperimentUnknown(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"E18"}, &out)
	if err == nil || code == 0 {
		t.Fatalf("E18: exit %d, err %v; want an unknown-experiment error", code, err)
	}
	for _, want := range []string{`unknown experiment "E18"`, "E1, E2, E3", "E15, E16)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q lacks %q", err, want)
		}
	}
	if out.Len() != 0 {
		t.Errorf("a table ran:\n%s", out.String())
	}
}

// TestSelectedTableRuns: a known ID prints that table only and exits 0.
func TestSelectedTableRuns(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"-parallel", "1", "E13"}, &out)
	if err != nil || code != 0 {
		t.Fatalf("E13: exit %d, err %v", code, err)
	}
	if got := out.String(); !strings.HasPrefix(got, "== E13: ") || strings.Count(got, "== E") != 1 {
		t.Errorf("output is not the E13 table alone:\n%s", got)
	}
}
