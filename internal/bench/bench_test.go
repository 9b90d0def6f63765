package bench

import (
	"strings"
	"testing"
	"time"

	"xmlnorm/internal/xnf"
)

func TestTableString(t *testing.T) {
	tab := &Table{
		ID:     "EX",
		Title:  "demo",
		Claim:  "alignment works",
		Header: Row{"col", "value"},
		Rows:   []Row{{"a", "1"}, {"longer", "22"}},
		Notes:  "a note",
	}
	out := tab.String()
	for _, want := range []string{"== EX: demo ==", "paper: alignment works", "col", "longer", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Columns aligned: the header and first row start the second column
	// at the same offset.
	lines := strings.Split(out, "\n")
	var header, row string
	for _, l := range lines {
		if strings.HasPrefix(l, "col") {
			header = l
		}
		if strings.HasPrefix(l, "longer") {
			row = l
		}
	}
	if strings.Index(header, "value") != strings.Index(row, "22") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestGrowth(t *testing.T) {
	// Doubling size, quadrupling time: exponent 2.
	if got := growth(10, 100*time.Millisecond, 20, 400*time.Millisecond); got != "2.00" {
		t.Errorf("growth = %s, want 2.00", got)
	}
	if got := growth(0, 0, 20, time.Second); got != "-" {
		t.Errorf("degenerate growth = %s", got)
	}
}

func TestSpecLoaders(t *testing.T) {
	for _, load := range []func() (xnf.Spec, error){CoursesSpec, DBLPSpec} {
		s, err := load()
		if err != nil {
			t.Fatal(err)
		}
		if s.DTD == nil || len(s.FDs) != 3 {
			t.Fatalf("spec = %+v", s)
		}
	}
}

// TestFastExperiments runs the quick experiments end to end to keep the
// harness itself covered, and fails on any of their MISMATCH checks
// (the slow sweeps run under cmd/experiments, whose CI step runs the
// whole suite).
func TestFastExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments")
	}
	for _, e := range []func() (*Table, error){
		E13EbXML,
		func() (*Table, error) { return E4NNF(8) },
		func() (*Table, error) { return E5BCNF(20) },
		E11SimplifiedVsFull,
	} {
		tab, err := e()
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) == 0 || tab.ID == "" {
			t.Errorf("experiment %s produced no rows", tab.ID)
		}
		for _, m := range tab.Mismatches {
			t.Errorf("%s: MISMATCH: %s", tab.ID, m)
		}
	}
	// E13's substantive assertion: ebXML simple, FAQ not.
	tab, err := E13EbXML()
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0][1] != "true" || tab.Rows[1][1] != "false" {
		t.Errorf("E13 rows wrong: %v", tab.Rows)
	}
}

// TestPaperExamplesExact asserts the headline claims of E1/E2/E15: the
// paper DTDs are reproduced exactly, redundancy vanishes, and every
// design study ends in XNF.
func TestPaperExamplesExact(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments")
	}
	e1, err := E1University()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range e1.Rows {
		if row[3] != "0" || row[5] != "true" {
			t.Errorf("E1 row %v: want redundancy-after 0 and exact DTD", row)
		}
	}
	e2, err := E2DBLP()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range e2.Rows {
		if row[4] != "0" || row[5] != "move-attribute" || row[6] != "true" {
			t.Errorf("E2 row %v: want move-attribute, redundancy 0, exact DTD", row)
		}
	}
	e15, err := E15DesignStudies()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range e15.Rows {
		if row[4] != "true" {
			t.Errorf("E15 row %v: repair did not reach XNF", row)
		}
	}
}
