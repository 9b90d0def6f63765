package main

// Tests for the corpus mode ("xnf check -r"), the fragment mode
// ("xnf check -fragments"), and the exit-code contract they share with
// the single-document modes: 0 all-satisfy, 1 some-violate, 2 failed —
// with failures outranking violations in a sweep.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeCorpus lays out a small mixed corpus and returns its root.
func writeCorpus(t *testing.T, withBroken bool) string {
	t.Helper()
	dir := t.TempDir()
	ok, err := os.ReadFile(td("courses.xml"))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := os.ReadFile(filepath.Join("testdata", "courses_bad.xml"))
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{
		"a_ok.xml":      ok,
		"b_violate.xml": bad,
		"sub/c_ok.xml":  ok,
	}
	if withBroken {
		files["d_broken.xml"] = []byte("<courses><course cno=")
	}
	for name, content := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestCorpusCheckNDJSON runs -r over a mixed corpus and checks the
// NDJSON stream: one object per file in lexical walk order, the serve
// wire shape with doc/satisfied/total/violated fields, an error field
// for unparseable files, and the stderr summary.
func TestCorpusCheckNDJSON(t *testing.T) {
	dir := writeCorpus(t, true)
	stdout, stderr, runErr := captureBoth(t, func() error {
		return run([]string{"check", "-r", td("courses.spec"), dir})
	})
	if runErr == nil || errors.Is(runErr, errNegative) {
		t.Fatalf("a sweep with an unparseable file must fail (exit 2), got %v", runErr)
	}
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d NDJSON lines, want 4:\n%s", len(lines), stdout)
	}
	type verdict struct {
		Doc       string `json:"doc"`
		Satisfied bool   `json:"satisfied"`
		Total     int    `json:"total"`
		Violated  []struct {
			FD string `json:"fd"`
		} `json:"violated"`
		Error string `json:"error"`
	}
	var vs []verdict
	for _, l := range lines {
		var v verdict
		if err := json.Unmarshal([]byte(l), &v); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", l, err)
		}
		vs = append(vs, v)
	}
	wantDocs := []string{
		filepath.Join(dir, "a_ok.xml"),
		filepath.Join(dir, "b_violate.xml"),
		filepath.Join(dir, "d_broken.xml"),
		filepath.Join(dir, "sub", "c_ok.xml"),
	}
	for i, v := range vs {
		if v.Doc != wantDocs[i] {
			t.Fatalf("verdict %d is for %s, want %s (lexical walk order)", i, v.Doc, wantDocs[i])
		}
		if v.Total != 3 {
			t.Fatalf("verdict %d: total = %d, want 3", i, v.Total)
		}
	}
	if !vs[0].Satisfied || vs[0].Error != "" || len(vs[0].Violated) != 0 {
		t.Fatalf("a_ok: %+v", vs[0])
	}
	if vs[1].Satisfied || vs[1].Error != "" || len(vs[1].Violated) == 0 {
		t.Fatalf("b_violate: %+v", vs[1])
	}
	if vs[2].Satisfied || vs[2].Error == "" {
		t.Fatalf("d_broken must carry an error: %+v", vs[2])
	}
	if !vs[3].Satisfied {
		t.Fatalf("sub/c_ok: %+v", vs[3])
	}
	if !strings.Contains(stderr, "checked 4 document(s): 2 satisfied, 1 violating, 1 failed") {
		t.Fatalf("summary missing from stderr:\n%s", stderr)
	}

	// Without the broken file the sweep is merely negative (exit 1).
	dir = writeCorpus(t, false)
	stdout, _, runErr = captureBoth(t, func() error {
		return run([]string{"check", "-r", td("courses.spec"), dir})
	})
	if !errors.Is(runErr, errNegative) {
		t.Fatalf("violations without failures must exit negative, got %v", runErr)
	}
	if n := strings.Count(stdout, "\n"); n != 3 {
		t.Fatalf("got %d NDJSON lines, want 3", n)
	}

	// An all-satisfied corpus exits 0.
	clean := t.TempDir()
	ok, _ := os.ReadFile(td("courses.xml"))
	if err := os.WriteFile(filepath.Join(clean, "only.xml"), ok, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, runErr = captureBoth(t, func() error {
		return run([]string{"check", "-r", td("courses.spec"), clean})
	}); runErr != nil {
		t.Fatalf("all-satisfied sweep must exit 0, got %v", runErr)
	}
}

// TestCorpusWitness checks that -r -witness rides the witness pairs
// along in the NDJSON objects.
func TestCorpusWitness(t *testing.T) {
	dir := writeCorpus(t, false)
	stdout, _, runErr := captureBoth(t, func() error {
		return run([]string{"check", "-r", "-witness", td("courses.spec"), dir})
	})
	if !errors.Is(runErr, errNegative) {
		t.Fatalf("got %v, want negative", runErr)
	}
	if !strings.Contains(stdout, `"witness"`) {
		t.Fatalf("-witness must include witness rows:\n%s", stdout)
	}
}

// TestCorpusFlagValidation pins the flag contract around -r.
func TestCorpusFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"check", "-r", td("courses.spec")},
		{"check", "-r", "-fragments", "4", td("courses.spec"), "."},
		{"check", "-fragments", "2", td("courses.spec")},
		{"check", "-fragments", "2", "-stream", td("courses.spec"), td("courses.xml")},
	} {
		if _, _, err := captureBoth(t, func() error { return run(args) }); err == nil || errors.Is(err, errNegative) {
			t.Errorf("run(%v) must fail with a usage error, got %v", args, err)
		}
	}
}

// workerFleets starts in-process `xnf serve` workers for courses.spec
// and returns two -workers values: two live workers, and one live
// worker beside one that has shut down.
func workerFleets(t *testing.T) []string {
	t.Helper()
	spec := serveSpec(t)
	start := func() *httptest.Server {
		srv := httptest.NewServer(mustServer(t, spec).handler())
		t.Cleanup(srv.Close)
		return srv
	}
	a, b, closed := start(), start(), start()
	closed.Close()
	return []string{a.URL + "," + b.URL, a.URL + "," + closed.URL}
}

// sameRun fails the test unless two runs wrote the same stdout and
// stderr and exit with the same code.
func sameRun(t *testing.T, args []string, gotOut, gotErrS string, gotErr error, wantOut, wantErrS string, wantErr error) {
	t.Helper()
	if exitCode(gotErr) != exitCode(wantErr) {
		t.Fatalf("run(%v): err %v, reference %v", args, gotErr, wantErr)
	}
	if gotOut != wantOut || gotErrS != wantErrS {
		t.Fatalf("run(%v) output differs from the reference check:\n--- got ---\n%s\n-- stderr --\n%s\n--- want ---\n%s\n-- stderr --\n%s",
			args, gotOut, gotErrS, wantOut, wantErrS)
	}
}

// TestFragmentsMatchesWholeDocument checks that -fragments K and
// -workers produce byte-identical stdout and stderr and the same exit
// code as the whole-document check, for satisfied and violating
// documents, text, -witness, -json and -json -witness alike, across
// fragment counts and across worker fleets with and without a dead
// worker; and that a -r sweep, a malformed file included, is
// byte-identical under -workers.
func TestFragmentsMatchesWholeDocument(t *testing.T) {
	fleets := workerFleets(t)
	var variants [][]string
	for _, k := range []string{"1", "2", "7"} {
		variants = append(variants, []string{"-fragments", k})
	}
	for _, fleet := range fleets {
		variants = append(variants, []string{"-workers", fleet})
	}
	docs := []string{td("courses.xml"), filepath.Join("testdata", "courses_bad.xml")}
	for _, doc := range docs {
		for _, extra := range [][]string{nil, {"-witness"}, {"-json"}, {"-json", "-witness"}} {
			base := append(append([]string{"check"}, extra...), td("courses.spec"), doc)
			wantOut, wantErrS, wantErr := captureBoth(t, func() error { return run(base) })
			for _, v := range variants {
				args := append(append(append([]string{"check"}, v...), extra...), td("courses.spec"), doc)
				gotOut, gotErrS, gotErr := captureBoth(t, func() error { return run(args) })
				sameRun(t, args, gotOut, gotErrS, gotErr, wantOut, wantErrS, wantErr)
			}
		}
	}
	dir := writeCorpus(t, true)
	for _, extra := range [][]string{nil, {"-witness"}} {
		base := append(append([]string{"check", "-r"}, extra...), td("courses.spec"), dir)
		wantOut, wantErrS, wantErr := captureBoth(t, func() error { return run(base) })
		for _, fleet := range fleets {
			args := append(append([]string{"check", "-r", "-workers", fleet}, extra...), td("courses.spec"), dir)
			gotOut, gotErrS, gotErr := captureBoth(t, func() error { return run(args) })
			sameRun(t, args, gotOut, gotErrS, gotErr, wantOut, wantErrS, wantErr)
		}
	}
}

// TestExitCode pins the numeric contract main applies to run's error.
func TestExitCode(t *testing.T) {
	if got := exitCode(nil); got != 0 {
		t.Fatalf("exitCode(nil) = %d, want 0", got)
	}
	if got := exitCode(errNegative); got != 1 {
		t.Fatalf("exitCode(errNegative) = %d, want 1", got)
	}
	if got := exitCode(fmt.Errorf("wrapped: %w", errNegative)); got != 1 {
		t.Fatalf("exitCode(wrapped errNegative) = %d, want 1", got)
	}
	if got := exitCode(errors.New("boom")); got != 2 {
		t.Fatalf("exitCode(error) = %d, want 2", got)
	}
}
