package main

// Golden and behavioral tests for "xnf check -stream": the streaming
// document check must print byte-identical verdicts and witnesses to
// the tree path, stdin documents must take the streaming path, and
// malformed or over-deep input must exit through the error path (exit
// code 2), not the negative-result path (exit code 1).

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmlnorm/internal/xmltree"
)

// TestStreamGolden pins the -stream flag matrix against golden files,
// across worker counts (the engine's options only affect the tree
// path, but must never change streaming output either).
func TestStreamGolden(t *testing.T) {
	bad := filepath.Join("testdata", "courses_bad.xml")
	cases := []struct {
		golden   string
		args     []string
		negative bool
	}{
		{"check_stream_ok.golden", []string{"check", "-stream", td("courses.spec"), td("courses.xml")}, false},
		{"check_stream_ok.golden", []string{"check", "-stream", "-witness", td("courses.spec"), td("courses.xml")}, false},
		{"check_stream_ok.golden", []string{"check", "-stream", "-maxdepth", "64", td("courses.spec"), td("courses.xml")}, false},
		{"check_stream_bad.golden", []string{"check", "-stream", "-witness", td("courses.spec"), bad}, true},
	}
	configs := [][]string{
		nil,
		{"-parallel", "1"},
		{"-parallel", "8"},
	}
	for _, c := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range configs {
			args := append(append([]string{}, cfg...), c.args...)
			stdout, stderr, runErr := captureBoth(t, func() error { return run(args) })
			if c.negative != errors.Is(runErr, errNegative) {
				t.Errorf("run(%v): err = %v, want negative=%v", args, runErr, c.negative)
				continue
			}
			if !c.negative && runErr != nil {
				t.Errorf("run(%v): %v", args, runErr)
				continue
			}
			got := stdout + "-- stderr --\n" + stderr
			if got != string(want) {
				t.Errorf("run(%v) output differs from %s:\n--- got ---\n%s\n--- want ---\n%s",
					args, c.golden, got, want)
			}
		}
	}
}

// TestStreamMatchesTreeOutput: on a conforming, violating document the
// tree and streaming modes must print byte-identical verdict and
// witness blocks.
func TestStreamMatchesTreeOutput(t *testing.T) {
	bad := filepath.Join("testdata", "courses_bad.xml")
	treeOut, _, treeErr := captureBoth(t, func() error {
		return run([]string{"check", "-witness", td("courses.spec"), bad})
	})
	streamOut, _, streamErr := captureBoth(t, func() error {
		return run([]string{"check", "-stream", "-witness", td("courses.spec"), bad})
	})
	if !errors.Is(treeErr, errNegative) || !errors.Is(streamErr, errNegative) {
		t.Fatalf("errors: tree %v, stream %v", treeErr, streamErr)
	}
	if treeOut != streamOut {
		t.Fatalf("outputs differ\n--- tree ---\n%s\n--- stream ---\n%s", treeOut, streamOut)
	}
}

// stdinFile writes input to a temp file for the shared withStdin
// helper (watch_test.go), which feeds os.Stdin from a file.
func stdinFile(t *testing.T, input string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "stdin.xml")
	if err := os.WriteFile(p, []byte(input), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStreamStdinDefault: "-" documents stream by default — proven by
// feeding a document that violates DTD conformance but satisfies Σ:
// the tree path would refuse it, the streaming path (which checks Σ
// only) accepts it.
func TestStreamStdinDefault(t *testing.T) {
	nonConforming := "<courses><course cno=\"c1\"><title>T</title></course></courses>"
	stdout, _, err := captureBoth(t, func() error {
		return withStdin(t, stdinFile(t, nonConforming), func() error {
			return run([]string{"check", td("courses.spec"), "-"})
		})
	})
	if err != nil {
		t.Fatalf("stdin check: %v", err)
	}
	if stdout != "satisfies all 3 FD(s)\n" {
		t.Fatalf("stdout = %q", stdout)
	}
	// Sanity: the same document through the tree path is refused.
	f := filepath.Join(t.TempDir(), "doc.xml")
	if err := os.WriteFile(f, []byte(nonConforming), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, treeErr := captureBoth(t, func() error {
		return run([]string{"check", td("courses.spec"), f})
	})
	if treeErr == nil || !strings.Contains(treeErr.Error(), "does not conform") {
		t.Fatalf("tree path: %v", treeErr)
	}
	// And a violating stdin document still reports witnesses.
	badBytes, err := os.ReadFile(filepath.Join("testdata", "courses_bad.xml"))
	if err != nil {
		t.Fatal(err)
	}
	stdout, _, err = captureBoth(t, func() error {
		return withStdin(t, stdinFile(t, string(badBytes)), func() error {
			return run([]string{"check", "-witness", td("courses.spec"), "-"})
		})
	})
	if !errors.Is(err, errNegative) {
		t.Fatalf("violating stdin: err = %v", err)
	}
	if !strings.Contains(stdout, `"Deere" | "John"`) {
		t.Fatalf("missing witness in:\n%s", stdout)
	}
}

// TestStreamErrorPaths: malformed and over-deep input exit through the
// error path (exit code 1 in main), with typed errors underneath.
func TestStreamErrorPaths(t *testing.T) {
	dir := t.TempDir()
	malformed := filepath.Join(dir, "malformed.xml")
	if err := os.WriteFile(malformed, []byte("<courses><course>"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := captureBoth(t, func() error {
		return run([]string{"check", "-stream", td("courses.spec"), malformed})
	})
	var me *xmltree.MalformedError
	if !errors.As(err, &me) {
		t.Fatalf("malformed: err = %v, want MalformedError", err)
	}
	if errors.Is(err, errNegative) {
		t.Fatal("malformed input must not exit through the negative-result path")
	}

	deep := filepath.Join(dir, "deep.xml")
	if err := os.WriteFile(deep, []byte(strings.Repeat("<courses>", 5)+strings.Repeat("</courses>", 5)), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = captureBoth(t, func() error {
		return run([]string{"check", "-stream", "-maxdepth", "3", td("courses.spec"), deep})
	})
	var de *xmltree.DepthError
	if !errors.As(err, &de) {
		t.Fatalf("deep: err = %v, want DepthError", err)
	}
}
