package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// captureBoth runs fn with stdout and stderr redirected and returns
// both streams.
func captureBoth(t *testing.T, fn func() error) (stdout, stderr string, err error) {
	t.Helper()
	oldOut, oldErr := os.Stdout, os.Stderr
	outR, outW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	errR, errW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout, os.Stderr = outW, errW
	outC := make(chan string, 1)
	errC := make(chan string, 1)
	go func() { b, _ := io.ReadAll(outR); outC <- string(b) }()
	go func() { b, _ := io.ReadAll(errR); errC <- string(b) }()
	runErr := fn()
	outW.Close()
	errW.Close()
	os.Stdout, os.Stderr = oldOut, oldErr
	stdout, stderr = <-outC, <-errC
	outR.Close()
	errR.Close()
	return stdout, stderr, runErr
}

// TestGoldenOutput pins the CLI's observable behavior on the paper's
// two specifications, plus the analysis of chain-7 ("xnfgen chain
// -depth 7 -attrs 2"), whose 14-column flat image is the first pinned
// one wide enough to make the 4NF sweep cost anything, and of chain-18
// (-depth 18), whose 36-column image asks 630 implication queries, most
// of them refuted from cached counterexamples, and three "xnf implies"
// answers, whose counterexample documents number their values in the
// closure's pre-order of paths(D): stdout, stderr
// and the negative-result signal must match the recorded golden files
// byte for byte, in the default configuration and at -parallel 1, 4
// and 8 (the worker count must never change answers or output).
func TestGoldenOutput(t *testing.T) {
	cases := []struct {
		golden   string
		args     []string
		negative bool // command exits with the negative-result code
	}{
		{"check_courses.golden", []string{"check", td("courses.spec")}, true},
		{"check_dblp.golden", []string{"check", td("dblp.spec")}, true},
		{"normalize_courses.golden", []string{"normalize", "-v", td("courses.spec")}, false},
		{"normalize_dblp.golden", []string{"normalize", "-v", td("dblp.spec")}, false},
		{"analyze_courses.golden", []string{"analyze", "-witness", td("courses.spec")}, true},
		{"analyze_courses_json.golden", []string{"analyze", "-json", "-witness", td("courses.spec")}, true},
		{"analyze_dblp.golden", []string{"analyze", td("dblp.spec")}, true},
		{"analyze_dblp_json.golden", []string{"analyze", "-json", td("dblp.spec")}, true},
		{"analyze_chain7.golden", []string{"analyze", td("chain7.spec")}, true},
		{"analyze_chain7_json.golden", []string{"analyze", "-json", "-witness", td("chain7.spec")}, true},
		{"analyze_chain18.golden", []string{"analyze", td("chain18.spec")}, true},
		{"implies_dblp_refuted.golden", []string{"implies", td("dblp.spec"), "db.conf.issue -> db.conf.issue.inproceedings"}, true},
		{"implies_courses_refuted.golden", []string{"implies", td("courses.spec"),
			"courses.course.taken_by.student.@sno -> courses.course.taken_by.student"}, true},
		{"implies_dblp_implied.golden", []string{"implies", td("dblp.spec"),
			"db.conf.issue.inproceedings.@key -> db.conf.issue.inproceedings.@year"}, false},
	}
	configs := [][]string{
		nil, // defaults: GOMAXPROCS workers
		{"-parallel", "1"},
		{"-parallel", "8"},
		{"-parallel", "4"},
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
