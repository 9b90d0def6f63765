package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmlnorm/internal/paperdata"
)

func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	r.Close()
	return out, runErr
}

func TestWorkloads(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"university", "-courses", "3", "-students", "2"}, "<course"},
		{[]string{"dblp", "-confs", "1", "-issues", "2", "-papers", "2"}, "<inproceedings"},
		{[]string{"chain", "-depth", "3", "-attrs", "2"}, "%%"},
		{[]string{"disjunctive", "-groups", "2", "-branches", "2"}, "<!ELEMENT p"},
		{[]string{"document", "-spec", filepath.Join(paperdata.Dir(), "courses.spec"), "-seed", "7"}, "<courses"},
	}
	for _, c := range cases {
		out, err := capture(t, func() error { return run(c.args) })
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if !strings.Contains(out, c.want) {
			t.Errorf("%v: output missing %q:\n%s", c.args, c.want, out)
		}
	}
}

func TestUsage(t *testing.T) {
	for _, args := range [][]string{{}, {"nope"}, {"document"}} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

// TestRejectsSizes holds every size flag to the least value its
// generator can honour: below it the command fails with an error naming
// the flag and prints nothing. Without the check the generators panic
// (chain -depth -1, university -students -1), clamp the value silently
// (document -values 0 draws from three values), or print a spec whose
// FDs name undeclared attributes (chain -attrs 0).
func TestRejectsSizes(t *testing.T) {
	spec := filepath.Join(paperdata.Dir(), "courses.spec")
	cases := []struct {
		args []string
		flag string
	}{
		{[]string{"chain", "-depth", "-1"}, "-depth"},
		{[]string{"chain", "-attrs", "0"}, "-attrs"},
		{[]string{"university", "-students", "-1"}, "-students"},
		{[]string{"university", "-courses", "-1"}, "-courses"},
		{[]string{"university", "-students", "10", "-pool", "3"}, "-pool"},
		{[]string{"university", "-names", "0"}, "-names"},
		{[]string{"dblp", "-papers", "-1"}, "-papers"},
		{[]string{"disjunctive", "-branches", "0"}, "-branches"},
		{[]string{"document", "-spec", spec, "-values", "0"}, "-values"},
		{[]string{"document", "-spec", spec, "-repeat", "0"}, "-repeat"},
	}
	for _, c := range cases {
		out, err := capture(t, func() error { return run(c.args) })
		if err == nil {
			t.Errorf("%v: succeeded", c.args)
			continue
		}
		if !strings.Contains(err.Error(), c.flag+" ") {
			t.Errorf("%v: error %q does not name %s", c.args, err, c.flag)
		}
		if out != "" {
			t.Errorf("%v: printed %d bytes on failure", c.args, len(out))
		}
	}
	// The least honoured sizes still generate.
	for _, args := range [][]string{
		{"chain", "-depth", "0", "-attrs", "1"},
		{"university", "-courses", "0", "-students", "0", "-pool", "0", "-names", "1"},
		{"disjunctive", "-groups", "0", "-branches", "1"},
	} {
		if _, err := capture(t, func() error { return run(args) }); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}
