package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmlnorm/internal/paperdata"
)

// capture runs fn with stdout redirected and returns what it printed.
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

func td(name string) string { return filepath.Join(paperdata.Dir(), name) }

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"check"},
		{"check", "a", "b"},
		{"implies", "only-one"},
		{"tuples", "one"},
		{"redundancy"},
		{"validate", "x"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want usage error", args)
		}
	}
}

func TestCheckCommand(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"check", td("courses.spec")}) })
	if !errors.Is(err, errNegative) {
		t.Fatalf("check courses.spec: err = %v, want negative result", err)
	}
	if !strings.Contains(out, "NOT in XNF") || !strings.Contains(out, "@sno") {
		t.Errorf("output = %q", out)
	}
	// A DTD with no FDs is trivially in XNF.
	out, err = capture(t, func() error { return run([]string{"check", td("courses.dtd")}) })
	if err != nil {
		t.Fatalf("check courses.dtd: %v", err)
	}
	if !strings.Contains(out, "in XNF") {
		t.Errorf("output = %q", out)
	}
}

func TestNormalizeCommand(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"normalize", td("dblp.spec")}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "<!ATTLIST issue") {
		t.Errorf("normalized DBLP should put year on issue:\n%s", out)
	}
	if strings.Contains(out, "db.conf.issue -> db.conf.issue.@year") {
		t.Error("trivial FD kept in output")
	}
	// Simplified variant also works.
	if _, err := capture(t, func() error {
		return run([]string{"normalize", "-simplified", td("dblp.spec")})
	}); err != nil {
		t.Fatal(err)
	}
}

func TestImpliesCommand(t *testing.T) {
	_, err := capture(t, func() error {
		return run([]string{"implies", td("dblp.spec"),
			"db.conf.issue.inproceedings.@key -> db.conf.issue.inproceedings.@year"})
	})
	if err != nil {
		t.Fatalf("implied query: %v", err)
	}
	out, err := capture(t, func() error {
		return run([]string{"implies", td("dblp.spec"),
			"db.conf.issue -> db.conf.issue.inproceedings"})
	})
	if !errors.Is(err, errNegative) {
		t.Fatalf("non-implied query: err = %v", err)
	}
	if !strings.Contains(out, "counterexample") {
		t.Errorf("output = %q", out)
	}
	if err := run([]string{"implies", td("dblp.spec"), "not an fd"}); err == nil {
		t.Error("bad FD accepted")
	}
	out, err = capture(t, func() error {
		return run([]string{"implies", td("dblp.spec"), "db.conf.nope -> db.conf"})
	})
	const want = `implication: query db.conf.nope -> db.conf: "db.conf.nope" is not a path of the DTD`
	if exitCode(err) != 2 || fmt.Sprint(err) != want || out != "" {
		t.Errorf("out-of-DTD path: exit %d, err %v, output %q; want exit 2 with %q", exitCode(err), err, out, want)
	}
}

func TestClassifyCommand(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"classify", td("ebxml.dtd")}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "simple:      true") {
		t.Errorf("ebXML should classify simple:\n%s", out)
	}
}

func TestTuplesCommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"tuples", td("courses.spec"), td("courses.xml")})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "4 maximal tuple(s)") {
		t.Errorf("output = %q", out)
	}
	if !strings.Contains(out, `"Deere"`) {
		t.Errorf("tuple values missing:\n%s", out)
	}
}

func TestRedundancyCommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"redundancy", td("courses.spec"), td("courses.xml")})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "total redundant values: 1") {
		t.Errorf("output = %q", out)
	}
}

func TestTransformCommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"transform", td("courses.spec"), td("courses.xml")})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "<info") && !strings.Contains(out, "<name_info") {
		t.Errorf("transformed document missing the new grouping element:\n%s", out)
	}
	// Non-conforming document is rejected.
	if err := run([]string{"transform", td("courses.spec"), td("dblp.xml")}); err == nil {
		t.Error("mismatched document accepted")
	}
}

func TestValidateCommand(t *testing.T) {
	_, err := capture(t, func() error {
		return run([]string{"validate", td("courses.spec"), td("courses.xml")})
	})
	if err != nil {
		t.Fatal(err)
	}
	// The Figure 1(b) document does not conform to the original DTD.
	if err := run([]string{"validate", td("courses.spec"), td("courses_xnf.xml")}); err == nil {
		t.Error("nonconforming document accepted")
	}
	// Missing files.
	if err := run([]string{"validate", "nosuchfile", td("courses.xml")}); err == nil {
		t.Error("missing spec accepted")
	}
}

func TestNormalizeReportFlag(t *testing.T) {
	// The preservation report goes to stderr; here we only assert the
	// command succeeds and still prints the spec.
	out, err := capture(t, func() error {
		return run([]string{"normalize", "-report", td("dblp.spec")})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "<!ATTLIST issue") {
		t.Errorf("spec output missing:\n%s", out)
	}
}

func TestCoverCommand(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"cover", td("courses.spec")}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "courses.course.@cno -> courses.course") {
		t.Errorf("cover output = %q", out)
	}
	if err := run([]string{"cover"}); err == nil {
		t.Error("missing argument accepted")
	}
}

// TestAnalyzeFlags covers the flags of "xnf analyze" the golden files
// leave at their defaults: a declared flat -mvd joins the 4XNF image,
// an -mvd naming a path outside paths(D) and a negative -maxkey are
// failures (exit 2), not silently skipped or defaulted.
func TestAnalyzeFlags(t *testing.T) {
	const flat = "courses.course.@cno ->> courses.course.title.S"
	out, err := capture(t, func() error { return run([]string{"analyze", "-mvd", flat, td("courses.spec")}) })
	if !errors.Is(err, errNegative) {
		t.Fatalf("analyze -mvd %q: err = %v, want negative result", flat, err)
	}
	if !strings.Contains(out, "  image mvd "+flat+"\n") {
		t.Errorf("analyze -mvd %q: no image mvd line in\n%s", flat, out)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"analyze", "-mvd", "courses.nope.@x ->> courses.course.title.S", td("courses.spec")},
			`"courses.nope.@x" is not a path of the DTD`},
		{[]string{"analyze", "-mvd", "courses.course.@cno ->> courses.course.nope.S", td("courses.spec")},
			`"courses.course.nope.S" is not a path of the DTD`},
		{[]string{"analyze", "-maxkey", "-3", td("courses.spec")}, "-maxkey -3"},
	} {
		out, err := capture(t, func() error { return run(c.args) })
		if exitCode(err) != 2 || !strings.Contains(fmt.Sprint(err), c.want) {
			t.Errorf("run(%v): exit %d, err %v; want exit 2 with %q", c.args, exitCode(err), err, c.want)
		}
		if out != "" {
			t.Errorf("run(%v) printed a report:\n%s", c.args, out)
		}
	}
}

// TestNumericFlags pins the numeric flags beside analyze -maxkey: a
// non-positive serve -poll, a negative check -fragments and a negative
// global -parallel exit 2 with a message naming the flag, before any
// work or output.
func TestNumericFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"serve", "-addr", "127.0.0.1:0", "-poll", "0", "-follow", "f=" + td("courses.xml"), td("courses.spec")}, "-poll 0s"},
		{[]string{"serve", "-addr", "127.0.0.1:0", "-poll", "-1s", "-follow", "f=" + td("courses.xml"), td("courses.spec")}, "-poll -1s"},
		{[]string{"check", "-fragments", "-3", td("courses.spec"), td("courses.xml")}, "-fragments -3"},
		{[]string{"-parallel", "-4", "check", td("courses.spec")}, "-parallel -4"},
	} {
		out, err := capture(t, func() error { return run(c.args) })
		if exitCode(err) != 2 || !strings.Contains(fmt.Sprint(err), c.want) {
			t.Errorf("run(%v): exit %d, err %v; want exit 2 with %q", c.args, exitCode(err), err, c.want)
		}
		if out != "" {
			t.Errorf("run(%v) printed:\n%s", c.args, out)
		}
	}
}

// wideSpec renders a WideDTD-shaped spec: root r with width starred
// EMPTY children c<i> carrying one attribute each, and σ chaining the
// labels (r.c_i.@a_i_0 -> r.c_{i+1}.@a_{i+1}_0) into one
// branch-sharing cluster.
func wideSpec(width int) string {
	var b strings.Builder
	b.WriteString("<!ELEMENT r (")
	for i := 0; i < width; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "c%d*", i)
	}
	b.WriteString(")>\n")
	for i := 0; i < width; i++ {
		fmt.Fprintf(&b, "<!ELEMENT c%d EMPTY>\n<!ATTLIST c%d a%d_0 CDATA #REQUIRED>\n", i, i, i)
	}
	b.WriteString("%%\n")
	for i := 0; i+1 < width; i++ {
		fmt.Fprintf(&b, "r.c%d.@a%d_0 -> r.c%d.@a%d_0\n", i, i, i+1, i+1)
	}
	return b.String()
}

// wideDocXML renders a conforming document with m children per label,
// attribute values constant per label, so the chained σ holds and the
// maximal-tuple count is m^width.
func wideDocXML(width, m int) string {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < width; i++ {
		for j := 0; j < m; j++ {
			fmt.Fprintf(&b, "<c%d a%d_0=\"v%d\"/>", i, i, i)
		}
	}
	b.WriteString("</r>")
	return b.String()
}

// TestCheckDocumentStreaming covers the document mode of "xnf check":
// the streaming σ check must decide a document whose maximal-tuple
// count (8^7 = 2097152) is past the materialization cap that still
// makes "xnf tuples" refuse the very same document, must print
// deterministic witnesses on violations at every -parallel setting,
// and must exit with the negative-result code iff some FD is violated.
func TestCheckDocumentStreaming(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Over-cap family: streaming check succeeds, tuple materialization refuses.
	spec7 := write("wide7.spec", wideSpec(7))
	doc7 := write("wide7.xml", wideDocXML(7, 8))
	out, err := capture(t, func() error { return run([]string{"check", spec7, doc7}) })
	if err != nil {
		t.Fatalf("check over-cap doc: %v", err)
	}
	if !strings.Contains(out, "satisfies all 6 FD(s)") {
		t.Fatalf("check over-cap doc: output %q", out)
	}
	if err := run([]string{"tuples", spec7, doc7}); err == nil || !strings.Contains(err.Error(), "tuples") {
		t.Fatalf("tuples on the over-cap doc should hit the materialization cap, got %v", err)
	}

	// Violations: negative exit, witness printing, -parallel determinism.
	spec2 := write("wide2.spec", wideSpec(2))
	bad := write("bad.xml", `<r><c0 a0_0="x"/><c0 a0_0="x"/><c1 a1_0="p"/><c1 a1_0="q"/></r>`)
	var outputs []string
	for _, cfg := range [][]string{{"-parallel", "1"}, {"-parallel", "8"}, nil} {
		args := append(append([]string{}, cfg...), "check", "-witness", spec2, bad)
		out, err := capture(t, func() error { return run(args) })
		if !errors.Is(err, errNegative) {
			t.Fatalf("run(%v): err = %v, want negative result", args, err)
		}
		outputs = append(outputs, out)
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("check -witness output differs across -parallel settings:\n--- a ---\n%s\n--- b ---\n%s",
				outputs[0], outputs[i])
		}
	}
	if !strings.Contains(outputs[0], "violates 1 of 1 FD(s)") ||
		!strings.Contains(outputs[0], "witness tuple pair") ||
		!strings.Contains(outputs[0], `"p" | "q"`) {
		t.Fatalf("check -witness output %q", outputs[0])
	}

	// A satisfied small document: positive exit, no witness section.
	good := write("good.xml", `<r><c0 a0_0="x"/><c1 a1_0="p"/><c1 a1_0="p"/></r>`)
	out, err = capture(t, func() error { return run([]string{"check", spec2, good}) })
	if err != nil {
		t.Fatalf("check good doc: %v", err)
	}
	if !strings.Contains(out, "satisfies all 1 FD(s)") {
		t.Fatalf("check good doc: output %q", out)
	}
}
