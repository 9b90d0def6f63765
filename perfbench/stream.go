package main

// stream_log: "xnf check -stream <log.spec> <doc>" over gen.SizedLog
// documents of about 16 MB, alternating satisfied and violating, one
// invocation at a time. The tokenizer-bound steady-state path; at this
// size an invocation takes about a second, so a run times a few dozen.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"xmlnorm/internal/gen"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

const (
	logBytes   = 16 << 20 // document size target
	logKeys    = 4096     // distinct entry keys
	logPadding = 64       // <detail> padding bytes per entry

	warmups   = 3 // untimed set-up invocations or set-ups per run
	minOps    = 3 // timed operations per run, however long they take
	minRounds = 3 // traced rounds per run
)

// logDoc is one generated log document and its verdict by construction.
type logDoc struct {
	path    string
	violate bool
	size    int64
}

// logSpecText is the spec the log documents are checked against.
func logSpecText() string {
	return gen.LogDTD().String() + "%%\n" + xfd.FormatSet(gen.LogFDs())
}

// writeLogDocs writes the satisfied and the violating document for the
// seed into dir. A violating document ends in a conflicting duplicate
// of key 0, so with enough entries per key both FDs are violated.
func writeLogDocs(dir string, seed, target int64, keys int) ([]logDoc, error) {
	var docs []logDoc
	for i, violate := range []bool{false, true} {
		path := filepath.Join(dir, fmt.Sprintf("log%d.xml", i))
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		n, err := io.Copy(f, gen.SizedLog(target, 2*seed+int64(i), keys, logPadding, violate))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("write %s: %w", path, err)
		}
		docs = append(docs, logDoc{path: path, violate: violate, size: n})
	}
	return docs, nil
}

// streamInputs writes the spec and the documents of one run.
func streamInputs(e *env, o *outcome) (string, []logDoc, error) {
	target, keys := int64(logBytes), logKeys
	if e.smoke {
		target, keys = 256<<10, 64
	}
	spec := filepath.Join(e.work, "log.spec")
	if err := os.WriteFile(spec, []byte(logSpecText()), 0o644); err != nil {
		return "", nil, err
	}
	docs, err := writeLogDocs(e.work, e.seed, target, keys)
	if err != nil {
		return "", nil, err
	}
	o.inputs["doc_bytes"] = []int64{docs[0].size, docs[1].size}
	o.inputs["keys"] = keys
	o.inputs["padding"] = logPadding
	return spec, docs, nil
}

// logExpect is the exit code and output "xnf check -stream" must give.
func logExpect(violate bool) (int, string) {
	fds := gen.LogFDs()
	if !violate {
		return 0, fmt.Sprintf("satisfies all %d FD(s)\n", len(fds))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "violates %d of %d FD(s)\n", len(fds), len(fds))
	for _, f := range fds {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return 1, b.String()
}

// streamOracle checks one invocation's exit code and verdict text.
func streamOracle(o *outcome, d logDoc, inv invocation) {
	code, text := logExpect(d.violate)
	o.check(inv.exit == code && string(inv.stdout) == text,
		"check -stream %s: exit %d, output %q; want exit %d, output %q",
		filepath.Base(d.path), inv.exit, inv.stdout, code, text)
}

func runStream(e *env) (*outcome, error) {
	o := newOutcome()
	spec, docs, err := streamInputs(e, o)
	if err != nil {
		return nil, err
	}
	err = cliRun(e, o, func(i int) (invocation, float64, error) {
		d := docs[i%len(docs)]
		inv, err := e.xnfRun("check", "-stream", spec, d.path)
		if err != nil {
			return inv, 0, err
		}
		streamOracle(o, d, inv)
		return inv, float64(d.size) / 1e6, nil
	})
	return o, err
}

func traceStream(e *env, tr *tracer) (*outcome, error) {
	o := newOutcome()
	spec, docs, err := streamInputs(e, o)
	if err != nil {
		return nil, err
	}
	bufs := make([][]byte, len(docs))
	for i, d := range docs {
		if bufs[i], err = os.ReadFile(d.path); err != nil {
			return nil, err
		}
	}
	fds := gen.LogFDs()
	var cs *xfd.CheckerSet
	for i := 0; i < 20; i++ {
		tr.timed("xfd.NewCheckerSetFor", 0, func() { cs, err = xfd.NewCheckerSetFor(fds) })
		if err != nil {
			return nil, err
		}
	}
	o.metrics["xfd.num_clusters"] = float64(cs.NumClusters())
	pr := cs.ClusterProjector(0)
	limit := xfd.ReaderOptions{}.Limit()

	// Counts, on the satisfied document: they repeat exactly per seed.
	mallocs, err := countMallocs(func() error {
		return xmltree.WalkTokens(bytes.NewReader(bufs[0]), limit, xmltree.TokenCallbacks{})
	})
	if err != nil {
		return nil, err
	}
	o.metrics["xmltree.allocs_per_mb"] = float64(mallocs) / (float64(len(bufs[0])) / 1e6)
	yielded := 0
	if err := pr.StreamTokens(bytes.NewReader(bufs[0]), limit, func(tuples.Tuple) bool { yielded++; return true }); err != nil {
		return nil, err
	}
	o.metrics["tuples.tuples_yielded"] = float64(yielded)

	deadline := time.Now().Add(e.seconds)
	for r := 0; r < minRounds || time.Now().Before(deadline); r++ {
		d, buf := docs[r%len(docs)], bufs[r%len(docs)]
		round := tr.begin("round", 0)
		tr.timed("xmltree.WalkTokens", round, func() {
			err = xmltree.WalkTokens(bytes.NewReader(buf), limit, xmltree.TokenCallbacks{})
		})
		if err != nil {
			return nil, err
		}
		tr.timed("tuples.StreamTokens", round, func() {
			err = pr.StreamTokens(bytes.NewReader(buf), limit, func(tuples.Tuple) bool { return true })
		})
		if err != nil {
			return nil, err
		}
		var vs []xfd.Violated
		tr.timed("xfd.ViolationsReader", round, func() { vs, err = cs.ViolationsReader(bytes.NewReader(buf), xfd.ReaderOptions{}) })
		if err != nil {
			return nil, err
		}
		want := 0
		if d.violate {
			want = len(fds)
		}
		o.check(len(vs) == want, "ViolationsReader %s: %d violated, want %d", filepath.Base(d.path), len(vs), want)
		var inv invocation
		tr.timed("cmd.xnf", round, func() { inv, err = e.xnfRun("check", "-stream", spec, d.path) })
		if err != nil {
			return nil, err
		}
		streamOracle(o, d, inv)
		tr.end(round)
	}
	self := tr.roundSelfTimes([]string{"cmd.xnf", "xfd.ViolationsReader", "tuples.StreamTokens", "xmltree.WalkTokens"})
	o.metrics["xmltree.walk_s"] = secs(tr.medianDur("xmltree.WalkTokens"))
	o.metrics["tuples.token_stream_self_s"] = secs(medianOf(self["tuples.StreamTokens"]))
	o.metrics["xfd.fold_self_s"] = secs(medianOf(self["xfd.ViolationsReader"]))
	o.metrics["cmd.residual_s"] = secs(medianOf(self["cmd.xnf"]))
	o.metrics["xfd.compile_ms"] = ms(tr.medianDur("xfd.NewCheckerSetFor"))
	o.samples["rounds"] = len(tr.durations("round"))
	return o, nil
}

// countMallocs runs fn and returns the heap allocations it made. The
// traced run starts no goroutines of its own while counting.
func countMallocs(fn func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, err
}
