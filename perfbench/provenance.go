package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// provenance records what a result was measured on.
func provenance(e *env, w workload, trace int, out *outcome) map[string]any {
	return map[string]any{
		"workload":      w.name,
		"seed":          e.seed,
		"seconds":       e.seconds.Seconds(),
		"trace":         trace,
		"smoke":         e.smoke,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        commit(e.root),
		"source_sha256": sourceDigest(e.root),
		"inputs":        out.inputs,
		"samples":       out.samples,
	}
}

// commit is the checkout's git commit, or "unknown" when the checkout
// is not a git repository (the source digest identifies the code
// either way).
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the program's sources: every .go, go.mod and
// .spec file under root outside the build directory, in walk order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && !strings.HasSuffix(name, ".spec") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// saveResults writes the provenance, the result and (for traced runs)
// the spans under .bench_build/results.
func saveResults(buildDir, name string, seed int64, trace int, prov map[string]any, res resultJSON, tr *tracer) error {
	dir := filepath.Join(buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", name, seed, trace))
	b, err := json.MarshalIndent(map[string]any{"provenance": prov, "result": res}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	if tr != nil {
		return tr.write(base + ".spans.json")
	}
	return nil
}
