package bench

// E22: the corpus-and-fragments ablation, in two phases.
//
// Corpus phase: 1000 small chain-family documents checked two ways —
// "file-by-file", which re-parses Σ into a fresh CheckerSet for every
// file (what a shell loop over `xnf check spec file` pays, minus even
// the process spawn), and "corpus", which compiles Σ ONCE and fans the
// files over the worker pool (what `xnf check -r` does). On a corpus
// of many small documents the per-file compile dominates the naive
// loop, so the one-compile side must win ≥3x at 1000 documents even on
// a single core; multi-core runners add pool parallelism on top. The
// per-document verdicts must agree exactly, witnesses included, and a
// malformed file must fail alone without taking the sweep down.
//
// Fragment phase: the university document split at its top-level
// sibling group into k fragments, each folded into an independent
// xfd.FoldState, serialized, deserialized, and merged — the merged
// verdict and its witness report must be bit-identical to the
// whole-document pass, in the satisfied and the violated state, for
// every k. This is the soundness substrate for multi-node scale-out:
// if merge were lossy, shipping fold states between processes would
// change answers.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"xmlnorm/internal/corpus"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/pool"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

// e22Depth sizes the chain family so that compiling its 2·depth FDs
// costs several times a single tiny document's check — the regime the
// corpus mode exists for.
const e22Depth = 14

// e22Doc renders a minimal chain-family document: one r→c0→…→c(depth-1)
// spine, every level carrying its key and determined attribute, values
// derived from idx so distinct files never collide on a key. When
// violate is set, the deepest element appears twice with the same key
// but different determined attribute — breaking both deepest-level FDs.
func e22Doc(depth, idx int, violate bool) []byte {
	var buf bytes.Buffer
	buf.WriteString("<r>")
	for i := 1; i <= depth; i++ {
		fmt.Fprintf(&buf, `<c%d a%d_0="k%d.%d" a%d_1="v%d.%d">`, i-1, i, i, idx, i, i, idx)
	}
	buf.WriteString(fmt.Sprintf("</c%d>", depth-1))
	if violate {
		fmt.Fprintf(&buf, `<c%d a%d_0="k%d.%d" a%d_1="other"></c%d>`,
			depth-1, depth, depth, idx, depth, depth-1)
	}
	for i := depth - 1; i >= 1; i-- {
		fmt.Fprintf(&buf, "</c%d>", i-1)
	}
	buf.WriteString("</r>")
	return buf.Bytes()
}

// e22WriteCorpus lays out n documents (every 25th violating) under dir.
func e22WriteCorpus(dir string, n int) error {
	for i := 0; i < n; i++ {
		name := filepath.Join(dir, fmt.Sprintf("d%05d.xml", i))
		if err := os.WriteFile(name, e22Doc(e22Depth, i, i%25 == 24), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// e22VerdictsAgree compares two violation reports produced by
// INDEPENDENT runs over the same bytes: same FDs in the same order,
// same witness shape, and equal witness values wherever the value is a
// string (attributes, text). Element-valued witness components carry
// process-minted node identities, which are deliberately not portable
// across runs (see the FoldState portability note), so for those only
// presence is compared — reportsEqual's bit-identity is reserved for
// passes that share one materialized tree.
func e22VerdictsAgree(a, b []xfd.Violated) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].FD.Equal(b[i].FD) {
			return false
		}
		for _, p := range a[i].FD.Paths() {
			for w := 0; w < 2; w++ {
				av, aok := a[i].Witness[w].Get(p)
				bv, bok := b[i].Witness[w].Get(p)
				if aok != bok || av.IsNode() != bv.IsNode() {
					return false
				}
				if aok && !av.IsNode() && av.Str() != bv.Str() {
					return false
				}
			}
		}
	}
	return true
}

// e22Sequential is the file-by-file baseline: a fresh CheckerSet per
// file, checked one after another in lexical order.
func e22Sequential(fds []xfd.FD, paths []string) ([][]xfd.Violated, error) {
	out := make([][]xfd.Violated, len(paths))
	for i, p := range paths {
		cs, err := xfd.NewCheckerSetFor(fds)
		if err != nil {
			return nil, err
		}
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		out[i], err = cs.ViolationsReader(f, xfd.ReaderOptions{})
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// e22Corpus is the one-compile pooled sweep; verdicts come back in
// walk order because corpus.Check sequences its emissions.
func e22Corpus(cs *xfd.CheckerSet, dir string) ([]corpus.Verdict, corpus.Summary, error) {
	var vs []corpus.Verdict
	sum, err := corpus.Check(context.Background(), cs, dir, corpus.Options{}, func(v corpus.Verdict) {
		vs = append(vs, v)
	})
	return vs, sum, err
}

// e22FragmentPass splits doc into k fragments, folds each on the pool,
// round-trips every fold state through its binary encoding, merges,
// and renders the canonical witness report.
func e22FragmentPass(cs *xfd.CheckerSet, doc *xmltree.Tree, k int) ([]xfd.Violated, error) {
	frags := cs.SplitFragments(doc, k)
	states := make([]*xfd.FoldState, len(frags))
	if err := pool.ForEach(0, len(frags), func(i int) error {
		st := cs.NewFoldState()
		if err := st.FoldFragment(context.Background(), frags[i]); err != nil {
			return err
		}
		blob, err := st.MarshalBinary()
		if err == nil {
			st, err = cs.UnmarshalFoldState(blob)
		}
		states[i] = st
		return err
	}); err != nil {
		return nil, err
	}
	merged := states[0]
	for _, st := range states[1:] {
		if err := merged.Merge(st); err != nil {
			return nil, err
		}
	}
	return cs.WitnessReport(doc, merged.ViolatedSet()), nil
}

// E22CorpusChecking runs both phases. Gates: at 1000 documents the
// one-compile corpus sweep beats the recompile-per-file baseline ≥3x;
// corpus and sequential verdicts agree exactly on every file (40
// violating by construction); one malformed file fails alone; and
// fragment-merged reports are bit-identical to the whole-document pass
// for every split width, satisfied and violated alike.
func E22CorpusChecking() (*Table, error) {
	t := &Table{
		ID:     "E22",
		Title:  "Corpus checking: one compiled CheckerSet vs file-by-file, and fragment-merge identity",
		Claim:  "compiling Σ once per corpus (not per file) wins ≥3x on 1000 small documents; fragment fold states merge to bit-identical verdicts",
		Header: Row{"mode", "size", "baseline ms", "pooled ms", "speedup", "agree"},
	}
	fds := gen.ChainFDs(e22Depth, 2)

	// --- Corpus phase ---
	for _, n := range []int{100, 1000} {
		dir, err := os.MkdirTemp("", "xnf-e22-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if err := e22WriteCorpus(dir, n); err != nil {
			return nil, err
		}
		paths := make([]string, 0, n)
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
		sort.Strings(paths)

		var seq [][]xfd.Violated
		seqT, err := bestOf(3, 1, func() error {
			seq, err = e22Sequential(fds, paths)
			return err
		})
		if err != nil {
			return nil, err
		}

		cs, err := xfd.NewCheckerSetFor(fds)
		if err != nil {
			return nil, err
		}
		var vs []corpus.Verdict
		var sum corpus.Summary
		corpT, err := bestOf(3, 1, func() error {
			vs, sum, err = e22Corpus(cs, dir)
			return err
		})
		if err != nil {
			return nil, err
		}

		agree := len(vs) == len(seq)
		for i := range vs {
			if !agree {
				break
			}
			agree = vs[i].Err == nil && vs[i].Path == paths[i] && e22VerdictsAgree(vs[i].Violated, seq[i])
		}
		t.Expect(agree, "E22 %d docs: corpus and file-by-file verdicts differ", n)
		t.Expect(sum.Docs == n && sum.Failed == 0 && sum.Violating == n/25,
			"E22 %d docs: summary %+v, want %d violating and no failures", n, sum, n/25)
		if n == 1000 {
			t.Expect(seqT >= 3*corpT,
				"E22 %d docs: corpus speedup %.1fx over file-by-file, want >= 3x",
				n, float64(seqT)/float64(corpT))
		}
		t.Rows = append(t.Rows, Row{
			"corpus", fmt.Sprintf("%d docs", n),
			ms(seqT), ms(corpT), speedup(seqT, corpT), fmt.Sprint(agree),
		})
	}

	// Isolation: one malformed file becomes its own failed verdict and
	// nothing else is disturbed.
	dir, err := os.MkdirTemp("", "xnf-e22-bad-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := e22WriteCorpus(dir, 3); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "broken.xml"), []byte("<r><c0"), 0o644); err != nil {
		return nil, err
	}
	cs, err := xfd.NewCheckerSetFor(fds)
	if err != nil {
		return nil, err
	}
	vs, sum, err := e22Corpus(cs, dir)
	if err != nil {
		return nil, err
	}
	failed := 0
	for _, v := range vs {
		if v.Err != nil {
			failed++
		}
	}
	t.Expect(sum.Docs == 4 && sum.Failed == 1 && failed == 1 && sum.Satisfied == 3,
		"E22 isolation: summary %+v over %d verdicts, want exactly one failure", sum, len(vs))

	// --- Fragment phase ---
	spec, err := CoursesSpec()
	if err != nil {
		return nil, err
	}
	ucs, err := xfd.NewCheckerSetFor(spec.FDs)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(22))
	doc := gen.University(256, 8, 1024, 400, rng)
	names := e21Targets(doc)
	if names == nil {
		return nil, fmt.Errorf("E22: no taken_by with four students and a shared student number")
	}
	for _, state := range []struct {
		broken bool
		label  string
	}{{false, "satisfied"}, {true, "violated"}} {
		label := state.label
		if state.broken {
			// Rename the shared-student quartet in place: FD3 now sees
			// the same sno with two different names.
			for i, nm := range names {
				nm.Text = fmt.Sprintf("E22-broken-%d", i)
			}
		}
		var whole []xfd.Violated
		wholeT, err := bestOf(3, 5, func() error {
			whole = ucs.Violations(doc)
			return nil
		})
		if err != nil {
			return nil, err
		}
		t.Expect((len(whole) > 0) == state.broken, "E22 fragments: %s document reports %d violations", label, len(whole))
		for _, k := range []int{1, 2, 4, 8} {
			var frag []xfd.Violated
			fragT, err := bestOf(3, 5, func() error {
				frag, err = e22FragmentPass(ucs, doc, k)
				return err
			})
			if err != nil {
				return nil, err
			}
			agree := reportsEqual(whole, frag)
			t.Expect(agree, "E22 fragments k=%d (%s): merged report differs from whole-document", k, label)
			t.Rows = append(t.Rows, Row{
				fmt.Sprintf("fragments k=%d", k), label,
				ms(wholeT), ms(fragT), speedup(wholeT, fragT), fmt.Sprint(agree),
			})
		}
	}
	t.Notes = "corpus baseline recompiles Σ (28 chain FDs) per file, the pooled side compiles once and fans files over the worker pool — the win is compile amortization plus parallelism, so it holds on a single core; fragment rows time split+fold+serialize+merge+report against one whole-document pass (identity is the gate there, not speed)"
	return t, nil
}
