package bench

// E17 measures what the interned path universe bought: the legacy
// string-keyed representation (map[path string]Value tuples, rendered
// string group keys, sorted-string cache keys) is kept here as a
// reference implementation and raced against the ID/bitset paths that
// now run in production. Three components are swept:
//
//   - tuple extraction: map-merge cross products vs ID-indexed tuples;
//   - the per-tree Σ check that dominates the brute-force decider's
//     inner loop: string-keyed grouping vs compiled xfd.Checkers;
//   - closure cache keying: the engine's sorted-string query rendering
//     vs the interned bitset key.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

// legacyTuple is the pre-interning tuple representation: dotted path
// string -> value.
type legacyTuple map[string]tuples.Value

// legacyTuplesOf mirrors TuplesOf over legacy tuples: same child
// grouping, same cross products, map merges instead of bitset/slice
// copies.
func legacyTuplesOf(t *xmltree.Tree) []legacyTuple {
	var enum func(n *xmltree.Node, prefix string) []legacyTuple
	enum = func(n *xmltree.Node, prefix string) []legacyTuple {
		base := legacyTuple{prefix: tuples.NodeValue(n.ID)}
		for a, v := range n.Attrs {
			base[prefix+".@"+a] = tuples.StringValue(v)
		}
		if n.HasText {
			base[prefix+"."+dtd.TextStep] = tuples.StringValue(n.Text)
		}
		acc := []legacyTuple{base}
		var order []string
		groups := map[string][]*xmltree.Node{}
		for _, c := range n.Children {
			if _, ok := groups[c.Label]; !ok {
				order = append(order, c.Label)
			}
			groups[c.Label] = append(groups[c.Label], c)
		}
		for _, label := range order {
			var sub []legacyTuple
			for _, c := range groups[label] {
				sub = append(sub, enum(c, prefix+"."+label)...)
			}
			var next []legacyTuple
			for _, a := range acc {
				for _, b := range sub {
					m := make(legacyTuple, len(a)+len(b))
					for k, v := range a {
						m[k] = v
					}
					for k, v := range b {
						m[k] = v
					}
					next = append(next, m)
				}
			}
			acc = next
		}
		return acc
	}
	return enum(t.Root, t.Root.Label)
}

// legacySatisfies mirrors the pre-interning FD check: extract legacy
// tuples, group them by the rendered LHS value string, compare RHS
// values within each group.
func legacySatisfies(tups []legacyTuple, f xfd.FD) bool {
	groups := map[string]legacyTuple{}
	for _, tup := range tups {
		var b strings.Builder
		onLHS := true
		for _, p := range f.LHS {
			v, ok := tup[p.String()]
			if !ok {
				onLHS = false
				break
			}
			fmt.Fprintf(&b, "%s|", v)
		}
		if !onLHS {
			continue
		}
		key := b.String()
		prev, seen := groups[key]
		if !seen {
			groups[key] = tup
			continue
		}
		for _, r := range f.RHS {
			pv, pok := prev[r.String()]
			cv, cok := tup[r.String()]
			if pok != cok || pv != cv {
				return false
			}
		}
	}
	return true
}

// timeLoop runs f iters times and returns the mean duration.
func timeLoop(iters int, f func() error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(iters), nil
}

func speedup(legacy, interned time.Duration) string {
	if interned <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", float64(legacy)/float64(interned))
}

// E17PathInterning sweeps the three components. The paper makes no
// claim here; the Expect gates are the refactor's own acceptance
// criteria: identical results from both representations at every size,
// and ≥1.5x on tuple extraction at the largest size.
func E17PathInterning() (*Table, error) {
	t := &Table{
		ID:     "E17",
		Title:  "Interned path universe: string-keyed reference vs ID/bitset representation",
		Claim:  "identical results; ≥1.5x on tuple extraction at the largest size (refactor acceptance, not a paper claim)",
		Header: Row{"component", "size", "legacy ms", "interned ms", "speedup", "identical"},
	}
	spec, err := CoursesSpec()
	if err != nil {
		return nil, err
	}
	u, err := paths.New(spec.DTD)
	if err != nil {
		return nil, err
	}

	// Tuple extraction sweep.
	var lastExtract [2]time.Duration
	for _, size := range []struct{ c, s, iters int }{{2, 2, 200}, {10, 10, 50}, {20, 20, 20}, {40, 25, 10}} {
		rng := rand.New(rand.NewSource(7))
		doc := gen.University(size.c, size.s, size.c*size.s, 10, rng)
		var legacy []legacyTuple
		dLegacy, err := timeLoop(size.iters, func() error {
			legacy = legacyTuplesOf(doc)
			return nil
		})
		if err != nil {
			return nil, err
		}
		var ts []tuples.Tuple
		dInterned, err := timeLoop(size.iters, func() error {
			var err error
			ts, err = tuples.TuplesOf(u, doc, 0)
			return err
		})
		if err != nil {
			return nil, err
		}
		same := sameTuples(legacy, ts)
		t.Expect(same, "E17 extract %dx%d: representations disagree", size.c, size.s)
		t.Rows = append(t.Rows, Row{
			"extract", fmt.Sprintf("%dx%d", size.c, size.s),
			ms(dLegacy), ms(dInterned), speedup(dLegacy, dInterned), fmt.Sprint(same),
		})
		lastExtract = [2]time.Duration{dLegacy, dInterned}
	}
	t.Expect(float64(lastExtract[0]) >= 1.5*float64(lastExtract[1]),
		"E17 extract: %.2fx at the largest size, want ≥1.5x", float64(lastExtract[0])/float64(lastExtract[1]))

	// Per-tree Σ check (the brute-force decider's inner loop).
	checks := make([]*xfd.CheckerSet, len(spec.FDs))
	for i, f := range spec.FDs {
		if checks[i], err = xfd.NewCheckerSet(u, []xfd.FD{f}); err != nil {
			return nil, err
		}
	}
	for _, size := range []struct{ c, s, iters int }{{2, 2, 200}, {10, 10, 50}, {40, 25, 10}} {
		rng := rand.New(rand.NewSource(11))
		doc := gen.University(size.c, size.s, size.c*size.s, 10, rng)
		var legacyOK bool
		dLegacy, err := timeLoop(size.iters, func() error {
			tups := legacyTuplesOf(doc)
			legacyOK = true
			for _, f := range spec.FDs {
				if !legacySatisfies(tups, f) {
					legacyOK = false
					break
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		var internedOK bool
		dInterned, err := timeLoop(size.iters, func() error {
			internedOK = true
			for _, c := range checks {
				if !c.SatisfiesAll(doc) {
					internedOK = false
					break
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		t.Expect(legacyOK == internedOK, "E17 fdcheck %dx%d: representations disagree", size.c, size.s)
		t.Rows = append(t.Rows, Row{
			"fdcheck", fmt.Sprintf("%dx%d", size.c, size.s),
			ms(dLegacy), ms(dInterned), speedup(dLegacy, dInterned), fmt.Sprint(legacyOK == internedOK),
		})
	}

	// Closure cache keying: render + probe for a query mix with repeats.
	for _, nq := range []int{64, 512} {
		rng := rand.New(rand.NewSource(13))
		ps, err := spec.DTD.Paths()
		if err != nil {
			return nil, err
		}
		qs := make([]xfd.FD, nq)
		for i := range qs {
			var q xfd.FD
			for j := 0; j < 1+rng.Intn(3); j++ {
				q.LHS = append(q.LHS, ps[rng.Intn(len(ps))])
			}
			q.RHS = []dtd.Path{ps[rng.Intn(len(ps))]}
			if err := q.Resolve(u); err != nil {
				return nil, err
			}
			qs[i] = q
		}
		iters := 20000 / nq
		legacyCache := map[string]int{}
		dLegacy, err := timeLoop(iters, func() error {
			for i, q := range qs {
				legacyCache[legacyQueryKey(q)] = i
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		internedCache := map[string]int{}
		var buf []byte
		dInterned, err := timeLoop(iters, func() error {
			for i, q := range qs {
				key, ok := q.AppendKey(u, buf[:0])
				if !ok {
					return fmt.Errorf("E17: query %s did not resolve", q)
				}
				buf = key
				internedCache[string(key)] = i
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		same := len(legacyCache) == len(internedCache)
		t.Expect(same, "E17 cachekey %d: %d legacy classes vs %d interned", nq, len(legacyCache), len(internedCache))
		t.Rows = append(t.Rows, Row{
			"cachekey", fmt.Sprintf("%d queries", nq),
			ms(dLegacy), ms(dInterned), speedup(dLegacy, dInterned), fmt.Sprint(same),
		})
	}
	return t, nil
}

// legacyQueryKey is the engine's historical cache key: sorted,
// deduplicated LHS strings, then the RHS.
func legacyQueryKey(q xfd.FD) string {
	lhs := make([]string, 0, len(q.LHS))
	seen := map[string]bool{}
	for _, p := range q.LHS {
		s := p.String()
		if !seen[s] {
			seen[s] = true
			lhs = append(lhs, s)
		}
	}
	sort.Strings(lhs)
	var b strings.Builder
	for _, s := range lhs {
		b.WriteString(s)
		b.WriteByte('\x1f')
	}
	b.WriteString("->")
	b.WriteString(q.RHS[0].String())
	return b.String()
}

// sameTuples compares the two extraction results as canonical-string
// multisets.
func sameTuples(legacy []legacyTuple, interned []tuples.Tuple) bool {
	if len(legacy) != len(interned) {
		return false
	}
	a := make([]string, len(legacy))
	for i, m := range legacy {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for j, k := range keys {
			if j > 0 {
				b.WriteByte(';')
			}
			b.WriteString(k)
			b.WriteByte('=')
			b.WriteString(m[k].String())
		}
		a[i] = b.String()
	}
	b := make([]string, len(interned))
	for i, tup := range interned {
		b[i] = tup.Canonical()
	}
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
