package xfd_test

// Differential suite for the batched streaming checker: CheckerSet
// must agree with a quadratic pairwise reference over the materialized
// maximal tuples — verdict per FD, violated set, witness validity —
// and the sharded mode must reproduce the sequential report bit for
// bit. Run under -race in CI, so the sharded fan-out is also a
// concurrency test.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"
	"time"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

// refSatisfies is the pairwise Definition-of-satisfaction reference
// over materialized maximal tuples: no two tuples may agree non-null
// on every LHS path yet disagree (⊥ vs value, or value vs value) on
// some RHS path.
func refSatisfies(ts []tuples.Tuple, u *paths.Universe, f xfd.FD) bool {
	lhs := make([]paths.ID, len(f.LHS))
	for i, p := range f.LHS {
		lhs[i] = u.MustLookup(p)
	}
	rhs := make([]paths.ID, len(f.RHS))
	for i, p := range f.RHS {
		rhs[i] = u.MustLookup(p)
	}
	for i := 0; i < len(ts); i++ {
	pair:
		for j := i + 1; j < len(ts); j++ {
			for _, id := range lhs {
				av, aok := ts[i].GetID(id)
				bv, bok := ts[j].GetID(id)
				if !aok || !bok || !av.Equal(bv) {
					continue pair
				}
			}
			for _, id := range rhs {
				av, aok := ts[i].GetID(id)
				bv, bok := ts[j].GetID(id)
				if aok != bok || (aok && !av.Equal(bv)) {
					return false
				}
			}
		}
	}
	return true
}

// checkWitness fails the test unless the witness pair really violates
// the FD: agreement with non-null values on every LHS path, a
// disagreement on some RHS path.
func checkWitness(t *testing.T, v xfd.Violated, context string) {
	t.Helper()
	a, b := v.Witness[0], v.Witness[1]
	for _, p := range v.FD.LHS {
		av, aok := a.Get(p)
		bv, bok := b.Get(p)
		if !aok || !bok || !av.Equal(bv) {
			t.Fatalf("%s: witness pair for %s does not agree non-null on LHS %s", context, v.FD, p)
		}
	}
	for _, p := range v.FD.RHS {
		av, aok := a.Get(p)
		bv, bok := b.Get(p)
		if aok != bok || (aok && !av.Equal(bv)) {
			return // found the RHS disagreement
		}
	}
	t.Fatalf("%s: witness pair for %s agrees on the whole RHS", context, v.FD)
}

// sameReports fails unless the two violation reports are identical:
// same FDs in the same order with binary-identical witness tuples.
func sameReports(t *testing.T, seq, shard []xfd.Violated, context string) {
	t.Helper()
	if len(seq) != len(shard) {
		t.Fatalf("%s: sequential report has %d violations, sharded %d", context, len(seq), len(shard))
	}
	var ka, kb []byte
	for i := range seq {
		if !seq[i].FD.Equal(shard[i].FD) {
			t.Fatalf("%s: violation %d: FD %s vs %s", context, i, seq[i].FD, shard[i].FD)
		}
		for w := 0; w < 2; w++ {
			ka = seq[i].Witness[w].AppendKey(ka[:0])
			kb = shard[i].Witness[w].AppendKey(kb[:0])
			if !bytes.Equal(ka, kb) {
				t.Fatalf("%s: violation %d witness %d differs:\n seq   %s\n shard %s",
					context, i, w, seq[i].Witness[w].Canonical(), shard[i].Witness[w].Canonical())
			}
		}
	}
}

// TestCheckerSetDifferential runs ≥1000 random (DTD, document, σ)
// instances and checks, per instance:
//
//   - CheckerSet.SatisfiesAll and the package SatisfiesAll agree with
//     the pairwise reference over materialized tuples, and the
//     verdict-only fold (Verdict) reports exactly its violated set;
//   - Violations reports exactly the reference's violated FDs, in Σ
//     order, each with a witness pair that really violates its FD;
//   - the sharded mode (4 workers) reproduces the sequential verdict
//     and the sequential report bit for bit.
func TestCheckerSetDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20020606))
	instances := 0
	for instances < 1000 {
		d := gen.RandomSimpleDTD(rng)
		doc, err := gen.Document(d, rng, 2, 3)
		if err != nil {
			t.Fatalf("gen.Document: %v", err)
		}
		if tuples.CountTuples(doc, 0) > 2000 {
			continue
		}
		instances++
		u, err := paths.New(d)
		if err != nil {
			t.Fatalf("paths.New: %v", err)
		}
		ts, err := tuples.TuplesOf(u, doc, 0)
		if err != nil {
			t.Fatalf("TuplesOf: %v", err)
		}
		all, err := d.Paths()
		if err != nil {
			t.Fatal(err)
		}
		sigma := make([]xfd.FD, 3)
		for k := range sigma {
			var f xfd.FD
			for j := 0; j < 1+rng.Intn(2); j++ {
				f.LHS = append(f.LHS, all[rng.Intn(len(all))])
			}
			f.RHS = []dtd.Path{all[rng.Intn(len(all))]}
			sigma[k] = f
		}
		wantBad := map[int]bool{}
		allOK := true
		for k, f := range sigma {
			if !refSatisfies(ts, u, f) {
				wantBad[k] = true
				allOK = false
			}
		}

		cs, err := xfd.NewCheckerSet(u, sigma)
		if err != nil {
			t.Fatalf("NewCheckerSet: %v", err)
		}
		if got := cs.SatisfiesAll(doc); got != allOK {
			t.Fatalf("instance %d: SatisfiesAll = %v, reference %v\nDTD:\n%s\ndoc:\n%s", instances, got, allOK, d, doc)
		}
		if got := xfd.SatisfiesAll(doc, sigma); got != allOK {
			t.Fatalf("instance %d: package SatisfiesAll = %v, reference %v", instances, got, allOK)
		}
		if got := cs.Verdict(doc, nil); !maps.Equal(got, wantBad) {
			t.Fatalf("instance %d: Verdict = %v, reference %v\nDTD:\n%s\ndoc:\n%s", instances, got, wantBad, d, doc)
		}

		seq := cs.Violations(doc)
		if len(seq) != len(wantBad) {
			t.Fatalf("instance %d: %d violations, reference %d\nDTD:\n%s\ndoc:\n%s", instances, len(seq), len(wantBad), d, doc)
		}
		// Σ order and the right FDs: walk sigma alongside the report.
		ri := 0
		for k, f := range sigma {
			if !wantBad[k] {
				continue
			}
			if !seq[ri].FD.Equal(f) {
				t.Fatalf("instance %d: violation %d is %s, want %s (Σ order)", instances, ri, seq[ri].FD, f)
			}
			checkWitness(t, seq[ri], "sequential")
			ri++
		}

		sharded := cs.ViolationsSharded(doc, 4)
		if got := len(sharded) == 0; got != allOK {
			t.Fatalf("instance %d: sharded verdict = %v, reference %v\nDTD:\n%s\ndoc:\n%s", instances, got, allOK, d, doc)
		}
		sameReports(t, seq, sharded, "instance")
	}
}

// TestCheckerSetTrivialCases pins the degenerate contracts: an FD with
// mixed or mismatching first path steps never applies (no document has
// two root labels), and a document with a foreign root label satisfies
// every FD of the set.
func TestCheckerSetTrivialCases(t *testing.T) {
	doc, err := xmltree.ParseString("<r><c k=\"1\"/><c k=\"2\"/></r>")
	if err != nil {
		t.Fatal(err)
	}
	mixed := xfd.New([]string{"r.c.@k"}, []string{"s.c"})
	cs, err := xfd.NewCheckerSetFor([]xfd.FD{mixed})
	if err != nil {
		t.Fatalf("NewCheckerSetFor: %v", err)
	}
	if !cs.SatisfiesAll(doc) {
		t.Fatal("mixed-root FD should be trivially satisfied")
	}
	foreign := xfd.New([]string{"s.c.@k"}, []string{"s.c"})
	cs, err = xfd.NewCheckerSetFor([]xfd.FD{foreign})
	if err != nil {
		t.Fatalf("NewCheckerSetFor: %v", err)
	}
	if !cs.SatisfiesAll(doc) || cs.Violations(doc) != nil {
		t.Fatal("a foreign-root FD should be vacuously satisfied on this document")
	}
	if cs.ViolationsSharded(doc, 4) != nil {
		t.Fatal("sharded verdict must agree on the vacuous case")
	}
}

// TestCheckerSetShardedWideFanOut exercises the sharded path on a
// document with a genuinely wide top-level sibling group, violated FD
// included, so the witness re-derivation pass runs. Under -race this
// doubles as the concurrency test for the shard fan-out.
func TestCheckerSetShardedWideFanOut(t *testing.T) {
	root := xmltree.NewNode("r")
	for i := 0; i < 64; i++ {
		c := xmltree.NewNode("c")
		c.SetAttr("k", "key") // one shared LHS group
		if i == 37 {          // exactly one deviant RHS value
			c.SetAttr("v", "other")
		} else {
			c.SetAttr("v", "same")
		}
		root.Children = append(root.Children, c)
	}
	doc := xmltree.NewTree(root)
	sigma := []xfd.FD{
		xfd.New([]string{"r.c.@k"}, []string{"r.c.@v"}), // violated by #37
		xfd.New([]string{"r.c.@v"}, []string{"r.c.@k"}), // holds
	}
	cs, err := xfd.NewCheckerSetFor(sigma)
	if err != nil {
		t.Fatal(err)
	}
	seq := cs.Violations(doc)
	if len(seq) != 1 || !seq[0].FD.Equal(sigma[0]) {
		t.Fatalf("expected exactly the first FD violated, got %v", seq)
	}
	checkWitness(t, seq[0], "wide fan-out")
	for _, workers := range []int{2, 4, 16} {
		sharded := cs.ViolationsSharded(doc, workers)
		if len(sharded) == 0 {
			t.Fatalf("ViolationsSharded(%d workers) reports nothing on a violated document", workers)
		}
		sameReports(t, seq, sharded, "wide fan-out")
	}
}

// wideDoc builds a document of gen.WideDTD(width, attrsPer) with m
// children per label. Attribute values are constant per (label,
// attribute) position, so the chained Σ of wideSigma holds.
func wideDoc(width, m, attrsPer int) *xmltree.Tree {
	root := xmltree.NewNode("r")
	for i := 0; i < width; i++ {
		for j := 0; j < m; j++ {
			c := xmltree.NewNode(fmt.Sprintf("c%d", i))
			for a := 0; a < attrsPer; a++ {
				c.SetAttr(fmt.Sprintf("a%d_%d", i, a), fmt.Sprintf("v%d_%d", i, a))
			}
			root.Children = append(root.Children, c)
		}
	}
	return xmltree.NewTree(root)
}

// wideSigma chains the wide DTD's labels into one branch-sharing
// cluster, r.c_i.@a_i_0 -> r.c_{i+1}.@a_{i+1}_0, so a check walks the
// whole cross product of the root's sibling groups and, since every FD
// holds, never stops early.
func wideSigma(width int) []xfd.FD {
	sigma := make([]xfd.FD, 0, width-1)
	for i := 0; i+1 < width; i++ {
		sigma = append(sigma, xfd.New(
			[]string{fmt.Sprintf("r.c%d.@a%d_0", i, i)},
			[]string{fmt.Sprintf("r.c%d.@a%d_0", i+1, i+1)},
		))
	}
	return sigma
}

// TestCheckerSetPastTupleCap: eight children under each of
// gen.WideDTD(7, 2)'s seven labels make 8^7 = 2,097,152 maximal
// tuples, twice tuples.MaxTuples. TuplesOf refuses to materialize
// them, while the streaming check and the sharded one both decide the
// chained Σ, which holds.
func TestCheckerSetPastTupleCap(t *testing.T) {
	if testing.Short() {
		t.Skip("walks 2^21 tuples")
	}
	const width, m, attrsPer = 7, 8, 2
	u, err := paths.New(gen.WideDTD(width, attrsPer))
	if err != nil {
		t.Fatal(err)
	}
	doc := wideDoc(width, m, attrsPer)
	if ts, err := tuples.TuplesOf(u, doc, 0); err == nil {
		t.Fatalf("TuplesOf materialized %d tuples past the %d cap", len(ts), tuples.MaxTuples)
	}
	cs, err := xfd.NewCheckerSet(u, wideSigma(width))
	if err != nil {
		t.Fatal(err)
	}
	if !cs.SatisfiesAll(doc) {
		t.Error("SatisfiesAll: the chained Σ holds on the constant-value document")
	}
	if vs := cs.ViolationsSharded(doc, 2); len(vs) != 0 {
		t.Errorf("ViolationsSharded(2 workers) reports %d violations on a satisfied document", len(vs))
	}
}

// TestViolationsShardedCtxCancel pins the sharded check's cancellation
// contract at one worker (where the witness fold runs alone) and at
// two (fragment folds): a context that is already cancelled returns
// its error without folding, and a deadline a few milliseconds into a
// check that takes far longer uncancelled stops the fold at its next
// tuple, returning context.DeadlineExceeded and no report.
func TestViolationsShardedCtxCancel(t *testing.T) {
	// Ten sibling groups of five children under the root, all carrying
	// one value: one FD over all ten groups projects 5^10 agreeing
	// tuples, so the fold never short-circuits and the satisfied
	// document never pays for a witness pass. Narrow groups make any
	// split coarse: a check that stops only between pieces of one group
	// runs on for a fifth of the work per piece.
	const groups, width = 10, 5
	root := xmltree.NewNode("r")
	var lhs []string
	for g := 0; g < groups; g++ {
		label := fmt.Sprintf("g%d", g)
		for i := 0; i < width; i++ {
			c := xmltree.NewNode(label)
			c.SetAttr("v", "same")
			root.Children = append(root.Children, c)
		}
		lhs = append(lhs, "r."+label+".@v")
	}
	doc := xmltree.NewTree(root)
	cs, err := xfd.NewCheckerSetFor([]xfd.FD{xfd.New(lhs[1:], lhs[:1])})
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	report, err := cs.ViolationsShardedCtx(context.Background(), doc, 2)
	full := time.Since(start)
	if err != nil || report != nil {
		t.Fatalf("uncancelled check = %v, %v; want a satisfied document", report, err)
	}

	for _, workers := range []int{1, 2} {
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		start = time.Now()
		report, err = cs.ViolationsShardedCtx(cancelled, doc, workers)
		if elapsed := time.Since(start); !errors.Is(err, context.Canceled) || report != nil || elapsed > full/4 {
			t.Fatalf("%d workers, cancelled context: %v, %v after %v; want context.Canceled at once (full check %v)", workers, report, err, elapsed, full)
		}

		deadline, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		start = time.Now()
		report, err = cs.ViolationsShardedCtx(deadline, doc, workers)
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) || report != nil {
			t.Fatalf("%d workers, 5ms deadline: %v, %v; want context.DeadlineExceeded", workers, report, err)
		}
		if elapsed > full/4 {
			t.Fatalf("%d workers, 5ms deadline stopped after %v, want under a quarter of the uncancelled %v", workers, elapsed, full)
		}
		t.Logf("%d workers: uncancelled %v, 5ms deadline stopped after %v", workers, full, elapsed)
	}
}

// distinctGroups is <r> with groups c children with distinct @k and
// @v, and a Σ with two FDs that each make one LHS group per child, one
// with an element-valued RHS (keyed by vertex ID).
func distinctGroups(t *testing.T, groups int) (*xmltree.Tree, *xfd.CheckerSet) {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("<r>")
	for i := 0; i < groups; i++ {
		fmt.Fprintf(&b, `<c k="k%d" v="v%d"/>`, i, i)
	}
	b.WriteString("</r>")
	doc, err := xmltree.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	cs, err := xfd.NewCheckerSetFor([]xfd.FD{
		xfd.MustParse("r.c.@k -> r.c.@v"),
		xfd.MustParse("r.c.@v -> r.c"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return doc, cs
}

// TestVerdictAllocs bounds what the verdict-only fold allocates per
// LHS group: 4,096 c children with distinct @k and @v make 4,096
// groups under each of two FDs, one with an element-valued RHS (keyed
// by vertex ID). The group tables keep every key in one arena, so the
// count grows with the tables' doublings, not with the groups; a fold
// that allocated an LHS and an RHS key string per group per FD would
// read about four objects per group.
func TestVerdictAllocs(t *testing.T) {
	const groups = 4096
	doc, cs := distinctGroups(t, groups)
	allocs := testing.AllocsPerRun(5, func() {
		if bad := cs.Verdict(doc, nil); bad != nil {
			t.Fatalf("Verdict = %v on a satisfied document", bad)
		}
	})
	t.Logf("%.0f allocs per Verdict over %d groups per FD", allocs, groups)
	if perGroup := allocs / groups; perGroup >= 0.1 {
		t.Errorf("Verdict allocates %.3f objects per group (%.0f in all), want under 0.1", perGroup, allocs)
	}
}

// TestViolationsAllocs bounds the witness fold the same way on the
// same document. The fold keeps each group's first tuple, and keeps
// them in a slab that grows by doubling, so the count again grows
// with the doublings; cloning each first tuple read about four
// objects per group (two per group per FD).
func TestViolationsAllocs(t *testing.T) {
	const groups = 4096
	doc, cs := distinctGroups(t, groups)
	allocs := testing.AllocsPerRun(5, func() {
		if vs := cs.Violations(doc); vs != nil {
			t.Fatalf("Violations = %v on a satisfied document", vs)
		}
	})
	t.Logf("%.0f allocs per Violations over %d groups per FD", allocs, groups)
	if perGroup := allocs / groups; perGroup >= 0.1 {
		t.Errorf("Violations allocates %.3f objects per group (%.0f in all), want under 0.1", perGroup, allocs)
	}
}

// TestWitnessOutlivesPooledTables: the witness fold's tables, first
// tuples included, go back to a pool that any later check may take
// them from, on any goroutine. A witness Violations returned must be
// a copy: it reads the same after checks on other goroutines refill
// the pooled tables, and under -race a witness that still shared a
// table's memory would show as a race as well.
func TestWitnessOutlivesPooledTables(t *testing.T) {
	cs, err := xfd.NewCheckerSetFor([]xfd.FD{xfd.MustParse("r.c.@k -> r.c.@v")})
	if err != nil {
		t.Fatal(err)
	}
	violating := func(v1, v2 string) *xmltree.Tree {
		doc, err := xmltree.ParseString(fmt.Sprintf(`<r><c k="0" v="x"/><c k="1" v="%s"/><c k="1" v="%s"/></r>`, v1, v2))
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	vs := cs.Violations(violating("a", "b"))
	if len(vs) != 1 {
		t.Fatalf("%d violations, want 1", len(vs))
	}
	w := vs[0].Witness
	values := func() [2]string {
		var out [2]string
		for i, tup := range w {
			k, _ := tup.Get(dtd.MustParsePath("r.c.@k"))
			v, _ := tup.Get(dtd.MustParsePath("r.c.@v"))
			out[i] = k.Str() + "=" + v.Str()
		}
		return out
	}
	want := [2]string{"1=a", "1=b"}
	if got := values(); got != want {
		t.Fatalf("witness %q, want %q", got, want)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if vs := cs.Violations(violating(fmt.Sprint("p", g, i), fmt.Sprint("q", g, i))); len(vs) != 1 {
					t.Errorf("%d violations, want 1", len(vs))
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := values(); got != want {
		t.Errorf("witness changed after later checks:\n got %q\nwant %q", got, want)
	}
}

// TestNewCheckerSetCompileAllocs bounds what compiling a Σ costs:
// NewCheckerSet looks each path up once by its steps and clusters and
// de-duplicates by path ID, so chain-18's 36 FDs, whose paths run up to
// 20 steps, compile without rendering a path. Rendering them to
// de-duplicate and cluster cost ~1,460 objects per compile.
func TestNewCheckerSetCompileAllocs(t *testing.T) {
	d := gen.ChainDTD(18, 2)
	sigma := gen.ChainFDs(18, 2)
	u, err := paths.New(d)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := xfd.NewCheckerSet(u, sigma); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per compile of %d FDs", allocs, len(sigma))
	if allocs > 500 {
		t.Errorf("NewCheckerSet of chain-18's Σ allocates %.0f objects, want at most 500", allocs)
	}
}
