package bench

// E18 measures what the streaming tuple pipeline bought: the
// materialize-then-check reference (TuplesOf slab-allocates the full
// sibling-group cross product, then each FD groups the slab by its LHS
// key) raced against the production path (xfd.CheckerSet streaming the
// union projection of Σ through one reused scratch tuple). The
// document family is gen.WideDTD's shape — a root with width starred
// EMPTY child labels, m repeats each — whose maximal-tuple count is
// m^width, so fan-out is the knob: the in-cap family exercises both
// paths on identical verdicts and gates the speedup and allocation
// reduction, and the over-cap family (m^width > 2^20 = MaxTuples) is
// checkable by the streaming path only — TuplesOf hard-errors there.
// σ chains the labels (r.c_i.@a_i_0 -> r.c_{i+1}.@a_{i+1}_0), so the
// whole set forms one branch-sharing cluster and the union projection
// walks the full choice product — the worst case the streamer must
// absorb; attribute values are constant per position, so every FD
// holds and no check exits early.

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"xmlnorm/internal/gen"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

// wideDoc builds a document of gen.WideDTD(width, attrsPer): m
// children per label, attribute values constant per (label, attr)
// position so the chained σ of wideSigma holds.
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
// cluster: r.c_i.@a_i_0 -> r.c_{i+1}.@a_{i+1}_0.
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

// materializedSatisfiesAll is the pre-streaming reference: materialize
// the full maximal-tuple slab, then decide each FD by grouping the
// slab on its LHS key. Verdict only — mirrors what consumers paid
// before the streaming pipeline, cap error included.
func materializedSatisfiesAll(u *paths.Universe, t *xmltree.Tree, sigma []xfd.FD) (bool, error) {
	ts, err := tuples.TuplesOf(u, t, 0)
	if err != nil {
		return false, err
	}
	for _, f := range sigma {
		lhs := make([]paths.ID, len(f.LHS))
		for i, p := range f.LHS {
			lhs[i] = u.MustLookup(p)
		}
		rhs := make([]paths.ID, len(f.RHS))
		for i, p := range f.RHS {
			rhs[i] = u.MustLookup(p)
		}
		groups := map[string]tuples.Tuple{}
		var buf []byte
		for _, tup := range ts {
			key, ok := refLHSKey(tup, lhs, buf[:0])
			buf = key
			if !ok {
				continue
			}
			first, seen := groups[string(key)]
			if !seen {
				groups[string(key)] = tup
				continue
			}
			for _, id := range rhs {
				av, aok := first.GetID(id)
				bv, bok := tup.GetID(id)
				if aok != bok || (aok && !av.Equal(bv)) {
					return false, nil
				}
			}
		}
	}
	return true, nil
}

// refLHSKey renders a tuple's LHS values as a self-delimiting binary
// key; ok is false when some value is ⊥.
func refLHSKey(t tuples.Tuple, lhs []paths.ID, dst []byte) ([]byte, bool) {
	for _, id := range lhs {
		v, ok := t.GetID(id)
		if !ok {
			return dst, false
		}
		if v.IsNode() {
			dst = append(dst, 1)
			dst = binary.AppendUvarint(dst, uint64(v.Node()))
		} else {
			s := v.Str()
			dst = append(dst, 2)
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		}
	}
	return dst, true
}

// allocBytes runs f once and returns the bytes it allocated
// (TotalAlloc delta around the call, after a GC to settle the heap).
func allocBytes(f func() error) (uint64, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := f(); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, nil
}

func mb(b uint64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }

// E18StreamingTuples races materialize-then-check against the
// streaming CheckerSet. The gates are the pipeline's acceptance
// criteria, not a paper claim: identical verdicts, ≥1.5x wall-clock
// and ≥10x fewer allocated bytes on the in-cap family, and a
// streaming-only verdict on the family whose tuple count crosses the
// 2^20 materialization cap.
func E18StreamingTuples() (*Table, error) {
	t := &Table{
		ID:     "E18",
		Title:  "Streaming tuples: materialize-then-check vs CheckerSet stream",
		Claim:  "identical verdicts; ≥1.5x wall-clock and ≥10x lower allocation in-cap; >2^20-tuple documents checkable (pipeline acceptance, not a paper claim)",
		Header: Row{"family", "tuples", "materialized ms", "streaming ms", "speedup", "mat MB", "stream MB", "agree"},
	}
	const attrsPer = 2

	// In-cap family: 3^10 = 59049 maximal tuples.
	{
		width, m := 10, 3
		d := gen.WideDTD(width, attrsPer)
		u, err := paths.New(d)
		if err != nil {
			return nil, err
		}
		doc := wideDoc(width, m, attrsPer)
		sigma := wideSigma(width)
		cs, err := xfd.NewCheckerSet(u, sigma)
		if err != nil {
			return nil, err
		}
		var matOK, streamOK bool
		dMat, err := timeLoop(3, func() error {
			var err error
			matOK, err = materializedSatisfiesAll(u, doc, sigma)
			return err
		})
		if err != nil {
			return nil, err
		}
		dStream, err := timeLoop(3, func() error {
			streamOK = cs.SatisfiesAll(doc)
			return nil
		})
		if err != nil {
			return nil, err
		}
		matAlloc, err := allocBytes(func() error {
			_, err := materializedSatisfiesAll(u, doc, sigma)
			return err
		})
		if err != nil {
			return nil, err
		}
		streamAlloc, err := allocBytes(func() error {
			cs.SatisfiesAll(doc)
			return nil
		})
		if err != nil {
			return nil, err
		}
		agree := matOK == streamOK
		t.Expect(agree, "E18 in-cap: verdicts disagree (materialized %v, streaming %v)", matOK, streamOK)
		t.Expect(matOK, "E18 in-cap: σ should hold on the constant-value family")
		t.Expect(float64(dMat) >= 1.5*float64(dStream),
			"E18 in-cap: %.2fx wall-clock, want ≥1.5x", float64(dMat)/float64(dStream))
		t.Expect(matAlloc >= 10*streamAlloc,
			"E18 in-cap: %.1fx allocation reduction, want ≥10x", float64(matAlloc)/float64(streamAlloc))
		t.Rows = append(t.Rows, Row{
			fmt.Sprintf("3^%d in-cap", width), fmt.Sprint(59049),
			ms(dMat), ms(dStream), speedup(dMat, dStream),
			mb(matAlloc), mb(streamAlloc), fmt.Sprint(agree),
		})
	}

	// Sharded verdict: 8^6 = 262144 tuples, the root's 8-way c0 group
	// fanned out to the worker pool. Informational — scheduling noise
	// on small machines makes a hard gate flaky.
	{
		width, m := 6, 8
		d := gen.WideDTD(width, attrsPer)
		u, err := paths.New(d)
		if err != nil {
			return nil, err
		}
		doc := wideDoc(width, m, attrsPer)
		cs, err := xfd.NewCheckerSet(u, wideSigma(width))
		if err != nil {
			return nil, err
		}
		// At least 2 so the sharded path (and its merge) really runs
		// even on a single-CPU machine.
		workers := runtime.GOMAXPROCS(0)
		if workers < 2 {
			workers = 2
		}
		var seqOK, shardOK bool
		dSeq, err := timeLoop(3, func() error {
			seqOK = cs.SatisfiesAll(doc)
			return nil
		})
		if err != nil {
			return nil, err
		}
		dShard, err := timeLoop(3, func() error {
			vs, err := cs.ViolationsShardedCtx(context.Background(), doc, workers)
			shardOK = len(vs) == 0
			return err
		})
		if err != nil {
			return nil, err
		}
		agree := seqOK == shardOK
		t.Expect(agree, "E18 sharded: verdicts disagree (sequential %v, sharded %v)", seqOK, shardOK)
		t.Rows = append(t.Rows, Row{
			fmt.Sprintf("8^%d sharded(%dw)", width, workers), fmt.Sprint(262144),
			ms(dSeq), ms(dShard), speedup(dSeq, dShard), "-", "-", fmt.Sprint(agree),
		})
	}

	// Over-cap family: 8^7 = 2097152 > 2^20 maximal tuples. TuplesOf
	// must refuse; the stream must still decide σ.
	{
		width, m := 7, 8
		d := gen.WideDTD(width, attrsPer)
		u, err := paths.New(d)
		if err != nil {
			return nil, err
		}
		doc := wideDoc(width, m, attrsPer)
		sigma := wideSigma(width)
		cs, err := xfd.NewCheckerSet(u, sigma)
		if err != nil {
			return nil, err
		}
		_, matErr := materializedSatisfiesAll(u, doc, sigma)
		var streamOK bool
		start := time.Now()
		streamOK = cs.SatisfiesAll(doc)
		dStream := time.Since(start)
		t.Expect(matErr != nil, "E18 over-cap: TuplesOf should refuse %d tuples", 1<<21)
		t.Expect(streamOK, "E18 over-cap: streaming verdict should be 'satisfied'")
		t.Rows = append(t.Rows, Row{
			fmt.Sprintf("8^%d over-cap", width), fmt.Sprint(2097152),
			"error (MaxTuples)", ms(dStream), "-", "-", "-",
			fmt.Sprint(matErr != nil && streamOK),
		})
	}
	return t, nil
}
