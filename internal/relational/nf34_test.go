package relational

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestIs3NF(t *testing.T) {
	// R(A,B,C) with A -> B: not 3NF (B non-prime, A not a superkey).
	s := Schema{Name: "R", Attrs: NewAttrSet("A", "B", "C")}
	ok, viols := Is3NF(s, []FD{MustParseFD("A -> B")})
	if ok || len(viols) == 0 {
		t.Error("A->B over R(A,B,C) should violate 3NF")
	}
	// The classic 3NF-but-not-BCNF example: R(S,J,T) with SJ -> T,
	// T -> J. T -> J has prime RHS (J is in key {S,T}... keys: SJ and
	// ST), so 3NF holds while BCNF fails.
	sjt := Schema{Name: "R", Attrs: NewAttrSet("S", "J", "T")}
	fds := []FD{MustParseFD("S J -> T"), MustParseFD("T -> J")}
	ok3, _ := Is3NF(sjt, fds)
	okB, _ := IsBCNF(sjt, fds)
	if !ok3 {
		t.Error("SJT should be in 3NF")
	}
	if okB {
		t.Error("SJT should not be in BCNF")
	}
	// A key makes everything fine.
	ok, _ = Is3NF(s, []FD{MustParseFD("A -> B C")})
	if !ok {
		t.Error("keyed schema should be 3NF")
	}
}

func TestSynthesize3NF(t *testing.T) {
	s := Schema{Name: "R", Attrs: NewAttrSet("A", "B", "C", "D")}
	fds := []FD{MustParseFD("A -> B"), MustParseFD("B -> C")}
	frags := Synthesize3NF(s, fds)
	if len(frags) == 0 {
		t.Fatal("no fragments")
	}
	union := AttrSet{}
	keyCovered := false
	keys := Keys(s, fds)
	for _, f := range frags {
		union = union.Union(f.Attrs)
		ok, viols := Is3NF(f, Project(fds, f.Attrs))
		if !ok {
			t.Errorf("fragment %v not in 3NF: %v", f, viols)
		}
		for _, k := range keys {
			if f.Attrs.ContainsAll(k) {
				keyCovered = true
			}
		}
	}
	// Synthesis preserves dependencies by construction; the key fragment
	// guarantees losslessness.
	if !keyCovered {
		t.Error("no fragment contains a candidate key")
	}
	// All FD attributes survive (D may live only in the key fragment).
	if !union.Equal(s.Attrs) {
		t.Errorf("attribute union = %v", union)
	}
}

func TestMVDParseAndTrivial(t *testing.T) {
	m := MustParseMVD("A ->> B C")
	if m.String() != "A ->> B C" {
		t.Errorf("String = %q", m.String())
	}
	u := NewAttrSet("A", "B", "C")
	if !TrivialMVD(MustParseMVD("A B ->> B"), u) {
		t.Error("Y ⊆ X should be trivial")
	}
	if !TrivialMVD(MustParseMVD("A ->> B C"), u) {
		t.Error("X ∪ Y = U should be trivial")
	}
	if TrivialMVD(MustParseMVD("A ->> B"), u) {
		t.Error("A ->> B over ABC is not trivial")
	}
	for _, bad := range []string{"", "A", "A ->> ", " ->> B", "A -> B"} {
		if _, err := ParseMVD(bad); err == nil {
			t.Errorf("ParseMVD(%q) succeeded", bad)
		}
	}
}

func TestDependencyBasisAndImpliesMVD(t *testing.T) {
	// The canonical course example: Course ->> Teacher | Book.
	u := NewAttrSet("C", "T", "B")
	mvds := []MVD{MustParseMVD("C ->> T")}
	basis := DependencyBasis(NewAttrSet("C"), u, nil, mvds)
	// Blocks must partition {T, B} as {T}, {B}.
	if len(basis) != 2 {
		t.Fatalf("basis = %v", basis)
	}
	// The complementation rule: C ->> T implies C ->> B.
	if !ImpliesMVD(u, nil, mvds, MustParseMVD("C ->> B")) {
		t.Error("complementation failed")
	}
	if !ImpliesMVD(u, nil, mvds, MustParseMVD("C ->> T")) {
		t.Error("given MVD not implied")
	}
	// FDs imply MVDs.
	if !ImpliesMVD(u, []FD{MustParseFD("C -> T")}, nil, MustParseMVD("C ->> T")) {
		t.Error("FD should imply its MVD")
	}
	// An unrelated MVD is not implied.
	if ImpliesMVD(u, nil, mvds, MustParseMVD("T ->> B")) {
		t.Error("T ->> B should not follow")
	}
}

func TestIs4NFAndDecompose(t *testing.T) {
	// Course-Teacher-Book: C ->> T (and hence C ->> B), no FDs: not 4NF.
	s := Schema{Name: "CTB", Attrs: NewAttrSet("C", "T", "B")}
	mvds := []MVD{MustParseMVD("C ->> T")}
	ok, viols := Is4NF(s, nil, mvds)
	if ok || len(viols) == 0 {
		t.Fatal("CTB should violate 4NF")
	}
	frags := Decompose4NF(s, nil, mvds)
	if len(frags) != 2 {
		t.Fatalf("fragments = %v", frags)
	}
	union := AttrSet{}
	for _, f := range frags {
		union = union.Union(f.Attrs)
		if len(f.Attrs) != 2 || !f.Attrs.Contains("C") {
			t.Errorf("fragment %v should be C plus one attribute", f)
		}
	}
	if !union.Equal(s.Attrs) {
		t.Errorf("union = %v", union)
	}
	// With a key FD the schema is already 4NF.
	keyed := []FD{MustParseFD("C -> T B")}
	ok, _ = Is4NF(s, keyed, nil)
	if !ok {
		t.Error("keyed schema should be 4NF")
	}
	// 4NF implies BCNF-style behavior for FDs: a BCNF violation is also
	// a 4NF violation.
	ok, _ = Is4NF(s, []FD{MustParseFD("C -> T")}, nil)
	if ok {
		t.Error("C -> T without key should violate 4NF")
	}
}

func TestIsPrime(t *testing.T) {
	s := Schema{Name: "R", Attrs: NewAttrSet("S", "J", "T")}
	fds := []FD{MustParseFD("S J -> T"), MustParseFD("T -> J")}
	for _, a := range []string{"S", "J", "T"} {
		if !IsPrime(a, s, fds) {
			t.Errorf("%s should be prime (keys SJ and ST)", a)
		}
	}
	s2 := Schema{Name: "R", Attrs: NewAttrSet("A", "B")}
	if IsPrime("B", s2, []FD{MustParseFD("A -> B")}) {
		t.Error("B should not be prime")
	}
}

// exhaustiveIs4NF is the 4NF sweep without pruning, on attribute sets
// and the map dependency basis, kept as the oracle for Is4NF: it
// collects the non-trivial basis blocks of every
// non-superkey subset, then keeps the violations whose LHS is
// inclusion-minimal among all of them (O(V²) over the collected list).
// It also returns the unfiltered count.
func exhaustiveIs4NF(s Schema, fds []FD, mvds []MVD) (ok bool, minimal []MVD, all int) {
	var viols []MVD
	attrs := s.Attrs.Sorted()
	for size := 1; size < len(attrs); size++ {
		subsets(attrs, size, func(sub []string) {
			x := NewAttrSet(sub...)
			if IsSuperkey(x, s, fds) {
				return
			}
			for _, b := range mapDependencyBasis(x, s.Attrs, fds, mvds) {
				m := MVD{LHS: x, RHS: b}
				if TrivialMVD(m, s.Attrs) {
					continue
				}
				viols = append(viols, m)
			}
		})
	}
	for i, v := range viols {
		isMinimal := true
		for j, o := range viols {
			if j != i && v.LHS.ContainsAll(o.LHS) && !o.LHS.ContainsAll(v.LHS) {
				isMinimal = false
				break
			}
		}
		if isMinimal {
			minimal = append(minimal, v)
		}
	}
	return len(viols) == 0, minimal, len(viols)
}

// exhaustiveDecompose4NF is Decompose4NF over exhaustiveIs4NF.
func exhaustiveDecompose4NF(s Schema, fds []FD, mvds []MVD) []Schema {
	ok, viols, _ := exhaustiveIs4NF(s, fds, mvds)
	if ok || len(s.Attrs) <= 2 {
		return []Schema{s}
	}
	v := viols[0]
	left := Schema{Name: s.Name + "1", Attrs: v.LHS.Union(v.RHS)}
	right := Schema{Name: s.Name + "2", Attrs: s.Attrs.Minus(v.RHS)}
	projectMVDs := func(attrs AttrSet) []MVD {
		var out []MVD
		for _, m := range mvds {
			if attrs.ContainsAll(m.LHS.Union(m.RHS)) {
				out = append(out, m)
			}
		}
		return out
	}
	var out []Schema
	out = append(out, exhaustiveDecompose4NF(left, Project(fds, left.Attrs), projectMVDs(left.Attrs))...)
	out = append(out, exhaustiveDecompose4NF(right, Project(fds, right.Attrs), projectMVDs(right.Attrs))...)
	return out
}

// randomSchema draws a schema of 3–9 attributes with up to three FDs
// and up to two MVDs (LHSs of one or two attributes); a quarter of the
// draws also get a key FD on their first attribute.
func randomSchema(rng *rand.Rand) (Schema, []FD, []MVD) {
	names := make([]string, 3+rng.Intn(7))
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	pick := func(max int) AttrSet {
		s := AttrSet{}
		for k := 1 + rng.Intn(max); len(s) < k; {
			s[names[rng.Intn(len(names))]] = true
		}
		return s
	}
	var fds []FD
	for i := rng.Intn(4); i > 0; i-- {
		fds = append(fds, FD{LHS: pick(2), RHS: pick(2)})
	}
	if rng.Intn(4) == 0 {
		fds = append(fds, FD{LHS: NewAttrSet(names[0]), RHS: NewAttrSet(names[1:]...)})
	}
	var mvds []MVD
	for i := rng.Intn(3); i > 0; i-- {
		mvds = append(mvds, MVD{LHS: pick(2), RHS: pick(3)})
	}
	return Schema{Name: "R", Attrs: NewAttrSet(names...)}, fds, mvds
}

// TestIs4NFMatchesExhaustiveSweep is the differential oracle for the
// pruned sweep: on seeded random schemas, Is4NF gives the exhaustive
// sweep's verdict and minimal-LHS violations in the same order, and
// Decompose4NF the same fragments.
func TestIs4NFMatchesExhaustiveSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(20021204))
	var satisfied, pruned int
	const trials = 500
	for trial := 0; trial < trials; trial++ {
		s, fds, mvds := randomSchema(rng)
		wantOK, want, all := exhaustiveIs4NF(s, fds, mvds)
		ok, got := Is4NF(s, fds, mvds)
		if ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: %v, FDs %v, MVDs %v:\nIs4NF = %v %v\nexhaustive = %v %v",
				trial, s.Attrs, fds, mvds, ok, got, wantOK, want)
		}
		if gotD, wantD := Decompose4NF(s, fds, mvds), exhaustiveDecompose4NF(s, fds, mvds); !reflect.DeepEqual(gotD, wantD) {
			t.Fatalf("trial %d: %v, FDs %v, MVDs %v:\nDecompose4NF = %v\nexhaustive = %v",
				trial, s.Attrs, fds, mvds, gotD, wantD)
		}
		if ok {
			satisfied++
		}
		if all > len(want) {
			pruned++
		}
	}
	// Both verdicts and the pruning itself must be exercised.
	if satisfied < trials/10 || trials-satisfied < trials/10 || pruned < trials/10 {
		t.Errorf("%d trials: %d in 4NF, %d with non-minimal violations pruned", trials, satisfied, pruned)
	}
	t.Logf("%d trials: %d in 4NF, %d with non-minimal violations pruned", trials, satisfied, pruned)
}

// mapDependencyBasis is the dependency basis on attribute sets, kept as
// the oracle of the mask kernel behind DependencyBasis, ImpliesMVD and
// Is4NF: it starts with the single block U − X and refines it with the
// MVDs, then the FDs as MVDs, then splits every attribute of X⁺ − X
// into its own block, until nothing changes; the blocks come out
// sorted by their rendering.
func mapDependencyBasis(x AttrSet, u AttrSet, fds []FD, mvds []MVD) []AttrSet {
	rest := u.Minus(x)
	if len(rest) == 0 {
		return nil
	}
	blocks := []AttrSet{rest.Clone()}
	deps := append([]MVD{}, mvds...)
	for _, f := range fds {
		deps = append(deps, MVD{LHS: f.LHS.Clone(), RHS: f.RHS.Clone()})
	}
	changed := true
	for changed {
		changed = false
		for _, d := range deps {
			var next []AttrSet
			for _, b := range blocks {
				inter := b.Intersect(d.LHS)
				if len(inter) != 0 {
					next = append(next, b)
					continue
				}
				in := b.Intersect(d.RHS)
				outSide := b.Minus(d.RHS)
				if len(in) > 0 && len(outSide) > 0 {
					next = append(next, in, outSide)
					changed = true
				} else {
					next = append(next, b)
				}
			}
			blocks = next
		}
		cl := Closure(x, fds).Intersect(u).Minus(x)
		var next []AttrSet
		for _, b := range blocks {
			det := b.Intersect(cl)
			rest := b.Minus(cl)
			if len(det) > 0 && (len(rest) > 0 || len(det) > 1) {
				for _, a := range det.Sorted() {
					next = append(next, NewAttrSet(a))
				}
				if len(rest) > 0 {
					next = append(next, rest)
				}
				changed = changed || len(rest) > 0 || len(det) > 1
			} else {
				next = append(next, b)
			}
		}
		blocks = next
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].String() < blocks[j].String() })
	return blocks
}

// mapImpliesMVD is ImpliesMVD over mapDependencyBasis.
func mapImpliesMVD(u AttrSet, fds []FD, mvds []MVD, q MVD) bool {
	if TrivialMVD(q, u) {
		return true
	}
	target := q.RHS.Minus(q.LHS)
	covered := AttrSet{}
	for _, b := range mapDependencyBasis(q.LHS, u, fds, mvds) {
		if target.ContainsAll(b) {
			covered = covered.Union(b)
		}
	}
	return covered.Equal(target)
}

// mapIs4NF is the pruned 4NF sweep on attribute sets: Is4NF's subset
// order and pruning over IsSuperkey and mapDependencyBasis.
func mapIs4NF(s Schema, fds []FD, mvds []MVD) (bool, []MVD) {
	var viols []MVD
	attrs := s.Attrs.Sorted()
	for size := 1; size < len(attrs); size++ {
		subsets(attrs, size, func(sub []string) {
			x := NewAttrSet(sub...)
			for _, v := range viols {
				if x.ContainsAll(v.LHS) {
					return
				}
			}
			if IsSuperkey(x, s, fds) {
				return
			}
			for _, b := range mapDependencyBasis(x, s.Attrs, fds, mvds) {
				m := MVD{LHS: x, RHS: b}
				if TrivialMVD(m, s.Attrs) {
					continue
				}
				viols = append(viols, m)
			}
		})
	}
	return len(viols) == 0, viols
}

// sweepSchema draws a schema of minAttrs–maxAttrs attributes with up to
// four FDs and up to three MVDs (sides of one to three attributes);
// with outside set, dependencies also name the attributes X, Y and Z,
// which the schema lacks. A fifth of the draws also get a key FD on
// their first attribute.
func sweepSchema(rng *rand.Rand, minAttrs, maxAttrs int, outside bool) (Schema, []FD, []MVD) {
	names := make([]string, minAttrs+rng.Intn(maxAttrs-minAttrs+1))
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	named := names
	if outside {
		named = append(append([]string{}, names...), "X", "Y", "Z")
	}
	pick := func(max int) AttrSet {
		s := AttrSet{}
		for k := 1 + rng.Intn(max); len(s) < k; {
			s[named[rng.Intn(len(named))]] = true
		}
		return s
	}
	var fds []FD
	for i := rng.Intn(5); i > 0; i-- {
		fds = append(fds, FD{LHS: pick(2), RHS: pick(3)})
	}
	if rng.Intn(5) == 0 {
		fds = append(fds, FD{LHS: NewAttrSet(names[0]), RHS: NewAttrSet(names[1:]...)})
	}
	var mvds []MVD
	for i := rng.Intn(4); i > 0; i-- {
		mvds = append(mvds, MVD{LHS: pick(2), RHS: pick(3)})
	}
	return Schema{Name: "R", Attrs: NewAttrSet(names...)}, fds, mvds
}

// TestIs4NFMatchesMapSweep is the differential oracle for the mask
// kernel: on 3,000 seeded schemas of 3–12 attributes, half of them
// with dependencies naming attributes outside the schema, Is4NF gives
// the map sweep's verdict and violations in the same order, and
// DependencyBasis and ImpliesMVD the map answers for a random LHS
// (which may name outside attributes) and a random MVD.
func TestIs4NFMatchesMapSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(20030609))
	const trials = 3000
	var satisfied, implied int
	for trial := 0; trial < trials; trial++ {
		outside := trial%2 == 1
		s, fds, mvds := sweepSchema(rng, 3, 12, outside)
		where := fmt.Sprintf("trial %d: %v, FDs %v, MVDs %v", trial, s.Attrs, fds, mvds)
		wantOK, want := mapIs4NF(s, fds, mvds)
		ok, got := Is4NF(s, fds, mvds)
		if ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\nIs4NF = %v %v\nmap sweep = %v %v", where, ok, got, wantOK, want)
		}
		if ok {
			satisfied++
		}
		_, _, q := sweepSchema(rng, 3, 12, outside)
		x := NewAttrSet()
		if len(q) > 0 {
			x = q[0].LHS
		}
		if got, want := DependencyBasis(x, s.Attrs, fds, mvds), mapDependencyBasis(x, s.Attrs, fds, mvds); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: DependencyBasis(%v) = %v, map %v", where, x, got, want)
		}
		for _, m := range q {
			got, want := ImpliesMVD(s.Attrs, fds, mvds, m), mapImpliesMVD(s.Attrs, fds, mvds, m)
			if got != want {
				t.Fatalf("%s: ImpliesMVD(%v) = %v, map %v", where, m, got, want)
			}
			if got {
				implied++
			}
		}
	}
	// Both verdicts must be exercised, and some MVD queries implied.
	if satisfied < trials/20 || trials-satisfied < trials/20 || implied == 0 {
		t.Errorf("%d trials: %d in 4NF, %d MVD queries implied", trials, satisfied, implied)
	}
	t.Logf("%d trials: %d in 4NF, %d MVD queries implied", trials, satisfied, implied)
}

// TestIs4NFSweepAllocs: the sweep of a 16-attribute schema whose only
// dependency is a key FD visits every subset — the ones holding the
// key as superkeys, the others through a one-block basis — without a
// violation, and allocates a bounded number of objects for all 65,534
// of them.
func TestIs4NFSweepAllocs(t *testing.T) {
	names := make([]string, 16)
	for i := range names {
		names[i] = fmt.Sprintf("c%02d", i)
	}
	s := Schema{Name: "R", Attrs: NewAttrSet(names...)}
	fds := []FD{{LHS: NewAttrSet(names[0]), RHS: NewAttrSet(names[1:]...)}}
	if ok, viols := Is4NF(s, fds, nil); !ok {
		t.Fatalf("keyed schema violates 4NF: %v", viols)
	}
	if allocs := testing.AllocsPerRun(5, func() { Is4NF(s, fds, nil) }); allocs >= 100 {
		t.Errorf("Is4NF over 16 attributes allocates %.0f objects, want under 100", allocs)
	}
}

// TestMaskKernelUniverseLimit: a universe of more than 64 attributes,
// counting the attributes only the dependencies or the query name,
// panics in Is4NF, DependencyBasis and ImpliesMVD with a message that
// names the limit; 64 attributes are decided.
func TestMaskKernelUniverseLimit(t *testing.T) {
	names := make([]string, 65)
	for i := range names {
		names[i] = fmt.Sprintf("a%02d", i)
	}
	wide := NewAttrSet(names[:64]...)
	outsideFD := []FD{{LHS: NewAttrSet(names[0]), RHS: NewAttrSet(names[64])}}
	const want = "relational: 65 attributes exceed the 4NF kernel's limit of 64 (one bit of a uint64 each)"
	for _, c := range []struct {
		name string
		call func()
	}{
		{"Is4NF, 65 columns", func() { Is4NF(Schema{Name: "R", Attrs: NewAttrSet(names...)}, nil, nil) }},
		{"Is4NF, an FD outside 64 columns", func() { Is4NF(Schema{Name: "R", Attrs: wide}, outsideFD, nil) }},
		{"DependencyBasis, X outside", func() { DependencyBasis(NewAttrSet(names[64]), wide, nil, nil) }},
		{"ImpliesMVD, q outside", func() {
			ImpliesMVD(wide, nil, nil, MVD{LHS: NewAttrSet(names[0]), RHS: NewAttrSet(names[64])})
		}},
	} {
		func() {
			defer func() {
				if r := recover(); fmt.Sprint(r) != want {
					t.Errorf("%s: panic %v, want %q", c.name, r, want)
				}
			}()
			c.call()
		}()
	}
	if !ImpliesMVD(wide, nil, nil, MVD{LHS: NewAttrSet(names[0]), RHS: NewAttrSet(names[1:64]...)}) {
		t.Error("a trivial MVD over 64 attributes is not implied")
	}
	if got := DependencyBasis(NewAttrSet(names[0]), wide, nil, nil); len(got) != 1 || len(got[0]) != 63 {
		t.Errorf("DependencyBasis over 64 attributes = %v, want the one block of the other 63", got)
	}
}

// BenchmarkIs4NF runs the sweep on a 14-attribute schema, the width of
// chain-7's flat image, with one FD and one MVD that violate 4NF, and
// on a 16-attribute keyed schema in 4NF, whose sweep visits every
// subset.
func BenchmarkIs4NF(b *testing.B) {
	names := make([]string, 16)
	for i := range names {
		names[i] = fmt.Sprintf("c%02d", i)
	}
	for _, c := range []struct {
		name string
		s    Schema
		fds  []FD
		mvds []MVD
	}{
		{"violated-14", Schema{Name: "R", Attrs: NewAttrSet(names[:14]...)},
			[]FD{MustParseFD(strings.Join(names[2:4], " ") + " -> " + names[4])},
			[]MVD{MustParseMVD(names[0] + " ->> " + names[1])}},
		{"keyed-16", Schema{Name: "R", Attrs: NewAttrSet(names...)},
			[]FD{{LHS: NewAttrSet(names[0]), RHS: NewAttrSet(names[1:]...)}}, nil},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Is4NF(c.s, c.fds, c.mvds)
			}
		})
	}
}
