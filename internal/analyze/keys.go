package analyze

import (
	"slices"
	"strings"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/engine"
	"xmlnorm/internal/implication"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xnf"
)

// Key is a candidate key of a specification: a minimal path set X with
// (D, Σ) ⊢ X → p for every path p of the DTD. Minimality is absolute —
// no proper subset is a superkey — because the layered search decides
// every smaller candidate first.
type Key struct {
	Paths []dtd.Path
}

func (k Key) String() string {
	parts := make([]string, len(k.Paths))
	for i, p := range k.Paths {
		parts[i] = p.String()
	}
	return strings.Join(parts, ", ")
}

// maxRefuteDocs caps the counterexamples a refuter caches. Each cached
// document's tuple table refutes whole families of queries with one
// in-memory scan, so a handful goes a long way; an unbounded cache
// would make late scans walk stale tables linearly.
const maxRefuteDocs = 32

// refuter decides implication queries from verified counterexamples
// before any closure runs. Every document it caches came with a
// verified "not implied" answer, so it conforms to D and satisfies Σ:
// any FD one of its tuple tables violates is not implied by (D, Σ),
// and a refutation from the cache is certified like a fresh one. The
// key search and the 4XNF image each own one, so what a part caches —
// and so the closure runs it saves — follows from its own query order
// alone, not from the worker count or the schedule. A refuter belongs
// to one goroutine: add grows its tables unsynchronized.
type refuter struct {
	ids    []paths.ID        // paths(D), interned, in paths(D) order
	pr     *tuples.Projector // projection onto all of paths(D), built once
	tables [][]tuples.Tuple  // tuples_D(T) of each cached counterexample
}

// newRefuter builds an empty refuter over paths(D), given in paths(D)
// order and interned in u.
func newRefuter(u *paths.Universe, ps []dtd.Path) (*refuter, error) {
	r := &refuter{ids: make([]paths.ID, len(ps))}
	var err error
	for i, p := range ps {
		if r.ids[i], err = lookup(u, p); err != nil {
			return nil, err
		}
	}
	if r.pr, err = tuples.NewProjector(u, ps); err != nil {
		return nil, err
	}
	return r, nil
}

// add caches the counterexample of a verified refutation, unless the
// cache is full. Its tuple table is materialized once, here, so every
// later test is a pure in-memory scan.
func (r *refuter) add(ans implication.Answer) {
	if ans.Counterexample == nil || !ans.Verified || len(r.tables) >= maxRefuteDocs {
		return
	}
	var rows []tuples.Tuple
	r.pr.Stream(ans.Counterexample, func(tup tuples.Tuple) bool {
		rows = append(rows, tup.Clone())
		return true
	})
	r.tables = append(r.tables, rows)
}

// refutes reports whether some cached table holds two tuples that
// agree on lhs (all values known and equal — the Atzeni–Morfuni LHS
// rule) yet differ on one path of rhs (where ⊥ = ⊥ counts as
// agreement). Such a pair violates lhs → rhs on a document that
// conforms to D and satisfies Σ, so (D, Σ) does not imply it. Both
// agreements are equivalences, so comparing every pair of rows decides
// what grouping the rows by their lhs values would; a realized
// counterexample's table holds two rows, so this is one comparison.
func (r *refuter) refutes(lhs, rhs []paths.ID) bool {
	for _, rows := range r.tables {
		for i, a := range rows {
			for _, b := range rows[i+1:] {
				if agreeKnown(a, b, lhs) && !agree(a, b, rhs) {
					return true
				}
			}
		}
	}
	return false
}

// agreeKnown reports whether a and b hold known, equal values at every
// path of ids.
func agreeKnown(a, b tuples.Tuple, ids []paths.ID) bool {
	for _, id := range ids {
		av, aok := a.GetID(id)
		bv, bok := b.GetID(id)
		if !aok || !bok || !av.Equal(bv) {
			return false
		}
	}
	return true
}

// agree reports whether a and b agree at every path of ids, a ⊥
// agreeing with ⊥ only.
func agree(a, b tuples.Tuple, ids []paths.ID) bool {
	for _, id := range ids {
		av, aok := a.GetID(id)
		bv, bok := b.GetID(id)
		if aok != bok || aok && !av.Equal(bv) {
			return false
		}
	}
	return true
}

// CandidateKeys finds the candidate keys of (D, Σ) up to
// opts.maxKeySize() paths, in deterministic order: by size, then by
// the candidate enumeration order over paths(D). The search decides
// candidates in that order, on the calling goroutine, and reuses
// verified counterexamples through a refuter: a document that refuted
// one candidate's superkey query refutes every later candidate on
// which two of its tuples agree while differing elsewhere — no closure
// runs, no per-candidate compilation. Deciding in order means every
// candidate's refuter sees each counterexample found before it, so the
// closure runs a search makes depend on the spec alone. The result is
// exactly what CandidateKeysBaseline computes — both decide every
// candidate exactly, so the cache never changes the key list.
func CandidateKeys(s xnf.Spec, opts Options) ([]Key, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	eng, err := engine.New(s.DTD, s.FDs, opts.Engine)
	if err != nil {
		return nil, err
	}
	return candidateKeysWith(eng, opts.maxKeySize())
}

// candidateKeysWith is CandidateKeys over a caller-supplied engine.
func candidateKeysWith(eng *engine.Engine, maxSize int) ([]Key, error) {
	ps, err := eng.DTD().Paths()
	if err != nil {
		return nil, err
	}
	ref, err := newRefuter(eng.Universe(), ps)
	if err != nil {
		return nil, err
	}
	a := &keySearch{eng: eng, ref: ref}
	return searchKeys(ps, maxSize, a.superkey)
}

// CandidateKeysBaseline is the naive search a caller without the
// analysis subsystem would write: one fresh implication engine per
// candidate, queried sequentially, no counterexample reuse. It decides
// exactly the same predicate as CandidateKeys and must return the
// identical key list: TestCandidateKeysMatchBaseline holds that
// identity, and perfbench's analyze_specs workload checks its key
// lists against this oracle.
func CandidateKeysBaseline(s xnf.Spec, maxSize int) ([]Key, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if maxSize <= 0 {
		maxSize = DefaultMaxKeySize
	}
	ps, err := s.DTD.Paths()
	if err != nil {
		return nil, err
	}
	superkey := func(sub []int) (bool, error) {
		imp, err := implication.NewEngine(s.DTD, s.FDs)
		if err != nil {
			return false, err
		}
		lhs := pathsAt(ps, sub)
		for i, p := range ps {
			if slices.Contains(sub, i) {
				continue
			}
			ans, err := imp.Implies(xfd.FD{LHS: lhs, RHS: []dtd.Path{p}})
			if err != nil {
				return false, err
			}
			if !ans.Implied {
				return false, nil
			}
		}
		return true, nil
	}
	return searchKeys(ps, maxSize, superkey)
}

// searchKeys is the enumeration shared by both searches: candidates of
// size 1, 2, ..., maxSize over paths(D) in d.Paths order (sub indexes
// a candidate within ps), skipping any candidate containing an
// already-found key (its verdict would not be minimal), each decided
// before the next one starts.
func searchKeys(ps []dtd.Path, maxSize int, superkey func(sub []int) (bool, error)) ([]Key, error) {
	var keyIdx [][]int
	var out []Key
	var err error
	for size := 1; size <= maxSize && size <= len(ps) && err == nil; size++ {
		combinations(len(ps), size, func(sub []int) {
			if err != nil || containsAnyKey(keyIdx, sub) {
				return
			}
			var ok bool
			if ok, err = superkey(sub); !ok {
				return
			}
			keyIdx = append(keyIdx, append([]int(nil), sub...))
			out = append(out, Key{Paths: pathsAt(ps, sub)})
		})
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// pathsAt returns the paths of ps at the indexes sub, in a new slice.
func pathsAt(ps []dtd.Path, sub []int) []dtd.Path {
	out := make([]dtd.Path, len(sub))
	for j, pi := range sub {
		out[j] = ps[pi]
	}
	return out
}

// keySearch carries the state of one search: the engine, its refuter,
// and the ID lists it reuses from candidate to candidate.
type keySearch struct {
	eng       *engine.Engine
	ref       *refuter
	lhs, rest []paths.ID
}

// superkey decides (D, Σ) ⊢ lhs → p for the candidate lhs (sub
// indexes it within paths(D)) and every path p outside it, one query
// by ID at a time, stopping at the first refutation. The verdict is
// exact; the refuter only short-circuits candidates a cached
// counterexample already refutes, and caches each new one.
func (a *keySearch) superkey(sub []int) (bool, error) {
	a.lhs, a.rest = a.lhs[:0], a.rest[:0]
	j := 0
	for i, id := range a.ref.ids {
		if j < len(sub) && sub[j] == i {
			a.lhs = append(a.lhs, id)
			j++
			continue
		}
		a.rest = append(a.rest, id)
	}
	if a.ref.refutes(a.lhs, a.rest) {
		return false, nil
	}
	lhs := a.eng.Universe().SetOf(a.lhs...)
	for _, rhs := range a.rest {
		ans := a.eng.ImpliesIDs(lhs, rhs)
		if ans.Implied {
			continue
		}
		a.ref.add(ans)
		return false, nil
	}
	return true, nil
}

// combinations enumerates the size-k index subsets of [0, n) in
// lexicographic order, reusing one scratch slice; yield must copy to
// retain.
func combinations(n, k int, yield func(sub []int)) {
	sub := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			yield(sub)
			return
		}
		for i := start; i <= n-(k-depth); i++ {
			sub[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}

// containsAnyKey reports whether the candidate (sorted ascending)
// contains one of the found keys (each sorted ascending) as a subset.
func containsAnyKey(keys [][]int, sub []int) bool {
	for _, k := range keys {
		i := 0
		for _, s := range sub {
			if i < len(k) && k[i] == s {
				i++
			}
		}
		if i == len(k) {
			return true
		}
	}
	return false
}
