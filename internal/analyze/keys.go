package analyze

import (
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

// maxRefuteDocs caps the counterexample cache of a key search. Each
// cached document's tuple table refutes whole families of non-superkeys
// with one in-memory scan, so a handful goes a long way; an unbounded
// cache would make late prefilter passes scan stale tables linearly.
const maxRefuteDocs = 32

// CandidateKeys finds the candidate keys of (D, Σ) up to
// opts.maxKeySize() paths, in deterministic order: by size, then by
// the candidate enumeration order over paths(D). The search decides
// candidates in that order, on the calling goroutine, and reuses
// verified counterexamples: a document that refuted one candidate's
// superkey query conforms to D and satisfies Σ, so its tuple table
// (projected once, when cached) refutes later candidates by a direct
// agree/differ scan — no closure runs, no per-candidate compilation.
// Deciding in order means every candidate's prefilter sees each
// counterexample found before it, so the closure runs a search makes
// depend on the spec alone. The result is exactly what
// CandidateKeysBaseline computes — both decide every candidate
// exactly, so caching and the prefilter never change the key list.
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
	u := eng.Universe()
	ids := make([]paths.ID, len(ps))
	for i, p := range ps {
		if ids[i], err = lookup(u, p); err != nil {
			return nil, err
		}
	}
	pr, err := tuples.NewProjector(u, ps)
	if err != nil {
		return nil, err
	}
	a := &keySearch{eng: eng, ps: ps, ids: ids, pr: pr}
	return searchKeys(ps, maxSize, a.superkey)
}

// CandidateKeysBaseline is the naive search a caller without the
// analysis subsystem would write: one fresh implication engine per
// candidate, queried sequentially, no counterexample reuse. It decides
// exactly the same predicate as CandidateKeys and must return the
// identical key list; experiment E24 gates both that identity and the
// speedup of the memoized search over this baseline.
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
	superkey := func(sub []int, lhs []dtd.Path) (bool, error) {
		imp, err := implication.NewEngine(s.DTD, s.FDs)
		if err != nil {
			return false, err
		}
		for _, q := range superkeyQueries(sub, lhs, ps, nil) {
			ans, err := imp.Implies(q)
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
// size 1, 2, ..., maxSize over paths(D) in d.Paths order, skipping any
// candidate containing an already-found key (its verdict would not be
// minimal), each decided before the next one starts.
func searchKeys(ps []dtd.Path, maxSize int, superkey func(sub []int, lhs []dtd.Path) (bool, error)) ([]Key, error) {
	var keyIdx [][]int
	var out []Key
	var err error
	for size := 1; size <= maxSize && size <= len(ps) && err == nil; size++ {
		combinations(len(ps), size, func(sub []int) {
			if err != nil || containsAnyKey(keyIdx, sub) {
				return
			}
			lhs := make([]dtd.Path, len(sub))
			for j, pi := range sub {
				lhs[j] = ps[pi]
			}
			var ok bool
			if ok, err = superkey(sub, lhs); !ok {
				return
			}
			keyIdx = append(keyIdx, append([]int(nil), sub...))
			out = append(out, Key{Paths: lhs})
		})
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// keySearch carries the state of one search: the engine, the interned
// path IDs, and the cache of counterexample tuple tables.
type keySearch struct {
	eng    *engine.Engine
	ps     []dtd.Path
	ids    []paths.ID        // ps interned against the engine's universe
	pr     *tuples.Projector // projection over all of ps, built once
	tables [][]tuples.Tuple  // tuples_D(T) of each cached counterexample
}

// superkey decides (D, Σ) ⊢ lhs → p for every path p, one query at a
// time, stopping at the first refutation. The verdict is exact; the
// prefilter only short-circuits candidates a cached counterexample
// already refutes.
func (a *keySearch) superkey(sub []int, lhs []dtd.Path) (bool, error) {
	if a.prefilter(sub) {
		return false, nil
	}
	for _, q := range superkeyQueries(sub, lhs, a.ps, a.eng.Universe()) {
		ans, err := a.eng.Implies(q)
		if err != nil {
			return false, err
		}
		if ans.Implied {
			continue
		}
		// Keep the refuting document for later candidates: it conforms
		// to D and satisfies Σ (the answer is verified), so any query it
		// violates is not implied. Its tuple table is materialized once,
		// here, so prefilter passes are pure in-memory scans.
		if ans.Counterexample != nil && ans.Verified && len(a.tables) < maxRefuteDocs {
			var rows []tuples.Tuple
			a.pr.Stream(ans.Counterexample, func(tup tuples.Tuple) bool {
				rows = append(rows, tup.Clone())
				return true
			})
			a.tables = append(a.tables, rows)
		}
		return false, nil
	}
	return true, nil
}

// prefilter scans the cached counterexample tables for a pair of tuples
// that agree on the candidate (all values known and equal — the
// Atzeni–Morfuni LHS rule) yet differ on some other path (where ⊥ = ⊥
// counts as agreement). Such a pair violates candidate → p on a
// document that conforms to D and satisfies Σ, so the candidate is
// soundly refuted with no closure run and no per-candidate compilation.
func (a *keySearch) prefilter(sub []int) bool {
	if len(a.tables) == 0 {
		return false
	}
	inSub := make([]bool, len(a.ids))
	lhsIDs := make([]paths.ID, len(sub))
	for j, i := range sub {
		inSub[i] = true
		lhsIDs[j] = a.ids[i]
	}
	var key []byte
	for _, rows := range a.tables {
		groups := map[string]tuples.Tuple{}
		for _, row := range rows {
			var known bool
			key, known = appendProjKey(row, lhsIDs, key[:0], true)
			if !known {
				continue // a ⊥ on the LHS exempts the tuple
			}
			rep, ok := groups[string(key)]
			if !ok {
				groups[string(key)] = row
				continue
			}
			for i, id := range a.ids {
				if inSub[i] {
					continue
				}
				av, aok := rep.GetID(id)
				bv, bok := row.GetID(id)
				if aok != bok || (aok && !av.Equal(bv)) {
					return true
				}
			}
		}
	}
	return false
}

// superkeyQueries builds the queries lhs → p for every path p outside
// the candidate (sub indexes lhs within ps), resolved against the
// universe when one is supplied so the engine's cache keys take the
// bitset fast path.
func superkeyQueries(sub []int, lhs []dtd.Path, ps []dtd.Path, u *paths.Universe) []xfd.FD {
	inSub := make([]bool, len(ps))
	for _, i := range sub {
		inSub[i] = true
	}
	qs := make([]xfd.FD, 0, len(ps)-len(sub))
	for i, p := range ps {
		if inSub[i] {
			continue
		}
		q := xfd.FD{LHS: lhs, RHS: []dtd.Path{p}}
		if u != nil {
			_ = q.Resolve(u)
		}
		qs = append(qs, q)
	}
	return qs
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
