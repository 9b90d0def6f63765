package implication

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/pool"
	"xmlnorm/internal/regex"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

// Bounds configures the brute-force semantic checker.
type Bounds struct {
	// MaxRepeat bounds the number of iterations unrolled for * and +
	// (default 2: enough to distinguish "one" from "many").
	MaxRepeat int
	// MaxTrees bounds the total number of (shape, value-assignment)
	// candidates examined (default 200000).
	MaxTrees int
	// MaxValuePositions bounds the string positions per candidate shape
	// (default 8); the assignment count is the product over paths of
	// k^k for k positions at that path.
	MaxValuePositions int
}

func (b Bounds) withDefaults() Bounds {
	if b.MaxRepeat <= 0 {
		b.MaxRepeat = 2
	}
	if b.MaxTrees <= 0 {
		b.MaxTrees = 200000
	}
	if b.MaxValuePositions <= 0 {
		b.MaxValuePositions = 8
	}
	return b
}

// ErrBoundsExceeded is returned when the search space outgrows the
// bounds before the search is complete; the checker never silently
// claims implication on a truncated search.
var ErrBoundsExceeded = fmt.Errorf("implication: brute-force bounds exceeded")

// BruteForce decides (D, Σ) ⊢ q by enumerating candidate trees: all
// document shapes conforming to D with * and + unrolled up to
// MaxRepeat, and all equality patterns of string values (values at
// different paths are never compared by FD semantics, so each path uses
// its own value namespace). A counterexample found is definitive
// (verified semantically); a clean pass is implication *within the
// bounds* — for relational DTDs a two-tuple counterexample exists
// whenever any does, so MaxRepeat=2 makes the search complete in
// practice, which is cross-validated against the closure algorithm in
// the tests.
func BruteForce(d *dtd.DTD, sigma []xfd.FD, q xfd.FD, bounds Bounds) (Answer, error) {
	return BruteForceParallel(d, sigma, q, bounds, 1)
}

// BruteForceParallel is BruteForce with the per-shape value searches
// fanned out across up to workers goroutines (0 means GOMAXPROCS; 1 is
// the sequential path, byte-identical to the original loop). The shape
// enumeration budget and the MaxTrees instance budget are shared
// atomically across workers. Determinism: the counterexample returned
// is the one from the lowest shape index, which is the shape the
// sequential search would have stopped at, so answers agree with the
// sequential path for every search that completes within bounds; when
// the budget runs out mid-search a found counterexample is still
// preferred over ErrBoundsExceeded (a counterexample is definitive,
// a truncated clean pass is not).
func BruteForceParallel(d *dtd.DTD, sigma []xfd.FD, q xfd.FD, bounds Bounds, workers int) (Answer, error) {
	bounds = bounds.withDefaults()
	for _, f := range append(append([]xfd.FD{}, sigma...), q) {
		if err := f.Validate(d); err != nil {
			return Answer{}, err
		}
	}
	if d.IsRecursive() {
		return Answer{}, fmt.Errorf("implication: brute force requires a non-recursive DTD")
	}
	// Compile Σ ∪ {q} into one CheckerSet against the DTD's interned
	// universe: every candidate instance is then decided by a single
	// streaming walk instead of |Σ|+1 separate projections. The set is
	// read-only and shared across the worker goroutines.
	u, err := paths.New(d)
	if err != nil {
		return Answer{}, fmt.Errorf("implication: %v", err)
	}
	sigmaQ := append(append(make([]xfd.FD, 0, len(sigma)+1), sigma...), q)
	checks, err := xfd.NewCheckerSet(u, sigmaQ)
	if err != nil {
		return Answer{}, err
	}
	conform := xmltree.NewConformer(d)
	budget := bounds.MaxTrees
	shapes, err := enumerateShapes(d, d.Root(), bounds, map[string][]*xmltree.Node{}, &budget)
	if err != nil {
		return Answer{}, err
	}
	var checked atomic.Int64
	if workers <= 0 {
		workers = pool.DefaultWorkers()
	}
	if workers > len(shapes) {
		workers = len(shapes)
	}
	if workers <= 1 {
		for _, shape := range shapes {
			tree := &xmltree.Tree{Root: shape}
			found, err := searchValues(tree, conform, checks, len(sigma), bounds, &checked)
			if err != nil {
				return Answer{}, err
			}
			if found != nil {
				return Answer{Implied: false, Counterexample: found, Verified: true}, nil
			}
		}
		return Answer{Implied: true}, nil
	}
	// Parallel: searchValues mutates the shape in place, and shapes from
	// enumerateShapes share subtree nodes across sibling combinations, so
	// each worker searches a private clone of its shape. pool.First hands
	// the shape indices to the workers and skips indices past the lowest
	// hit so far, mirroring the sequential early exit: the index it
	// returns is exactly the shape the sequential search would have
	// stopped at. Each index is handed out once, so found[i] has a single
	// writer.
	found := make([]*xmltree.Tree, len(shapes))
	var searchErr error
	var errOnce sync.Once
	min := pool.First(workers, len(shapes), func(i int) bool {
		tree := &xmltree.Tree{Root: shapes[i].Clone()}
		f, err := searchValues(tree, conform, checks, len(sigma), bounds, &checked)
		if err != nil {
			errOnce.Do(func() { searchErr = err })
			return false // a later shape may still hold a counterexample
		}
		if f == nil {
			return false
		}
		found[i] = f
		return true
	})
	if min >= 0 {
		return Answer{Implied: false, Counterexample: found[min], Verified: true}, nil
	}
	if searchErr != nil {
		return Answer{}, searchErr
	}
	return Answer{Implied: true}, nil
}

// enumerateShapes lists subtree shapes for an element type: conforming
// trees with placeholder values. Results share no structure (each shape
// is an independent tree with fresh vertex IDs).
func enumerateShapes(d *dtd.DTD, elem string, bounds Bounds, memoWords map[string][]*xmltree.Node, budget *int) ([]*xmltree.Node, error) {
	e := d.Element(elem)
	if e == nil {
		return nil, fmt.Errorf("implication: element %q not declared", elem)
	}
	switch e.Kind {
	case dtd.EmptyContent:
		n := xmltree.NewNode(elem)
		for _, a := range e.Attrs {
			n.SetAttr(a, "")
		}
		return []*xmltree.Node{n}, nil
	case dtd.TextContent:
		n := xmltree.NewNode(elem)
		for _, a := range e.Attrs {
			n.SetAttr(a, "")
		}
		n.SetText("")
		return []*xmltree.Node{n}, nil
	}
	words, err := wordsUpTo(e.Model, bounds.MaxRepeat, *budget)
	if err != nil {
		return nil, err
	}
	var out []*xmltree.Node
	for _, word := range words {
		// Cross product of child shapes across the word positions.
		combos := [][]*xmltree.Node{nil}
		for _, letter := range word {
			subs, err := enumerateShapes(d, letter, bounds, memoWords, budget)
			if err != nil {
				return nil, err
			}
			var next [][]*xmltree.Node
			for _, c := range combos {
				for _, s := range subs {
					row := make([]*xmltree.Node, len(c), len(c)+1)
					copy(row, c)
					next = append(next, append(row, cloneKeepingShape(s)))
					if len(next) > *budget {
						return nil, ErrBoundsExceeded
					}
				}
			}
			combos = next
		}
		for _, c := range combos {
			n := xmltree.NewNode(elem)
			for _, a := range e.Attrs {
				n.SetAttr(a, "")
			}
			n.Children = c
			out = append(out, n)
			if len(out) > *budget {
				return nil, ErrBoundsExceeded
			}
		}
	}
	return out, nil
}

// cloneKeepingShape deep-copies a shape with fresh vertex IDs.
func cloneKeepingShape(n *xmltree.Node) *xmltree.Node { return n.Clone() }

// wordsUpTo enumerates the words of the language with * and + unrolled
// up to maxRep iterations, deduplicated.
func wordsUpTo(e *regex.Expr, maxRep, cap int) ([][]string, error) {
	var rec func(e *regex.Expr) ([][]string, error)
	rec = func(e *regex.Expr) ([][]string, error) {
		switch e.Kind {
		case regex.KindEmpty:
			return [][]string{nil}, nil
		case regex.KindLetter:
			return [][]string{{e.Name}}, nil
		case regex.KindConcat:
			acc := [][]string{nil}
			for _, s := range e.Subs {
				ws, err := rec(s)
				if err != nil {
					return nil, err
				}
				var next [][]string
				for _, a := range acc {
					for _, w := range ws {
						row := make([]string, len(a), len(a)+len(w))
						copy(row, a)
						next = append(next, append(row, w...))
						if len(next) > cap {
							return nil, ErrBoundsExceeded
						}
					}
				}
				acc = next
			}
			return acc, nil
		case regex.KindUnion:
			var out [][]string
			for _, s := range e.Subs {
				ws, err := rec(s)
				if err != nil {
					return nil, err
				}
				out = append(out, ws...)
				if len(out) > cap {
					return nil, ErrBoundsExceeded
				}
			}
			return dedupWords(out), nil
		case regex.KindStar, regex.KindPlus:
			ws, err := rec(e.Sub)
			if err != nil {
				return nil, err
			}
			min := 0
			if e.Kind == regex.KindPlus {
				min = 1
			}
			acc := [][]string{nil}
			var out [][]string
			if min == 0 {
				out = append(out, nil)
			}
			for i := 1; i <= maxRep; i++ {
				var next [][]string
				for _, a := range acc {
					for _, w := range ws {
						row := make([]string, len(a), len(a)+len(w))
						copy(row, a)
						next = append(next, append(row, w...))
						if len(next) > cap {
							return nil, ErrBoundsExceeded
						}
					}
				}
				acc = next
				if i >= min {
					out = append(out, acc...)
					if len(out) > cap {
						return nil, ErrBoundsExceeded
					}
				}
			}
			return dedupWords(out), nil
		case regex.KindOpt:
			ws, err := rec(e.Sub)
			if err != nil {
				return nil, err
			}
			return dedupWords(append([][]string{nil}, ws...)), nil
		default:
			return nil, fmt.Errorf("implication: unknown regex kind")
		}
	}
	return rec(e)
}

func dedupWords(ws [][]string) [][]string {
	seen := map[string]bool{}
	out := ws[:0]
	for _, w := range ws {
		k := strings.Join(w, "\x00")
		if !seen[k] {
			seen[k] = true
			out = append(out, w)
		}
	}
	return out
}

// valueSlot is one string position of a shape (an attribute or a text
// node), grouped by its path.
type valueSlot struct {
	node *xmltree.Node
	attr string // "" for text
}

// searchValues enumerates value-equality patterns over the shape's
// string positions and tests each instance. checked is the shared
// MaxTrees budget, atomic so parallel shape searches draw from one
// pool exactly like the sequential scan does. checks is Σ followed by
// q compiled into one CheckerSet (nSigma = |Σ|), so each instance is
// decided — all of Σ satisfied, q violated — in one streaming walk;
// the set and the DTD's compiled content models (conform) arrive
// precompiled and are shared read-only across workers.
func searchValues(tree *xmltree.Tree, conform *xmltree.Conformer, checks *xfd.CheckerSet, nSigma int, bounds Bounds, checked *atomic.Int64) (*xmltree.Tree, error) {
	groups := map[string][]valueSlot{}
	var order []string
	tree.Walk(func(n *xmltree.Node, path []string) bool {
		p := strings.Join(path, ".")
		names := make([]string, 0, len(n.Attrs))
		for a := range n.Attrs {
			names = append(names, a)
		}
		sort.Strings(names)
		for _, a := range names {
			key := p + ".@" + a
			if _, ok := groups[key]; !ok {
				order = append(order, key)
			}
			groups[key] = append(groups[key], valueSlot{node: n, attr: a})
		}
		if n.HasText {
			key := p + ".S"
			if _, ok := groups[key]; !ok {
				order = append(order, key)
			}
			groups[key] = append(groups[key], valueSlot{node: n})
		}
		return true
	})
	totalPositions := 0
	for _, g := range groups {
		totalPositions += len(g)
	}
	if totalPositions > bounds.MaxValuePositions {
		return nil, fmt.Errorf("%w: %d value positions in one shape (max %d)",
			ErrBoundsExceeded, totalPositions, bounds.MaxValuePositions)
	}
	// Enumerate assignments group by group: each position takes a value
	// in 1..k (k = positions in its group); values are namespaced per
	// group since FD semantics never compares across paths.
	var rec func(gi int) (*xmltree.Tree, error)
	rec = func(gi int) (*xmltree.Tree, error) {
		if gi == len(order) {
			if checked.Add(1) > int64(bounds.MaxTrees) {
				return nil, ErrBoundsExceeded
			}
			if err := conform.Conforms(tree); err != nil {
				return nil, nil // shape bug; skip defensively
			}
			// One verdict-only walk decides the whole candidate: abort
			// on any Σ violation (the instance satisfies Σ or it is
			// worthless); a q violation alone keeps the walk going. The
			// instance refutes q iff q is the only violated FD.
			bad := checks.Verdict(tree, func(i int) bool { return i == nSigma })
			if len(bad) == 1 && bad[nSigma] {
				return tree.Clone(), nil
			}
			return nil, nil
		}
		slots := groups[order[gi]]
		k := len(slots)
		idx := make([]int, k)
		for {
			for i, s := range slots {
				v := fmt.Sprintf("g%d_%d", gi, idx[i])
				if s.attr != "" {
					s.node.SetAttr(s.attr, v)
				} else {
					s.node.Text = v
					s.node.HasText = true
				}
			}
			if found, err := rec(gi + 1); found != nil || err != nil {
				return found, err
			}
			// Next assignment in base k.
			j := 0
			for ; j < k; j++ {
				idx[j]++
				if idx[j] < k {
					break
				}
				idx[j] = 0
			}
			if j == k {
				return nil, nil
			}
		}
	}
	return rec(0)
}
