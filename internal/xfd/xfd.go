// Package xfd implements XML functional dependencies (Section 4 of
// Arenas & Libkin, PODS 2002): expressions S1 → S2 over paths of a DTD,
// whose semantics is defined on the tree-tuple representation with the
// Atzeni–Morfuni null semantics — a tree T satisfies S1 → S2 if any two
// maximal tuples that agree on S1 with non-null values also agree on S2
// (where ⊥ = ⊥ counts as agreement on the right-hand side).
//
// Checking an entire Σ is one clustered fold (CheckerSet) with two
// accumulators over one key encoder: the witness fold keeps each LHS
// group's first tuple and yields first-conflict witnesses, on a tree
// (Violations) or off a byte stream (CheckReader); FoldState keeps one
// serializable RHS key per group, so fragments of a document fold
// independently and merge — in process (ViolationsSharded) or across
// processes (internal/distrib). Differential suites pin every frontend
// bit-identical to the others; ARCHITECTURE.md (layers 3 and 3b) at
// the repo root maps them out.
package xfd

import (
	"fmt"
	"sort"
	"strings"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xmltree"
)

// FD is a functional dependency S1 → S2 over the paths of a DTD: its
// two sides as parsed paths, and nothing else. A path's interned
// paths.ID is its name between parsing and printing, and each compiler
// (CheckerSet, the closure engine, the engine's cache key) looks the
// FD's paths up once in its own universe.
type FD struct {
	LHS []dtd.Path
	RHS []dtd.Path
}

// New builds an FD from dotted path strings, panicking on syntax errors;
// for tests and literals. Use Parse for untrusted input.
func New(lhs []string, rhs []string) FD {
	fd, err := fromStrings(lhs, rhs)
	if err != nil {
		panic(err)
	}
	return fd
}

func fromStrings(lhs, rhs []string) (FD, error) {
	var fd FD
	for _, s := range lhs {
		p, err := dtd.ParsePath(s)
		if err != nil {
			return FD{}, err
		}
		fd.LHS = append(fd.LHS, p)
	}
	for _, s := range rhs {
		p, err := dtd.ParsePath(s)
		if err != nil {
			return FD{}, err
		}
		fd.RHS = append(fd.RHS, p)
	}
	return fd, nil
}

// Parse reads "p1, p2 -> q1, q2" notation.
func Parse(s string) (FD, error) {
	parts := strings.Split(s, "->")
	if len(parts) != 2 {
		return FD{}, fmt.Errorf("xfd: %q: want exactly one \"->\"", s)
	}
	lhs, err := splitPaths(parts[0])
	if err != nil {
		return FD{}, fmt.Errorf("xfd: %q: %v", s, err)
	}
	rhs, err := splitPaths(parts[1])
	if err != nil {
		return FD{}, fmt.Errorf("xfd: %q: %v", s, err)
	}
	if len(lhs) == 0 || len(rhs) == 0 {
		return FD{}, fmt.Errorf("xfd: %q: both sides must be non-empty", s)
	}
	return fromStrings(lhs, rhs)
}

// MustParse is Parse that panics on error.
func MustParse(s string) FD {
	fd, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return fd
}

func splitPaths(s string) ([]string, error) {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("empty path in %q", s)
		}
		out = append(out, part)
	}
	return out, nil
}

// String renders the FD in the parseable "p1, p2 -> q" notation.
func (f FD) String() string {
	var b strings.Builder
	for i, p := range f.LHS {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.String())
	}
	b.WriteString(" -> ")
	for i, p := range f.RHS {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.String())
	}
	return b.String()
}

// Validate checks that all paths of the FD are paths of the DTD.
func (f FD) Validate(d *dtd.DTD) error {
	if len(f.LHS) == 0 || len(f.RHS) == 0 {
		return fmt.Errorf("xfd: %s: sides must be non-empty", f)
	}
	for _, p := range append(append([]dtd.Path{}, f.LHS...), f.RHS...) {
		if !d.IsPath(p) {
			return fmt.Errorf("xfd: %s: %q is not a path of the DTD", f, p)
		}
	}
	return nil
}

// Paths returns LHS ∪ RHS without duplicates, in order of appearance.
func (f FD) Paths() []dtd.Path {
	out := make([]dtd.Path, 0, len(f.LHS)+len(f.RHS))
	for _, side := range [2][]dtd.Path{f.LHS, f.RHS} {
	next:
		for _, p := range side {
			for _, q := range out {
				if q.Equal(p) {
					continue next
				}
			}
			out = append(out, p)
		}
	}
	return out
}

// Clone returns a deep copy.
func (f FD) Clone() FD {
	c := FD{LHS: make([]dtd.Path, len(f.LHS)), RHS: make([]dtd.Path, len(f.RHS))}
	for i, p := range f.LHS {
		c.LHS[i] = p.Clone()
	}
	for i, p := range f.RHS {
		c.RHS[i] = p.Clone()
	}
	return c
}

// Equal reports whether two FDs have the same sides as sets.
func (f FD) Equal(o FD) bool {
	return samePathSet(f.LHS, o.LHS) && samePathSet(f.RHS, o.RHS)
}

// Compare orders FDs canonically: by the sorted, deduplicated string
// renderings of their left-hand sides, then of their right-hand sides
// (lexicographic on the path lists). It is a total order on FDs up to
// Equal, independent of the order paths were listed in, so sorting any
// FD slice with it yields one byte-stable rendering per FD set —
// covers, key reports and goldens all rely on that.
func Compare(a, b FD) int {
	if c := comparePathSets(a.LHS, b.LHS); c != 0 {
		return c
	}
	return comparePathSets(a.RHS, b.RHS)
}

func comparePathSets(a, b []dtd.Path) int {
	as, bs := pathStrings(a), pathStrings(b)
	for i := 0; i < len(as) && i < len(bs); i++ {
		if as[i] != bs[i] {
			if as[i] < bs[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(as) < len(bs):
		return -1
	case len(as) > len(bs):
		return 1
	}
	return 0
}

func samePathSet(a, b []dtd.Path) bool {
	as := pathStrings(a)
	bs := pathStrings(b)
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func pathStrings(ps []dtd.Path) []string {
	out := make([]string, 0, len(ps))
	seen := map[string]bool{}
	for _, p := range ps {
		s := p.String()
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// SingleRHS splits the FD into one FD per right-hand-side path
// (implication treats S → {p, q} as {S → p, S → q}). The singles share
// f's LHS slice, read-only.
func (f FD) SingleRHS() []FD {
	out := make([]FD, 0, len(f.RHS))
	for _, p := range f.RHS {
		out = append(out, FD{LHS: f.LHS, RHS: []dtd.Path{p}})
	}
	return out
}

// Satisfies checks T ⊨ f: for every pair of maximal tuples t1, t2 of T,
// if t1.LHS = t2.LHS with all values non-null, then t1.RHS = t2.RHS
// (null = null counts as equal). It compiles f as a one-FD CheckerSet,
// so the check streams projections onto f's paths only and never
// materializes the full tuple set. Callers checking many trees should
// compile a CheckerSet once instead.
func Satisfies(t *xmltree.Tree, f FD) bool { return SatisfiesAll(t, []FD{f}) }

// Violation returns a witness pair of projected tuples violating f, if
// any: the first conflict in enumeration order.
func Violation(t *xmltree.Tree, f FD) ([2]tuples.Tuple, bool) {
	vs := ViolationReport(t, []FD{f})
	if len(vs) == 0 {
		return [2]tuples.Tuple{}, false
	}
	return vs[0].Witness, true
}

// SatisfiesAll checks T ⊨ Σ in one streaming walk of the document
// (see CheckerSet). Callers checking many trees against the same Σ
// should compile a CheckerSet once instead.
func SatisfiesAll(t *xmltree.Tree, sigma []FD) bool {
	if len(sigma) == 0 {
		return true
	}
	cs, err := NewCheckerSet(sigmaUniverse(sigma), sigma)
	if err != nil {
		return true // unreachable: query universes intern all of Σ's paths
	}
	return cs.SatisfiesAll(t)
}

// sigmaUniverse interns the paths of a whole FD set into one query
// universe.
func sigmaUniverse(sigma []FD) *paths.Universe {
	var ps []dtd.Path
	for _, f := range sigma {
		ps = append(ps, f.Paths()...)
	}
	return paths.ForQuery(ps)
}

// NewCheckerSetFor compiles sigma against a fresh query universe built
// from its own paths — the one-shot convenience constructor. Callers
// that already hold an interned universe (e.g. from paths.New on the
// DTD) should use NewCheckerSet to share it.
func NewCheckerSetFor(sigma []FD) (*CheckerSet, error) {
	return NewCheckerSet(sigmaUniverse(sigma), sigma)
}

// ParseSet reads one FD per line, ignoring blank lines and lines
// starting with '#'.
func ParseSet(s string) ([]FD, error) {
	var out []FD
	for i, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fd, err := Parse(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", i+1, err)
		}
		out = append(out, fd)
	}
	return out, nil
}

// FormatSet renders a set of FDs, one per line.
func FormatSet(sigma []FD) string {
	var b strings.Builder
	for _, f := range sigma {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Violated pairs an FD with a witness pair of tuple projections that
// violate it.
type Violated struct {
	FD      FD
	Witness [2]tuples.Tuple
}

// ViolationReport checks every FD of Σ against the document in one
// streaming walk (see CheckerSet) and returns the violated ones with
// witnesses, in Σ order. A valid document yields an empty report.
func ViolationReport(t *xmltree.Tree, sigma []FD) []Violated {
	if len(sigma) == 0 {
		return nil
	}
	cs, err := NewCheckerSet(sigmaUniverse(sigma), sigma)
	if err != nil {
		return nil // unreachable: query universes intern all of Σ's paths
	}
	return cs.Violations(t)
}
