package regex

import (
	"fmt"
	"sort"
)

// Mult is the multiplicity class of a letter within a content model:
// how many children with that label a conforming node may have.
type Mult uint8

// Multiplicity classes, matching the four unit forms a, a?, a+, a* of a
// trivial regular expression (Section 7 of the paper).
const (
	One  Mult = iota // exactly one occurrence
	OptM             // zero or one
	PlusM
	StarM // zero or more
)

// String returns the DTD postfix notation for m ("", "?", "+", "*").
func (m Mult) String() string {
	switch m {
	case One:
		return ""
	case OptM:
		return "?"
	case PlusM:
		return "+"
	case StarM:
		return "*"
	}
	return "!"
}

// AllowsZero reports whether a node may have no child with this label.
func (m Mult) AllowsZero() bool { return m == OptM || m == StarM }

// AllowsMany reports whether a node may have several children with this
// label.
func (m Mult) AllowsMany() bool { return m == PlusM || m == StarM }

// withZero relaxes the multiplicity to also allow zero occurrences.
func (m Mult) withZero() Mult {
	switch m {
	case One:
		return OptM
	case PlusM:
		return StarM
	}
	return m
}

// withMany relaxes the multiplicity to also allow repeated occurrences.
func (m Mult) withMany() Mult {
	switch m {
	case One:
		return PlusM
	case OptM:
		return StarM
	}
	return m
}

// Counts is an occurrence-count interval for one letter: Lo is the
// minimum number of occurrences over all words (capped at 2), Hi is the
// maximum (capped at 2, where 2 stands for "two or more"; Unbounded
// marks a true ∞).
type Counts struct {
	Lo, Hi    int
	Unbounded bool
}

// cap2 caps a count at 2.
func cap2(n int) int {
	if n > 2 {
		return 2
	}
	return n
}

// CountsOf computes, for each letter of the alphabet, the interval of
// possible occurrence counts across words of the language of e.
// The bounds are exact up to the cap: Lo ∈ {0,1,2}, Hi ∈ {0,1,2/∞}.
func CountsOf(e *Expr) map[string]Counts {
	out := map[string]Counts{}
	for _, a := range e.Alphabet() {
		out[a] = countsOfLetter(e, a)
	}
	return out
}

func countsOfLetter(e *Expr, a string) Counts {
	switch e.Kind {
	case KindEmpty:
		return Counts{0, 0, false}
	case KindLetter:
		if e.Name == a {
			return Counts{1, 1, false}
		}
		return Counts{0, 0, false}
	case KindConcat:
		c := Counts{0, 0, false}
		for _, s := range e.Subs {
			cs := countsOfLetter(s, a)
			c.Lo = cap2(c.Lo + cs.Lo)
			c.Hi = cap2(c.Hi + cs.Hi)
			c.Unbounded = c.Unbounded || cs.Unbounded
		}
		return c
	case KindUnion:
		c := countsOfLetter(e.Subs[0], a)
		for _, s := range e.Subs[1:] {
			cs := countsOfLetter(s, a)
			if cs.Lo < c.Lo {
				c.Lo = cs.Lo
			}
			if cs.Hi > c.Hi {
				c.Hi = cs.Hi
			}
			c.Unbounded = c.Unbounded || cs.Unbounded
		}
		return c
	case KindStar:
		cs := countsOfLetter(e.Sub, a)
		if cs.Hi == 0 {
			return Counts{0, 0, false}
		}
		return Counts{0, 2, true}
	case KindPlus:
		cs := countsOfLetter(e.Sub, a)
		if cs.Hi == 0 {
			return Counts{0, 0, false}
		}
		return Counts{cs.Lo, 2, true}
	case KindOpt:
		cs := countsOfLetter(e.Sub, a)
		return Counts{0, cs.Hi, cs.Unbounded}
	default:
		panic("regex: unknown kind")
	}
}

// Units is the result of classifying a content model as *simple* in the
// sense of Section 7: the language is, up to permutation of words, the
// language of a trivial expression a1^m1, ..., ak^mk with distinct
// letters. The map gives the multiplicity class of each letter.
type Units map[string]Mult

// String renders the units as a trivial regular expression, letters in
// sorted order.
func (u Units) String() string {
	letters := make([]string, 0, len(u))
	for a := range u {
		letters = append(letters, a)
	}
	sort.Strings(letters)
	s := ""
	for i, a := range letters {
		if i > 0 {
			s += ","
		}
		s += a + u[a].String()
	}
	if s == "" {
		return "()"
	}
	return s
}

// Simple classifies e as a simple regular expression. On success it
// returns the per-letter multiplicities of the equivalent trivial
// expression. The classifier is structural and exact on every form that
// occurs in practice (and on all content models in the paper, including
// the ebXML schema of Figure 5); on exotic forms it may conservatively
// report "not simple". Star sub-expressions are handled exactly via a
// single-letter membership test.
func Simple(e *Expr) (Units, bool) {
	return classifySimple(e)
}

func classifySimple(e *Expr) (Units, bool) {
	switch e.Kind {
	case KindEmpty:
		return Units{}, true
	case KindLetter:
		return Units{e.Name: One}, true
	case KindConcat:
		out := Units{}
		for _, s := range e.Subs {
			u, ok := classifySimple(s)
			if !ok {
				return nil, false
			}
			for a, m := range u {
				if prev, dup := out[a]; dup {
					// A letter repeated across factors is still simple
					// when the sumset of the two occurrence-count sets is
					// itself a valid multiplicity class; e.g. the ebXML
					// schema uses Documentation*, ..., (Documentation|...)*
					// which merges to Documentation*. Shapes like (a,a)
					// or (a,a?) have sumsets {2} and {1,2} and are
					// rejected.
					merged, ok := combineMults(prev, m)
					if !ok {
						return nil, false
					}
					out[a] = merged
					continue
				}
				out[a] = m
			}
		}
		return out, true
	case KindOpt:
		u, ok := classifySimple(e.Sub)
		if !ok {
			return nil, false
		}
		if len(u) <= 1 {
			for a, m := range u {
				u[a] = m.withZero()
			}
			return u, true
		}
		// (x)? over several letters: adding ε changes the commutative
		// image unless x was already nullable.
		if e.Sub.Nullable() {
			return u, true
		}
		return nil, false
	case KindStar:
		// L* is permutation-equivalent to a1*,...,ak* iff every unit
		// vector is in the Parikh image of L, i.e. iff L accepts each
		// single-letter word. This test is exact.
		alpha := e.Sub.Alphabet()
		m := Compile(e.Sub)
		for _, a := range alpha {
			if !m.Match([]string{a}) {
				return nil, false
			}
		}
		u := Units{}
		for _, a := range alpha {
			u[a] = StarM
		}
		return u, true
	case KindPlus:
		if e.Sub.Nullable() {
			// ε ∈ L makes L+ = L*, reuse the exact star rule.
			return classifySimple(Star(e.Sub))
		}
		u, ok := classifySimple(e.Sub)
		if !ok || len(u) != 1 {
			// Multi-letter non-nullable bodies such as (a|b)+ are not
			// simple; shapes like (a,b*)+ are conservatively rejected.
			return nil, false
		}
		for a, m := range u {
			u[a] = m.withMany()
		}
		return u, true
	case KindUnion:
		// A bare union is simple only when it is really an option: at
		// most one non-empty branch, the rest ε. (General disjunction
		// (a|b) is what the paper's simple class excludes.)
		var nonEmpty []*Expr
		sawEmpty := false
		for _, s := range e.Subs {
			if s.Nullable() && s.Alphabet() == nil {
				sawEmpty = true
				continue
			}
			if s.Kind == KindEmpty {
				sawEmpty = true
				continue
			}
			nonEmpty = append(nonEmpty, s)
		}
		if len(nonEmpty) == 0 {
			return Units{}, true
		}
		if len(nonEmpty) == 1 {
			u, ok := classifySimple(nonEmpty[0])
			if !ok {
				return nil, false
			}
			if sawEmpty {
				if len(u) <= 1 || nonEmpty[0].Nullable() {
					for a, m := range u {
						u[a] = m.withZero()
					}
					return u, true
				}
				return nil, false
			}
			return u, true
		}
		return nil, false
	default:
		panic("regex: unknown kind")
	}
}

// combineMults returns the multiplicity class of the sum of occurrence
// counts of two independent factors mentioning the same letter, and
// whether that sumset is exactly one of the four trivial classes.
func combineMults(m1, m2 Mult) (Mult, bool) {
	lo := 0
	if !m1.AllowsZero() {
		lo++
	}
	if !m2.AllowsZero() {
		lo++
	}
	if lo > 1 {
		return 0, false // minimum two occurrences: never a trivial class
	}
	// Both factors mention the letter (hi ≥ 1 each), so the sum can always
	// reach 2; the sumset is a trivial class only when it is unbounded
	// above, i.e. at least one factor allows repetition. Otherwise it is a
	// bounded set like {1,2} or {0,1,2}, which no trivial class denotes.
	if !m1.AllowsMany() && !m2.AllowsMany() {
		return 0, false
	}
	if lo == 1 {
		return PlusM, true
	}
	return StarM, true
}

// Disjunction is a classified *simple disjunction* (Section 7): an
// expression of the form ε | a1 | a2 | ... with pairwise distinct
// letters. A conforming node has exactly one child drawn from Letters
// (or none, if Nullable).
type Disjunction struct {
	Letters  []string // sorted, pairwise distinct
	Nullable bool     // whether ε is a branch
}

// SimpleDisjunction classifies e as a simple disjunction. It succeeds on
// single letters, ε, and unions of those with disjoint alphabets.
func SimpleDisjunction(e *Expr) (Disjunction, bool) {
	d := Disjunction{}
	seen := map[string]bool{}
	ok := collectDisjunction(e, &d, seen)
	if !ok {
		return Disjunction{}, false
	}
	sort.Strings(d.Letters)
	return d, true
}

func collectDisjunction(e *Expr, d *Disjunction, seen map[string]bool) bool {
	switch e.Kind {
	case KindEmpty:
		d.Nullable = true
		return true
	case KindLetter:
		if seen[e.Name] {
			return false // alphabets of branches must be disjoint
		}
		seen[e.Name] = true
		d.Letters = append(d.Letters, e.Name)
		return true
	case KindUnion:
		for _, s := range e.Subs {
			if !collectDisjunction(s, d, seen) {
				return false
			}
		}
		return true
	case KindOpt:
		d.Nullable = true
		return collectDisjunction(e.Sub, d, seen)
	default:
		return false
	}
}

// Factor is one top-level concatenation factor of a disjunctive content
// model: either a simple sub-expression (with per-letter multiplicities)
// or a simple disjunction.
type Factor struct {
	Units Units       // non-nil for a simple factor
	Disj  Disjunction // set when Units is nil
}

// IsDisjunction reports whether the factor is a simple disjunction.
func (f Factor) IsDisjunction() bool { return f.Units == nil }

// Alphabet returns the sorted letters of the factor.
func (f Factor) Alphabet() []string {
	if f.Units != nil {
		letters := make([]string, 0, len(f.Units))
		for a := range f.Units {
			letters = append(letters, a)
		}
		sort.Strings(letters)
		return letters
	}
	return f.Disj.Letters
}

// Disjunctive classifies e as a disjunctive content model (Section 7):
// a concatenation s1,...,sm where each si is a simple expression or a
// simple disjunction, with pairwise disjoint alphabets. Every simple
// expression is disjunctive (with zero disjunction factors).
func Disjunctive(e *Expr) ([]Factor, bool) {
	// A simple expression as a whole is a disjunctive model with a single
	// simple factor. Trying this first also accepts expressions whose
	// top-level factors share letters but merge to a simple form (such as
	// the ebXML content models), keeping "simple ⊆ disjunctive" true.
	if u, ok := classifySimple(e); ok {
		if len(u) == 0 {
			return nil, true
		}
		return []Factor{{Units: u}}, true
	}
	var factors []Factor
	parts := flattenConcat(e)
	seen := map[string]bool{}
	for _, part := range parts {
		if u, ok := classifySimple(part); ok {
			if !disjointInto(seen, u) {
				return nil, false
			}
			factors = append(factors, Factor{Units: u})
			continue
		}
		if d, ok := SimpleDisjunction(part); ok {
			for _, a := range d.Letters {
				if seen[a] {
					return nil, false
				}
				seen[a] = true
			}
			factors = append(factors, Factor{Disj: d})
			continue
		}
		return nil, false
	}
	return factors, true
}

func disjointInto(seen map[string]bool, u Units) bool {
	for a := range u {
		if seen[a] {
			return false
		}
		seen[a] = true
	}
	return true
}

func flattenConcat(e *Expr) []*Expr {
	if e.Kind != KindConcat {
		return []*Expr{e}
	}
	var out []*Expr
	for _, s := range e.Subs {
		out = append(out, flattenConcat(s)...)
	}
	return out
}

// TrivialOf renders the units map back to an expression tree (the
// canonical trivial expression for a simple content model).
func TrivialOf(u Units) *Expr {
	letters := make([]string, 0, len(u))
	for a := range u {
		letters = append(letters, a)
	}
	sort.Strings(letters)
	subs := make([]*Expr, 0, len(letters))
	for _, a := range letters {
		var x *Expr = Letter(a)
		switch u[a] {
		case OptM:
			x = Opt(x)
		case PlusM:
			x = Plus(x)
		case StarM:
			x = Star(x)
		}
		subs = append(subs, x)
	}
	return Concat(subs...)
}

// FactorCost returns N_s for one factor: 1 for a simple factor, the
// number of branches for a simple disjunction (the paper counts the
// number of '|' symbols plus one).
func FactorCost(f Factor) int {
	if !f.IsDisjunction() {
		return 1
	}
	n := len(f.Disj.Letters)
	if f.Disj.Nullable {
		n++
	}
	if n == 0 {
		n = 1
	}
	return n
}

// RemoveLetter returns an expression for the language of e with every
// occurrence of the letter erased from every word (the image of the
// language under the homomorphism a ↦ ε). Used by the normalization
// algorithm when an attribute or a text element is moved out of a
// content model. The result is simplified: ε units are dropped from
// concatenations and unions collapse where possible.
func RemoveLetter(e *Expr, name string) *Expr {
	switch e.Kind {
	case KindEmpty:
		return Empty()
	case KindLetter:
		if e.Name == name {
			return Empty()
		}
		return Letter(e.Name)
	case KindConcat:
		var subs []*Expr
		for _, s := range e.Subs {
			r := RemoveLetter(s, name)
			if r.Kind == KindEmpty {
				continue
			}
			subs = append(subs, r)
		}
		return Concat(subs...)
	case KindUnion:
		var subs []*Expr
		sawEmpty := false
		for _, s := range e.Subs {
			r := RemoveLetter(s, name)
			if r.Kind == KindEmpty {
				sawEmpty = true
				continue
			}
			subs = append(subs, r)
		}
		if len(subs) == 0 {
			return Empty()
		}
		u := Union(subs...)
		if sawEmpty && !u.Nullable() {
			return Opt(u)
		}
		return u
	case KindStar:
		r := RemoveLetter(e.Sub, name)
		if r.Kind == KindEmpty {
			return Empty()
		}
		return Star(r)
	case KindPlus:
		r := RemoveLetter(e.Sub, name)
		if r.Kind == KindEmpty {
			return Empty()
		}
		return Plus(r)
	case KindOpt:
		r := RemoveLetter(e.Sub, name)
		if r.Kind == KindEmpty {
			return Empty()
		}
		return Opt(r)
	default:
		panic("regex: unknown kind")
	}
}

// AppendLetter returns e with the letter appended as a new trailing
// concatenation factor carrying the given multiplicity. Used when the
// normalization algorithm adds a fresh element type to a content model
// (P'(last(q)) = P(last(q)), τ*).
func AppendLetter(e *Expr, name string, m Mult) *Expr {
	var unit *Expr = Letter(name)
	switch m {
	case OptM:
		unit = Opt(unit)
	case PlusM:
		unit = Plus(unit)
	case StarM:
		unit = Star(unit)
	}
	if e == nil || e.Kind == KindEmpty {
		return unit
	}
	if e.Kind == KindConcat {
		subs := append(append([]*Expr(nil), e.Subs...), unit)
		return Concat(subs...)
	}
	return Concat(e, unit)
}

// VerifyUnitsCapped cross-checks a simplicity classification against the
// capped Parikh image of the language: it enumerates occurrence-count
// intervals per letter and compares them with the classified
// multiplicities. Used by tests as an independent oracle.
func VerifyUnitsCapped(e *Expr, u Units) error {
	counts := CountsOf(e)
	if len(counts) != len(u) {
		return fmt.Errorf("alphabet mismatch: counts=%d units=%d", len(counts), len(u))
	}
	for a, c := range counts {
		m, ok := u[a]
		if !ok {
			return fmt.Errorf("letter %q missing from units", a)
		}
		wantLo := 1
		if m.AllowsZero() {
			wantLo = 0
		}
		wantManyHi := m.AllowsMany()
		if c.Lo != wantLo {
			return fmt.Errorf("letter %q: lo=%d, mult %q wants %d", a, c.Lo, m, wantLo)
		}
		gotMany := c.Hi >= 2 || c.Unbounded
		if gotMany != wantManyHi {
			return fmt.Errorf("letter %q: many=%v, mult %q wants %v", a, gotMany, m, wantManyHi)
		}
	}
	return nil
}
