package regex

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// mapNFA is the matcher Match replaced, kept as its oracle: the same
// Thompson construction with each state's letter transitions in a map,
// simulated on state sets held in maps. It shares no code with
// Compile or Match.
type mapNFA struct {
	start, accept int
	eps           [][]int
	trans         []map[string]int
}

func compileMapNFA(e *Expr) *mapNFA {
	n := &mapNFA{}
	n.start, n.accept = n.build(e)
	return n
}

func (n *mapNFA) newState() int {
	n.eps = append(n.eps, nil)
	n.trans = append(n.trans, nil)
	return len(n.eps) - 1
}

func (n *mapNFA) addEps(from, to int) { n.eps[from] = append(n.eps[from], to) }

func (n *mapNFA) build(e *Expr) (int, int) {
	switch e.Kind {
	case KindEmpty:
		s, a := n.newState(), n.newState()
		n.addEps(s, a)
		return s, a
	case KindLetter:
		s, a := n.newState(), n.newState()
		n.trans[s] = map[string]int{e.Name: a}
		return s, a
	case KindConcat:
		s, a := n.build(e.Subs[0])
		for _, sub := range e.Subs[1:] {
			s2, a2 := n.build(sub)
			n.addEps(a, s2)
			a = a2
		}
		return s, a
	case KindUnion:
		s, a := n.newState(), n.newState()
		for _, sub := range e.Subs {
			si, ai := n.build(sub)
			n.addEps(s, si)
			n.addEps(ai, a)
		}
		return s, a
	default: // KindStar, KindPlus, KindOpt
		si, ai := n.build(e.Sub)
		s, a := n.newState(), n.newState()
		if e.Kind != KindPlus {
			n.addEps(s, a) // zero times
		}
		n.addEps(s, si)
		if e.Kind != KindOpt {
			n.addEps(ai, si) // again
		}
		n.addEps(ai, a)
		return s, a
	}
}

func (n *mapNFA) match(word []string) bool {
	cur := n.closure(map[int]bool{n.start: true})
	for _, letter := range word {
		next := map[int]bool{}
		for s := range cur {
			if to, ok := n.trans[s][letter]; ok {
				next[to] = true
			}
		}
		if len(next) == 0 {
			return false
		}
		cur = n.closure(next)
	}
	return cur[n.accept]
}

func (n *mapNFA) closure(set map[int]bool) map[int]bool {
	stack := make([]int, 0, len(set))
	for s := range set {
		stack = append(stack, s)
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range n.eps[s] {
			if !set[t] {
				set[t] = true
				stack = append(stack, t)
			}
		}
	}
	return set
}

// wideModels returns content models whose NFAs have more than 64 and
// more than 256 states, so Match's allocated sets and multi-word sets
// are exercised: a 40-letter sequence (80 states), 150 alternatives
// under a star (304 states) and sequences of ?, * and + nested 12 deep
// (122 states).
func wideModels() []string {
	names := func(k int) []string {
		out := make([]string, k)
		for i := range out {
			out[i] = fmt.Sprintf("e%d", i%17)
		}
		return out
	}
	nested := "a"
	for i := 0; i < 12; i++ {
		nested = fmt.Sprintf("(b%d?,(%s)*,c%d+)", i%3, nested, i%2)
	}
	return []string{
		strings.Join(names(40), ","),
		"(" + strings.Join(names(150), "|") + ")*",
		nested,
	}
}

// outsideLetter returns a name that is not in the alphabet.
func outsideLetter(alphabet []string) string {
	out := "z"
	for slices.Contains(alphabet, out) {
		out += "_"
	}
	return out
}

// checkMatchesMapNFA compares Match with the map oracle on every
// prefix of the word that picks spells: each byte picks a letter of the
// model's alphabet, or the outside letter.
func checkMatchesMapNFA(t *testing.T, e *Expr, picks []byte) {
	t.Helper()
	m, oracle := Compile(e), compileMapNFA(e)
	letters := append(e.Alphabet(), outsideLetter(e.Alphabet()))
	word := make([]string, 0, len(picks))
	for i := 0; ; i++ {
		if got, want := m.Match(word), oracle.match(word); got != want {
			t.Fatalf("(%s) on %v: Match = %v, map NFA %v", e, word, got, want)
		}
		if i == len(picks) {
			return
		}
		word = append(word, letters[int(picks[i])%len(letters)])
	}
}

// TestMatchMatchesMapNFA is the seeded differential for the bit-set
// matcher: 4,000 random expressions over three letters, each on every
// prefix of a random 12-letter word over its letters and one outside
// letter, and the wide models on 64-letter words.
func TestMatchMatchesMapNFA(t *testing.T) {
	rng := rand.New(rand.NewSource(20020603))
	picks := make([]byte, 64)
	for i := 0; i < 4000; i++ {
		e := randomExpr(rng.Uint64(), []string{"a", "b", "c"}, 1+rng.Intn(6))
		rng.Read(picks[:12])
		checkMatchesMapNFA(t, e, picks[:12])
	}
	for _, model := range wideModels() {
		e := MustParse(model)
		for i := 0; i < 50; i++ {
			rng.Read(picks)
			checkMatchesMapNFA(t, e, picks)
		}
		// The model's own shortest word, which reaches the accept state.
		if !Compile(e).Match(e.MinWord()) {
			t.Errorf("(%s) rejects its MinWord", model)
		}
	}
}

// TestMatchAllocs: matching on an NFA of up to 256 states allocates
// nothing; a wider one allocates its two sets and its walk stack.
func TestMatchAllocs(t *testing.T) {
	small := Compile(MustParse("(title, taken_by, (a | b)*, c?)"))
	word := []string{"title", "taken_by", "a", "b", "a", "c"}
	if !small.Match(word) {
		t.Fatal("small model rejects its word")
	}
	if allocs := testing.AllocsPerRun(100, func() { small.Match(word) }); allocs != 0 {
		t.Errorf("Match on a small NFA allocates %.0f objects, want 0", allocs)
	}
	wide := MustParse(wideModels()[1])
	m := Compile(wide)
	if n := len(m.n.letter); n <= 64*smallWords {
		t.Fatalf("wide model has %d states, want more than %d", n, 64*smallWords)
	}
	w := []string{"e3", "e1", "e16"}
	if allocs := testing.AllocsPerRun(100, func() { m.Match(w) }); allocs > 3 {
		t.Errorf("Match on a %d-state NFA allocates %.0f objects, want at most 3", len(m.n.letter), allocs)
	}
}

// FuzzMatch holds Match to the map oracle: a content model parsed from
// the fuzz input, and every prefix of a word whose bytes each pick one
// of the model's letters or a letter outside it.
func FuzzMatch(f *testing.F) {
	for _, s := range append([]string{
		"a", "a*", "(a|b)+", "a,b?,c*", "()", "(a,(b|()),a)*",
		"logo*,title,(qna+|q+|(p|div|section)+)",
	}, wideModels()...) {
		f.Add(s, []byte{0, 1, 2, 3, 0, 1, 5, 8, 13})
	}
	f.Fuzz(func(t *testing.T, model string, picks []byte) {
		e, err := Parse(model)
		if err != nil {
			return
		}
		if len(picks) > 64 {
			picks = picks[:64]
		}
		checkMatchesMapNFA(t, e, picks)
	})
}
