package regex

import "math/bits"

// Thompson-style NFA construction and bit-set simulation matching over
// element-name alphabets. Used for DTD conformance checking (Definition 3)
// and for the exact sub-tests of the simplicity classifier.

// nfa is a nondeterministic finite automaton with ε-transitions. A
// Thompson NFA gives each state at most one letter transition: state s
// moves on letter index letter[s] (-1 for none) to state next[s].
type nfa struct {
	start, accept int32
	eps           [][]int32 // eps[s] = states reachable by one ε-edge from s
	letter        []int32
	next          []int32
	letters       map[string]int32 // letter name -> index
}

// Compile builds an NFA recognizing the language of e. Its letters are
// numbered here, once, so matching looks each input letter up once.
func Compile(e *Expr) *Matcher {
	n := &nfa{letters: map[string]int32{}}
	n.start, n.accept = n.build(e)
	return &Matcher{n: n}
}

func (n *nfa) newState() int32 {
	n.eps = append(n.eps, nil)
	n.letter = append(n.letter, -1)
	n.next = append(n.next, -1)
	return int32(len(n.eps) - 1)
}

func (n *nfa) addEps(from, to int32) { n.eps[from] = append(n.eps[from], to) }

func (n *nfa) addTrans(from int32, letter string, to int32) {
	li, ok := n.letters[letter]
	if !ok {
		li = int32(len(n.letters))
		n.letters[letter] = li
	}
	n.letter[from], n.next[from] = li, to
}

// build returns (start, accept) states for e.
func (n *nfa) build(e *Expr) (int32, int32) {
	switch e.Kind {
	case KindEmpty:
		s, a := n.newState(), n.newState()
		n.addEps(s, a)
		return s, a
	case KindLetter:
		s, a := n.newState(), n.newState()
		n.addTrans(s, e.Name, a)
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
	case KindStar:
		si, ai := n.build(e.Sub)
		s, a := n.newState(), n.newState()
		n.addEps(s, si)
		n.addEps(s, a)
		n.addEps(ai, si)
		n.addEps(ai, a)
		return s, a
	case KindPlus:
		si, ai := n.build(e.Sub)
		s, a := n.newState(), n.newState()
		n.addEps(s, si)
		n.addEps(ai, si)
		n.addEps(ai, a)
		return s, a
	case KindOpt:
		si, ai := n.build(e.Sub)
		s, a := n.newState(), n.newState()
		n.addEps(s, si)
		n.addEps(s, a)
		n.addEps(ai, a)
		return s, a
	default:
		panic("regex: unknown kind")
	}
}

// Matcher tests membership of words (sequences of element names) in a
// compiled regular language. A Matcher is safe for concurrent use.
type Matcher struct {
	n *nfa
}

// smallWords is the size, in 64-bit words, up to which Match keeps its
// two state sets and its ε-walk stack on the goroutine stack: NFAs of
// up to 256 states match without allocating.
const smallWords = 4

// Match reports whether the word is in the language. It simulates the
// NFA on state bit sets: each letter moves the current set along the
// states' letter transitions into the next set, which is then closed
// under ε-edges. Memory stays linear in the NFA: two sets of one bit
// per state and a walk stack of at most one entry per state.
func (m *Matcher) Match(word []string) bool {
	n := m.n
	words := (len(n.letter) + 63) / 64
	var sets [2 * smallWords]uint64
	var stackBuf [64 * smallWords]int32
	var cur, next []uint64
	stack := stackBuf[:0]
	if words <= smallWords {
		cur, next = sets[:words:words], sets[smallWords:smallWords+words]
	} else {
		cur, next, stack = make([]uint64, words), make([]uint64, words), make([]int32, 0, len(n.letter))
	}
	stack = n.add(cur, stack, n.start)
	for _, w := range word {
		li, ok := n.letters[w]
		if !ok {
			return false // a letter outside the alphabet has no transition
		}
		clear(next)
		moved := false
		for i, set := range cur {
			for ; set != 0; set &= set - 1 {
				s := i*64 + bits.TrailingZeros64(set)
				if n.letter[s] == li {
					stack = n.add(next, stack, n.next[s])
					moved = true
				}
			}
		}
		if !moved {
			return false
		}
		cur, next = next, cur
	}
	return cur[n.accept>>6]&(1<<(n.accept&63)) != 0
}

// add puts state s and every state its ε-edges reach into set, by a
// stack walk whose visited set is set itself. stack is the walk's
// scratch space; it is returned empty, for reuse.
func (n *nfa) add(set []uint64, stack []int32, s int32) []int32 {
	if set[s>>6]&(1<<(s&63)) != 0 {
		return stack
	}
	set[s>>6] |= 1 << (s & 63)
	stack = append(stack, s)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range n.eps[s] {
			if set[t>>6]&(1<<(t&63)) == 0 {
				set[t>>6] |= 1 << (t & 63)
				stack = append(stack, t)
			}
		}
	}
	return stack
}
