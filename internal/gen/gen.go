// Package gen provides seeded workload generators used by the property
// tests and by every experiment in the benchmark harness: parameterized
// DTD families (chains, stars, disjunctive schemas with controllable
// N_D), random conforming documents, and the two document families of
// the paper's examples (university courses and DBLP) with controllable
// size and redundancy.
package gen

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/regex"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

// ChainDTD builds a simple DTD shaped like the paper's examples: a root
// with a starred child, which has a starred child, ... depth levels
// deep, each level carrying attrsPer attributes. |D| grows linearly
// with depth × attrsPer, which makes it the workhorse of the
// implication scaling experiments (E6, E9).
func ChainDTD(depth, attrsPer int) *dtd.DTD {
	d := dtd.New("r")
	prev := "r"
	for i := 0; i <= depth; i++ {
		name := prev
		e := &dtd.Element{Name: name}
		if i < depth {
			child := fmt.Sprintf("c%d", i)
			e.Kind = dtd.ModelContent
			e.Model = regex.Star(regex.Letter(child))
			prev = child
		} else {
			e.Kind = dtd.EmptyContent
		}
		if i > 0 {
			for a := 0; a < attrsPer; a++ {
				e.Attrs = append(e.Attrs, fmt.Sprintf("a%d_%d", i, a))
			}
		}
		if err := d.AddElement(e); err != nil {
			panic(err)
		}
	}
	if err := d.Validate(); err != nil {
		panic(err)
	}
	return d
}

// ChainPaths returns the element path to the i-th level of a ChainDTD
// (0 = root).
func ChainPaths(depth int) []dtd.Path {
	out := []dtd.Path{{"r"}}
	cur := dtd.Path{"r"}
	for i := 0; i < depth; i++ {
		cur = cur.Child(fmt.Sprintf("c%d", i))
		out = append(out, cur)
	}
	return out
}

// ChainFDs builds a Σ for a ChainDTD: at each level the first attribute
// is a key relative to the parent, and the second attribute (when
// present) is determined by the first — the FD3-style redundancy
// pattern on every level.
func ChainFDs(depth, attrsPer int) []xfd.FD {
	var sigma []xfd.FD
	paths := ChainPaths(depth)
	for i := 1; i <= depth; i++ {
		level := paths[i]
		key := level.Child(fmt.Sprintf("@a%d_0", i))
		sigma = append(sigma, xfd.FD{
			LHS: []dtd.Path{paths[i-1], key},
			RHS: []dtd.Path{level},
		})
		if attrsPer > 1 {
			sigma = append(sigma, xfd.FD{
				LHS: []dtd.Path{key},
				RHS: []dtd.Path{level.Child(fmt.Sprintf("@a%d_1", i))},
			})
		}
	}
	return sigma
}

// WideDTD builds a root with width starred children, each an EMPTY
// element with attrsPer attributes.
func WideDTD(width, attrsPer int) *dtd.DTD {
	d := dtd.New("r")
	var model *regex.Expr
	for i := 0; i < width; i++ {
		model = regex.AppendLetter(model, fmt.Sprintf("c%d", i), regex.StarM)
	}
	if err := d.AddElement(&dtd.Element{Name: "r", Kind: dtd.ModelContent, Model: model}); err != nil {
		panic(err)
	}
	for i := 0; i < width; i++ {
		e := &dtd.Element{Name: fmt.Sprintf("c%d", i), Kind: dtd.EmptyContent}
		for a := 0; a < attrsPer; a++ {
			e.Attrs = append(e.Attrs, fmt.Sprintf("a%d_%d", i, a))
		}
		if err := d.AddElement(e); err != nil {
			panic(err)
		}
	}
	if err := d.Validate(); err != nil {
		panic(err)
	}
	return d
}

// DisjunctiveDTD builds <!ELEMENT r (p*)> with
// <!ELEMENT p ((b0_0|...|b0_k), (b1_0|...|b1_k), ...)> — groups
// disjunction factors of branches letters each, so that
// N_D = branches^groups, the knob of the Theorem 4/5 experiments.
func DisjunctiveDTD(groups, branches int) *dtd.DTD {
	d := dtd.New("r")
	if err := d.AddElement(&dtd.Element{
		Name: "r", Kind: dtd.ModelContent, Model: regex.Star(regex.Letter("p")),
	}); err != nil {
		panic(err)
	}
	var factors []*regex.Expr
	for g := 0; g < groups; g++ {
		var alts []*regex.Expr
		for b := 0; b < branches; b++ {
			alts = append(alts, regex.Letter(fmt.Sprintf("b%d_%d", g, b)))
		}
		factors = append(factors, regex.Union(alts...))
	}
	p := &dtd.Element{Name: "p", Kind: dtd.ModelContent, Model: regex.Concat(factors...),
		Attrs: []string{"k"}}
	if groups == 0 {
		p.Kind, p.Model = dtd.EmptyContent, nil
	}
	if err := d.AddElement(p); err != nil {
		panic(err)
	}
	for g := 0; g < groups; g++ {
		for b := 0; b < branches; b++ {
			e := &dtd.Element{
				Name:  fmt.Sprintf("b%d_%d", g, b),
				Kind:  dtd.EmptyContent,
				Attrs: []string{"v"},
			}
			if err := d.AddElement(e); err != nil {
				panic(err)
			}
		}
	}
	if err := d.Validate(); err != nil {
		panic(err)
	}
	return d
}

// Document builds a random conforming document: every node's children
// realize a word of the content model, with each starred/plus position
// repeated 1..maxRepeat times, attributes drawn from valuesPerAttr
// distinct values.
func Document(d *dtd.DTD, rng *rand.Rand, maxRepeat, valuesPerAttr int) (*xmltree.Tree, error) {
	if maxRepeat < 1 {
		maxRepeat = 1
	}
	if valuesPerAttr < 1 {
		valuesPerAttr = 3
	}
	var build func(elem string, depth int) (*xmltree.Node, error)
	build = func(elem string, depth int) (*xmltree.Node, error) {
		if depth > 64 {
			return nil, fmt.Errorf("gen: recursion too deep; bound the DTD")
		}
		e := d.Element(elem)
		if e == nil {
			return nil, fmt.Errorf("gen: element %q not declared", elem)
		}
		n := xmltree.NewNode(elem)
		for _, a := range e.Attrs {
			n.SetAttr(a, fmt.Sprintf("%s_%d", a, rng.Intn(valuesPerAttr)))
		}
		switch e.Kind {
		case dtd.TextContent:
			n.SetText(fmt.Sprintf("t%d", rng.Intn(valuesPerAttr)))
		case dtd.ModelContent:
			word := randomWord(e.Model, rng, maxRepeat)
			for _, child := range word {
				c, err := build(child, depth+1)
				if err != nil {
					return nil, err
				}
				n.Children = append(n.Children, c)
			}
		}
		return n, nil
	}
	root, err := build(d.Root(), 0)
	if err != nil {
		return nil, err
	}
	return xmltree.NewTree(root), nil
}

// randomWord draws a random word from the language, repeating * and +
// bodies 0/1..maxRepeat times.
func randomWord(e *regex.Expr, rng *rand.Rand, maxRepeat int) []string {
	switch e.Kind {
	case regex.KindEmpty:
		return nil
	case regex.KindLetter:
		return []string{e.Name}
	case regex.KindConcat:
		var out []string
		for _, s := range e.Subs {
			out = append(out, randomWord(s, rng, maxRepeat)...)
		}
		return out
	case regex.KindUnion:
		return randomWord(e.Subs[rng.Intn(len(e.Subs))], rng, maxRepeat)
	case regex.KindStar:
		n := rng.Intn(maxRepeat + 1)
		var out []string
		for i := 0; i < n; i++ {
			out = append(out, randomWord(e.Sub, rng, maxRepeat)...)
		}
		return out
	case regex.KindPlus:
		n := 1 + rng.Intn(maxRepeat)
		var out []string
		for i := 0; i < n; i++ {
			out = append(out, randomWord(e.Sub, rng, maxRepeat)...)
		}
		return out
	case regex.KindOpt:
		if rng.Intn(2) == 0 {
			return nil
		}
		return randomWord(e.Sub, rng, maxRepeat)
	default:
		panic("gen: unknown kind")
	}
}

// University builds a Figure 1(a)-shaped document: courses courses,
// studentsPer students in each, student numbers drawn from a pool of
// poolSize students mapped onto names distinct names (names < poolSize
// forces shared names, as in the paper's Smith example). Every student
// keeps a single global name, so FD1-FD3 hold by construction, and the
// same student taking several courses stores its name redundantly.
func University(courses, studentsPer, poolSize, names int, rng *rand.Rand) *xmltree.Tree {
	if poolSize < studentsPer {
		poolSize = studentsPer
	}
	if names < 1 {
		names = 1
	}
	nameOf := func(st int) string { return fmt.Sprintf("name%d", st%names) }
	root := xmltree.NewNode("courses")
	for c := 0; c < courses; c++ {
		course := xmltree.NewNode("course").SetAttr("cno", fmt.Sprintf("c%d", c))
		title := xmltree.NewNode("title").SetText(fmt.Sprintf("Course %d", c))
		takenBy := xmltree.NewNode("taken_by")
		// Pick studentsPer distinct students from the pool.
		perm := rng.Perm(poolSize)[:studentsPer]
		for _, st := range perm {
			student := xmltree.NewNode("student").SetAttr("sno", fmt.Sprintf("st%d", st))
			name := xmltree.NewNode("name").SetText(nameOf(st))
			grade := xmltree.NewNode("grade").SetText([]string{"A", "B", "C", "D"}[rng.Intn(4)])
			student.Append(name, grade)
			takenBy.Children = append(takenBy.Children, student)
		}
		course.Append(title, takenBy)
		root.Children = append(root.Children, course)
	}
	return xmltree.NewTree(root)
}

// DBLP builds an Example 1.2-shaped document: confs conferences with
// issuesPer issues of papersPer papers; every paper of an issue carries
// the issue's year (so FD5 holds and the year is stored redundantly).
func DBLP(confs, issuesPer, papersPer int, rng *rand.Rand) *xmltree.Tree {
	root := xmltree.NewNode("db")
	key := 0
	for c := 0; c < confs; c++ {
		conf := xmltree.NewNode("conf")
		conf.Append(xmltree.NewNode("title").SetText(fmt.Sprintf("Conf%d", c)))
		for i := 0; i < issuesPer; i++ {
			issue := xmltree.NewNode("issue")
			year := fmt.Sprintf("%d", 1980+i)
			for p := 0; p < papersPer; p++ {
				paper := xmltree.NewNode("inproceedings").
					SetAttr("key", fmt.Sprintf("k%d", key)).
					SetAttr("pages", fmt.Sprintf("%d-%d", p*10, p*10+9)).
					SetAttr("year", year)
				key++
				for a := 0; a <= rng.Intn(2); a++ {
					paper.Children = append(paper.Children,
						xmltree.NewNode("author").SetText(fmt.Sprintf("Author%d", rng.Intn(50))))
				}
				paper.Children = append(paper.Children,
					xmltree.NewNode("title").SetText(fmt.Sprintf("Paper %d", key)),
					xmltree.NewNode("booktitle").SetText(fmt.Sprintf("Conf%d", c)))
				issue.Children = append(issue.Children, paper)
			}
			conf.Children = append(conf.Children, issue)
		}
		root.Children = append(root.Children, conf)
	}
	return xmltree.NewTree(root)
}

// ChainDocument builds a conforming document for ChainDTD(depth, 2)
// that satisfies ChainFDs(depth, 2): at every level the first attribute
// is unique among siblings (the relative key) and globally determines
// the second attribute (the FD3 pattern). Shared keys across distinct
// parents create the redundancy the normalization removes.
func ChainDocument(depth int, rng *rand.Rand) *xmltree.Tree {
	determined := map[string]string{}
	label := func(level int) string {
		if level == 0 {
			return "r"
		}
		return fmt.Sprintf("c%d", level-1)
	}
	var build func(level int) *xmltree.Node
	build = func(level int) *xmltree.Node {
		n := xmltree.NewNode(label(level))
		if level > 0 {
			key := fmt.Sprintf("k%d", rng.Intn(4))
			n.SetAttr(fmt.Sprintf("a%d_0", level), key)
			mapKey := fmt.Sprintf("%d/%s", level, key)
			det, ok := determined[mapKey]
			if !ok {
				det = fmt.Sprintf("d%d", rng.Intn(100))
				determined[mapKey] = det
			}
			n.SetAttr(fmt.Sprintf("a%d_1", level), det)
		}
		if level < depth {
			used := map[string]bool{}
			for i := 0; i <= rng.Intn(3); i++ {
				c := build(level + 1)
				kv, _ := c.Attr(fmt.Sprintf("a%d_0", level+1))
				if used[kv] {
					continue
				}
				used[kv] = true
				n.Children = append(n.Children, c)
			}
		}
		return n
	}
	return xmltree.NewTree(build(0))
}

// RandomSimpleDTD builds a small random simple DTD — a root r with a
// few children c<i>, each with a few EMPTY leaves l<i><j>, random
// multiplicities and optional attributes — whose generated documents
// stay small. The workhorse of the differential suites: small enough
// for quadratic reference implementations, varied enough to hit every
// multiplicity and ⊥ combination.
func RandomSimpleDTD(rng *rand.Rand) *dtd.DTD {
	mults := []string{"", "?", "+", "*"}
	var b strings.Builder
	nChildren := 1 + rng.Intn(2)
	nLeaves := 1 + rng.Intn(2)
	var rootParts []string
	for c := 0; c < nChildren; c++ {
		rootParts = append(rootParts, fmt.Sprintf("c%d%s", c, mults[rng.Intn(4)]))
	}
	fmt.Fprintf(&b, "<!ELEMENT r (%s)>\n", strings.Join(rootParts, ","))
	for c := 0; c < nChildren; c++ {
		var leafParts []string
		for l := 0; l < nLeaves; l++ {
			leafParts = append(leafParts, fmt.Sprintf("l%d%d%s", c, l, mults[rng.Intn(4)]))
		}
		fmt.Fprintf(&b, "<!ELEMENT c%d (%s)>\n", c, strings.Join(leafParts, ","))
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&b, "<!ATTLIST c%d k CDATA #REQUIRED>\n", c)
		}
		for l := 0; l < nLeaves; l++ {
			fmt.Fprintf(&b, "<!ELEMENT l%d%d EMPTY>\n", c, l)
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&b, "<!ATTLIST l%d%d v CDATA #REQUIRED>\n", c, l)
			}
		}
	}
	d, err := dtd.Parse(b.String())
	if err != nil {
		panic(err)
	}
	return d
}

// LogDTD is the streaming-benchmark family: an append-only event log
//
//	<!ELEMENT log (entry*)>  entry(detail*, note?)  detail, note #PCDATA
//	<!ATTLIST entry k, v>
//
// whose FD-relevant paths form a single chain (log.entry.note), so the
// token-fused checker can validate it without collecting any subtree,
// while the detail padding exercises the skip path. Documents of any
// byte size come from SizedLog.
func LogDTD() *dtd.DTD {
	d, err := dtd.Parse(`<!ELEMENT log (entry*)>
<!ELEMENT entry (detail*,note?)>
<!ATTLIST entry k CDATA #REQUIRED>
<!ATTLIST entry v CDATA #REQUIRED>
<!ELEMENT detail (#PCDATA)>
<!ELEMENT note (#PCDATA)>
`)
	if err != nil {
		panic(err)
	}
	return d
}

// LogFDs is the Σ checked over LogDTD documents: the key attribute
// determines the value attribute and the note text — both hold on
// SizedLog output unless its violate knob is set.
func LogFDs() []xfd.FD {
	return []xfd.FD{
		xfd.MustParse("log.entry.@k -> log.entry.@v"),
		xfd.MustParse("log.entry.@k -> log.entry.note.S"),
	}
}

// logReader lazily generates a LogDTD document of roughly target
// bytes; see SizedLog.
type logReader struct {
	buf     []byte
	off     int
	target  int64
	written int64 // bytes of entries emitted so far (excluding open/close tags)
	entry   int64
	keys    int
	padding int
	violate bool
	seed    int64
	state   int // 0 header, 1 entries, 2 violating entry, 3 footer, 4 done
	pad     []byte
}

// splitmix is a tiny deterministic hash for the entry -> key mapping,
// so documents are reproducible per seed without math/rand state.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (g *logReader) appendEntry(key int, v, note string) {
	g.buf = append(g.buf, "<entry k=\"k"...)
	g.buf = fmt.Appendf(g.buf, "%d", key)
	g.buf = append(g.buf, "\" v=\""...)
	g.buf = append(g.buf, v...)
	g.buf = append(g.buf, "\"><detail>"...)
	g.buf = append(g.buf, g.pad...)
	g.buf = append(g.buf, "</detail><note>"...)
	g.buf = append(g.buf, note...)
	g.buf = append(g.buf, "</note></entry>\n"...)
}

func (g *logReader) fill() {
	switch g.state {
	case 0:
		g.buf = append(g.buf, "<log>\n"...)
		g.state = 1
	case 1:
		if g.written >= g.target {
			if g.violate {
				g.state = 2
			} else {
				g.state = 3
			}
			return
		}
		key := int(splitmix(uint64(g.seed)+uint64(g.entry)) % uint64(g.keys))
		g.entry++
		before := len(g.buf)
		g.appendEntry(key, fmt.Sprintf("v%d", key), fmt.Sprintf("n%d", key))
		g.written += int64(len(g.buf) - before)
	case 2:
		// One conflicting duplicate of key 0 at the very end: same k,
		// different v and note — the last entry is always the second
		// tuple of the first conflict, for deterministic witnesses.
		g.appendEntry(0, "CONFLICT", "conflict-note")
		g.state = 3
	case 3:
		g.buf = append(g.buf, "</log>\n"...)
		g.state = 4
	}
}

func (g *logReader) Read(p []byte) (int, error) {
	for g.off == len(g.buf) {
		if g.state == 4 {
			return 0, io.EOF
		}
		g.buf, g.off = g.buf[:0], 0 // reuse the chunk storage
		g.fill()
	}
	n := copy(p, g.buf[g.off:])
	g.off += n
	return n, nil
}

// SizedLog returns a reader producing a LogDTD document of roughly
// target bytes (one entry past it), generated lazily and
// deterministically from the seed — a gigabyte-scale document costs no
// gigabyte of memory to produce, which is what the streaming-checker
// experiments need. Entry keys are drawn from a pool of keys distinct
// values, so the checker's fold state stays bounded regardless of
// size; v and note are functions of k, so LogFDs hold — unless violate
// is set, which appends one conflicting duplicate of key 0 as the
// final entry. padding sets the <detail> text length: bytes the
// checker must scan but never retain.
func SizedLog(target int64, seed int64, keys, padding int, violate bool) io.Reader {
	if keys < 1 {
		keys = 1
	}
	return &logReader{
		target:  target,
		seed:    seed,
		keys:    keys,
		padding: padding,
		violate: violate,
		pad:     bytes.Repeat([]byte{'x'}, padding),
	}
}
