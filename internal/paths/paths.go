// Package paths interns paths(D) into a dense integer universe. Every
// layer above the DTD — tuple extraction, FD checking, the closure
// decider, XNF search, the engine cache — keys its hot structures by
// paths; re-joining []string step slices on each lookup dominates those
// inner loops. A Universe assigns each path of a finalized DTD a dense
// ID with precomputed parent, depth, kind and multiplicity, so the rest
// of the stack can carry integers and bitsets (Set) end to end and keep
// the dotted string form only at parse/print boundaries.
//
// Universes are immutable once built. DTDs in this repository are
// mutated by the XNF transforms (AddAttr/RemoveAttr), so a Universe is
// built explicitly at each finalize point (engine construction, CLI
// commands, tests) rather than memoized on the DTD.
//
// This is layer 1 of the checking spine (ARCHITECTURE.md at the repo
// root walks the layers); everything from tuple extraction up keys
// its work by this package's IDs and Sets.
package paths

import (
	"fmt"
	"sort"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/regex"
)

// ID is a dense path identifier within one Universe. IDs are assigned
// in the breadth-first order of dtd.(*DTD).Paths, so parents always
// have smaller IDs than their children.
type ID int32

// None is the null ID (no path).
const None ID = -1

// Kind classifies a path by its last step.
type Kind uint8

// Path kinds.
const (
	ElemKind Kind = iota // ends with an element type (EPaths(D))
	AttrKind             // ends with an attribute step "@a"
	TextKind             // ends with the text step S
)

func (k Kind) String() string {
	switch k {
	case ElemKind:
		return "elem"
	case AttrKind:
		return "attr"
	case TextKind:
		return "text"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// kindOf classifies a parsed path.
func kindOf(p dtd.Path) Kind {
	switch {
	case p.IsAttr():
		return AttrKind
	case p.IsText():
		return TextKind
	}
	return ElemKind
}

// Info is the precomputed metadata of one interned path.
type Info struct {
	Path   dtd.Path
	Str    string // Path.String(), computed once at interning time
	Parent ID     // None for the single-step root path
	Depth  int    // number of steps (the paper's length(w))
	Kind   Kind
	// Mult is the occurrence multiplicity of the last step under its
	// parent: how many children with that label a conforming node may
	// have. Attribute and text steps are always One; query universes
	// (ForQuery), which have no DTD, default every path to StarM.
	Mult regex.Mult
}

// Universe is an immutable interning of a path set. Build one with New
// (all of paths(D) for a non-recursive DTD) or ForQuery (the prefix
// closure of an ad-hoc path list).
type Universe struct {
	d     *dtd.DTD // nil for query universes
	infos []Info
	// firsts and kids are the universe's one path index, a trie over
	// steps: firsts maps each first step to its one-step path (a DTD
	// universe has one, a query universe may have several), kids each
	// path's child steps to the child IDs.
	firsts   map[string]ID
	kids     []map[string]ID // per ID: child step -> child ID (nil when childless)
	lexOrder []ID            // IDs sorted by Str; reproduces sorted-string-key iteration
}

// New interns paths(D) for a non-recursive DTD in breadth-first order
// (the order of d.Paths), with per-path multiplicity derived from the
// content models.
func New(d *dtd.DTD) (*Universe, error) {
	ps, err := d.Paths()
	if err != nil {
		return nil, err
	}
	u := newUniverse(len(ps))
	u.d = d
	counts := map[string]map[string]regex.Counts{} // element name -> per-letter counts
	for _, p := range ps {
		id := u.intern(p)
		if len(p) == 1 || p.IsAttr() || p.IsText() {
			continue // Mult stays One
		}
		parentName := p[len(p)-2]
		c, ok := counts[parentName]
		if !ok {
			if e := d.Element(parentName); e != nil && e.Kind == dtd.ModelContent {
				c = regex.CountsOf(e.Model)
			}
			counts[parentName] = c
		}
		u.infos[id].Mult = multOf(c[p.Last()])
	}
	u.finish()
	return u, nil
}

// ForQuery interns the prefix closure of an ad-hoc path list, in
// first-occurrence order with each path's prefixes before the path.
// Query universes carry no DTD and no multiplicity information (every
// path reports StarM); they exist so DTD-less entry points (Projections
// on a bare tree, the public Satisfies) can still run on IDs.
func ForQuery(ps []dtd.Path) *Universe {
	u := newUniverse(len(ps))
	for _, p := range ps {
		for i := 1; i <= len(p); i++ {
			u.intern(p[:i])
		}
	}
	for i := range u.infos {
		u.infos[i].Mult = regex.StarM
	}
	u.finish()
	return u
}

func newUniverse(capHint int) *Universe {
	return &Universe{
		infos:  make([]Info, 0, capHint),
		firsts: map[string]ID{},
	}
}

// intern adds a path (whose parent, if any, must already be interned)
// and returns its ID; re-interning is a no-op.
func (u *Universe) intern(p dtd.Path) ID {
	if id, ok := u.Lookup(p); ok {
		return id
	}
	id := ID(len(u.infos))
	info := Info{Path: p, Str: p.String(), Parent: None, Depth: len(p), Kind: kindOf(p), Mult: regex.One}
	if len(p) == 1 {
		u.firsts[p[0]] = id
	} else {
		parent := u.MustLookup(p[:len(p)-1])
		info.Parent = parent
		if u.kids[parent] == nil {
			u.kids[parent] = map[string]ID{}
		}
		u.kids[parent][p.Last()] = id
	}
	u.infos = append(u.infos, info)
	u.kids = append(u.kids, nil)
	return id
}

// finish precomputes the lexicographic iteration order.
func (u *Universe) finish() {
	u.lexOrder = make([]ID, len(u.infos))
	for i := range u.lexOrder {
		u.lexOrder[i] = ID(i)
	}
	sort.Slice(u.lexOrder, func(i, j int) bool {
		return u.infos[u.lexOrder[i]].Str < u.infos[u.lexOrder[j]].Str
	})
}

// DTD returns the DTD the universe was built from, or nil for query
// universes.
func (u *Universe) DTD() *dtd.DTD { return u.d }

// Size returns the number of interned paths.
func (u *Universe) Size() int { return len(u.infos) }

// Lookup returns the ID of a path, or (None, false) if it is not in
// the universe. It follows the path's steps through the index, so it
// renders nothing.
func (u *Universe) Lookup(p dtd.Path) (ID, bool) {
	if len(p) == 0 {
		return None, false
	}
	id, ok := u.firsts[p[0]]
	if !ok {
		return None, false
	}
	for _, step := range p[1:] {
		if id, ok = u.Child(id, step); !ok {
			return None, false
		}
	}
	return id, true
}

// MustLookup is Lookup that panics on unknown paths; for tests and
// callers that interned the path themselves.
func (u *Universe) MustLookup(p dtd.Path) ID {
	id, ok := u.Lookup(p)
	if !ok {
		panic(fmt.Sprintf("paths: %q not in universe", p))
	}
	return id
}

// Info returns the metadata of an interned path.
func (u *Universe) Info(id ID) *Info { return &u.infos[id] }

// PathOf returns the parsed path of an ID. The slice is shared; do not
// mutate it.
func (u *Universe) PathOf(id ID) dtd.Path { return u.infos[id].Path }

// StringOf returns the dotted rendering of an ID without re-joining.
func (u *Universe) StringOf(id ID) string { return u.infos[id].Str }

// ParentOf returns the parent ID, or None for the root path.
func (u *Universe) ParentOf(id ID) ID { return u.infos[id].Parent }

// KindOf returns the path kind.
func (u *Universe) KindOf(id ID) Kind { return u.infos[id].Kind }

// DepthOf returns the number of steps.
func (u *Universe) DepthOf(id ID) int { return u.infos[id].Depth }

// MultOf returns the occurrence multiplicity of the last step.
func (u *Universe) MultOf(id ID) regex.Mult { return u.infos[id].Mult }

// Child returns the ID of the path extended by one step, or (None,
// false) when no such path is interned.
func (u *Universe) Child(id ID, step string) (ID, bool) {
	kids := u.kids[id]
	if kids == nil {
		return None, false
	}
	c, ok := kids[step]
	if !ok {
		return None, false
	}
	return c, true
}

// LexOrder returns all IDs sorted by their dotted string. The slice is
// shared; do not mutate it. Iterating a Set through this order
// reproduces the historical sorted-string-key iteration exactly,
// without per-call sorting.
func (u *Universe) LexOrder() []ID { return u.lexOrder }

// NewSet returns an empty Set sized for this universe.
func (u *Universe) NewSet() Set { return NewSet(len(u.infos)) }

// SetOf returns a Set holding the given IDs.
func (u *Universe) SetOf(ids ...ID) Set {
	s := u.NewSet()
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// multOf maps an occurrence-count interval to a multiplicity.
func multOf(c regex.Counts) regex.Mult {
	many := c.Unbounded || c.Hi > 1
	switch {
	case c.Lo == 0 && many:
		return regex.StarM
	case c.Lo == 0:
		return regex.OptM
	case many:
		return regex.PlusM
	}
	return regex.One
}
