package analyze

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/engine"
	"xmlnorm/internal/paths"
	"xmlnorm/internal/relational"
	"xmlnorm/internal/table"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xmltree"
	"xmlnorm/internal/xnf"
)

// TreeMVD is a multivalued dependency X →→ Y over tree tuples — the
// prototype lift of the relational MVD to the tuples_D(T) semantics of
// the FD checker. Within a context set of paths U (the checker fixes
// it), it asserts the cross-product condition per X-group: writing
// Z = U − X − Y, every combination of a seen Y-projection and a seen
// Z-projection (among tuples agreeing on X with known values) occurs
// in some tuple.
type TreeMVD struct {
	LHS, RHS []dtd.Path
}

// ParseTreeMVD parses "p1, p2 ->> q1, q2" in the dotted path notation
// of xfd.Parse.
func ParseTreeMVD(s string) (TreeMVD, error) {
	lr := strings.SplitN(s, "->>", 2)
	if len(lr) != 2 {
		return TreeMVD{}, fmt.Errorf(`analyze: tree MVD %q: want "lhs ->> rhs"`, s)
	}
	var m TreeMVD
	var err error
	if m.LHS, err = parsePathList(lr[0]); err != nil {
		return TreeMVD{}, fmt.Errorf("analyze: tree MVD %q: %v", s, err)
	}
	if m.RHS, err = parsePathList(lr[1]); err != nil {
		return TreeMVD{}, fmt.Errorf("analyze: tree MVD %q: %v", s, err)
	}
	if len(m.LHS) == 0 || len(m.RHS) == 0 {
		return TreeMVD{}, fmt.Errorf("analyze: tree MVD %q: empty side", s)
	}
	return m, nil
}

// MustParseTreeMVD is ParseTreeMVD, panicking on error.
func MustParseTreeMVD(s string) TreeMVD {
	m, err := ParseTreeMVD(s)
	if err != nil {
		panic(err)
	}
	return m
}

func parsePathList(s string) ([]dtd.Path, error) {
	var out []dtd.Path
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		p, err := dtd.ParsePath(part)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func (m TreeMVD) String() string {
	return formatPaths(m.LHS) + " ->> " + formatPaths(m.RHS)
}

// MVDChecker is a compiled satisfaction check for one TreeMVD over one
// context, following the xfd.CheckerSet shape: build once, stream the
// tree's tuple projections through a constant-size fold per group.
// Read-only after construction and safe for concurrent use.
type MVDChecker struct {
	mvd  TreeMVD
	pr   *tuples.Projector
	lhs  []paths.ID // X
	mid  []paths.ID // Y − X
	rest []paths.ID // Z = context − X − Y
}

// NewMVDChecker compiles the MVD against the universe with the given
// context (the path set the cross-product condition ranges over; pass
// table.ValuePaths of the DTD's paths for the flat reading the 4XNF
// test uses). Every path must be interned in the universe.
func NewMVDChecker(u *paths.Universe, m TreeMVD, context []dtd.Path) (*MVDChecker, error) {
	c := &MVDChecker{mvd: m}
	seen := u.NewSet()
	var proj []dtd.Path
	// add looks p up and, unless skip holds it, appends it to ids and,
	// on its first appearance, to the projection.
	add := func(p dtd.Path, ids *[]paths.ID, skip paths.Set) error {
		id, err := lookup(u, p)
		if err != nil {
			return err
		}
		if skip.Has(id) {
			return nil
		}
		*ids = append(*ids, id)
		if !seen.Has(id) {
			seen.Add(id)
			proj = append(proj, p)
		}
		return nil
	}
	for _, p := range m.LHS {
		if err := add(p, &c.lhs, nil); err != nil {
			return nil, err
		}
	}
	inLHS := seen.Clone()
	for _, p := range m.RHS {
		if err := add(p, &c.mid, inLHS); err != nil {
			return nil, err
		}
	}
	inXY := seen.Clone()
	for _, p := range context {
		if err := add(p, &c.rest, inXY); err != nil {
			return nil, err
		}
	}
	pr, err := tuples.NewProjector(u, proj)
	if err != nil {
		return nil, err
	}
	c.pr = pr
	return c, nil
}

func lookup(u *paths.Universe, p dtd.Path) (paths.ID, error) {
	id, ok := u.Lookup(p)
	if !ok {
		return 0, fmt.Errorf("analyze: path %s is not in the universe", p)
	}
	return id, nil
}

// MVD returns the checked dependency.
func (c *MVDChecker) MVD() TreeMVD { return c.mvd }

// Satisfies folds the tree's tuple projections and reports the
// cross-product condition: in every group of tuples agreeing on X
// (with known values — a ⊥ on X exempts the tuple, as in FD
// agreement), the distinct (Y, Z) combinations must number exactly
// |Y-projections| · |Z-projections|. On Y and Z a ⊥ is an ordinary,
// distinguished token. The fold is streaming: one pass, state
// proportional to the number of distinct projections, no materialized
// tuple product.
func (c *MVDChecker) Satisfies(t *xmltree.Tree) bool {
	type group struct {
		ys, zs, pairs map[string]bool
	}
	groups := map[string]*group{}
	var xb, yb, zb []byte
	ok := true
	c.pr.Stream(t, func(tup tuples.Tuple) bool {
		var known bool
		xb, known = appendProjKey(tup, c.lhs, xb[:0], true)
		if !known {
			return true
		}
		yb, _ = appendProjKey(tup, c.mid, yb[:0], false)
		zb, _ = appendProjKey(tup, c.rest, zb[:0], false)
		g := groups[string(xb)]
		if g == nil {
			g = &group{ys: map[string]bool{}, zs: map[string]bool{}, pairs: map[string]bool{}}
			groups[string(xb)] = g
		}
		g.ys[string(yb)] = true
		g.zs[string(zb)] = true
		g.pairs[string(yb)+"\x00"+string(zb)] = true
		// Once a group fails the counting bound it can never recover
		// (pairs only grows toward ys·zs from below after a miss — but a
		// later tuple may close the gap, so keep folding to the end).
		return true
	})
	for _, g := range groups {
		if len(g.pairs) != len(g.ys)*len(g.zs) {
			ok = false
			break
		}
	}
	return ok
}

// appendProjKey renders a tuple's projection onto ids into dst. With
// strict set, a ⊥ entry aborts (known=false); otherwise ⊥ is encoded
// as its own token. Nodes encode by identifier, strings by
// length-prefixed bytes, so distinct projections never collide.
func appendProjKey(tup tuples.Tuple, ids []paths.ID, dst []byte, strict bool) (key []byte, known bool) {
	for _, id := range ids {
		v, ok := tup.GetID(id)
		if !ok {
			if strict {
				return dst, false
			}
			dst = append(dst, 0)
			continue
		}
		if v.IsNode() {
			dst = append(dst, 1)
			dst = binary.AppendUvarint(dst, uint64(v.Node()))
			continue
		}
		s := v.Str()
		dst = append(dst, 2)
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst, true
}

// maxFlatColumns bounds the 4NF sweep: relational.Is4NF skips only the
// subsets containing a violating LHS, so an image with no violation
// still costs all 2^n attribute subsets and must stay narrow.
const maxFlatColumns = 16

// FourXNF is the 4XNF verdict: 4NF of the specification's flat image
// through the table bridge. The image's columns are the value paths
// (attributes and text — table.ValuePaths); its FDs are the
// engine-implied dependencies X → q for each distinct all-value LHS X
// that Σ mentions; declared tree MVDs with all-value sides join
// directly. relational.Is4NF then decides whether every non-trivial
// implied MVD has a superkey LHS.
type FourXNF struct {
	// Columns are the value-path columns of the image, in paths(D)
	// order.
	Columns []string
	// ImageFDs and ImageMVDs are the dependencies the image carries,
	// rendered.
	ImageFDs  []string
	ImageMVDs []string
	// Skipped lists the Σ splits and declared MVDs outside the flat
	// fragment (mentioning element paths); the image does not see them
	// directly, only through their implied value-path consequences.
	Skipped []string
	// Satisfied is the 4NF verdict; Violations lists, sorted, the
	// offending implied MVDs with an inclusion-minimal LHS when it is
	// false (relational.Is4NF). A note in Note means the sweep did
	// not run (image too wide or too narrow) and Satisfied is vacuously
	// true.
	Satisfied  bool
	Violations []string
	Note       string
}

// Check4XNF runs the 4XNF test alone.
func Check4XNF(s xnf.Spec, opts Options) (FourXNF, error) {
	if err := validate(s, opts.MVDs); err != nil {
		return FourXNF{}, err
	}
	eng, err := engine.New(s.DTD, s.FDs, opts.Engine)
	if err != nil {
		return FourXNF{}, err
	}
	return check4XNFWith(eng, s, opts.MVDs)
}

// validate rejects a Σ member or a declared MVD naming a path outside
// paths(D), in xfd.FD.Validate's wording, before any analysis runs. A
// valid element path is no error: the image skips it.
func validate(s xnf.Spec, mvds []TreeMVD) error {
	if err := s.Validate(); err != nil {
		return err
	}
	for _, m := range mvds {
		for _, p := range append(append([]dtd.Path{}, m.LHS...), m.RHS...) {
			if !s.DTD.IsPath(p) {
				return fmt.Errorf("analyze: tree MVD %s: %q is not a path of the DTD", m, p)
			}
		}
	}
	return nil
}

// check4XNFWith builds the flat image and decides 4NF over it. The
// image's FDs are the implied X → q for every Σ left-hand side X and
// value path q outside it. Each X's goals are asked deepest path first
// (ties in paths(D) order), and each goal is first tried against the
// image's refuter, which caches the verified counterexample of every
// refutation the engine answers: the closure realizes a refutation of
// X → q with q's whole chain non-null, so the tree of a deep goal
// holds tuples deep enough to refute the shallower goals too, where a
// shallow goal's tree could not refute a deeper one. The order decides
// only how many closure runs the image makes, never an answer; the
// image FDs are emitted in paths(D) order.
func check4XNFWith(eng *engine.Engine, s xnf.Spec, mvds []TreeMVD) (FourXNF, error) {
	ps, err := s.DTD.Paths()
	if err != nil {
		return FourXNF{}, err
	}
	vps := table.ValuePaths(ps)
	fx := FourXNF{Satisfied: true}
	u := eng.Universe()
	vids := make([]paths.ID, len(vps))
	isValue := u.NewSet()
	for i, q := range vps {
		fx.Columns = append(fx.Columns, q.String())
		if vids[i], err = lookup(u, q); err != nil {
			return FourXNF{}, err
		}
		isValue.Add(vids[i])
	}
	// valueIDs returns the IDs of ps, and false unless all of them are
	// value paths.
	valueIDs := func(ps []dtd.Path) ([]paths.ID, bool) {
		ids := make([]paths.ID, len(ps))
		for i, p := range ps {
			id, ok := u.Lookup(p)
			if !ok || !isValue.Has(id) {
				return nil, false
			}
			ids[i] = id
		}
		return ids, true
	}
	// Distinct all-value LHS lists of Σ's splits (equal as multisets of
	// paths), first-seen order; element-path LHSs are out of the
	// fragment and reported as skipped.
	type flatLHS struct {
		paths []dtd.Path
		ids   []paths.ID
	}
	var lhss []flatLHS
	seenLHS := map[string]bool{}
	for _, f := range s.FDs {
		for _, split := range f.SingleRHS() {
			ids, flat := valueIDs(split.LHS)
			if !flat {
				fx.Skipped = append(fx.Skipped, "fd "+split.String())
				continue
			}
			if key := multisetKey(ids); !seenLHS[key] {
				seenLHS[key] = true
				lhss = append(lhss, flatLHS{split.LHS, ids})
			}
		}
	}
	// The image's FDs: every engine-implied X → q with q a value path.
	// Going through implication (rather than copying the flat splits
	// verbatim) carries the value-path consequences of element-targeted
	// FDs into the image — @cno → course surfaces as @cno → title.S.
	ref, err := newRefuter(u, ps)
	if err != nil {
		return FourXNF{}, err
	}
	deepest := make([]int, len(vps))
	for i := range deepest {
		deepest[i] = i
	}
	sort.SliceStable(deepest, func(i, j int) bool { return len(vps[deepest[i]]) > len(vps[deepest[j]]) })
	var rfds []relational.FD
	implied := make([]bool, len(vps))
	for _, lhs := range lhss {
		clear(implied)
		in := u.SetOf(lhs.ids...)
		lhsAttrs := relational.NewAttrSet()
		for _, p := range lhs.paths {
			lhsAttrs[p.String()] = true
		}
		for _, qi := range deepest {
			if in.Has(vids[qi]) || ref.refutes(lhs.ids, vids[qi:qi+1]) {
				continue
			}
			ans, err := eng.ImpliesIDs(in, vids[qi])
			if err != nil {
				return FourXNF{}, err
			}
			implied[qi] = ans.Implied
			if !ans.Implied {
				ref.add(ans)
			}
		}
		for qi, q := range vps {
			if implied[qi] {
				rfds = append(rfds, relational.FD{LHS: lhsAttrs, RHS: relational.NewAttrSet(q.String())})
			}
		}
	}
	for _, f := range rfds {
		fx.ImageFDs = append(fx.ImageFDs, f.String())
	}
	// Declared tree MVDs with all-value sides map directly.
	var rmvds []relational.MVD
	for _, m := range mvds {
		if _, flat := valueIDs(append(append([]dtd.Path{}, m.LHS...), m.RHS...)); !flat {
			fx.Skipped = append(fx.Skipped, "mvd "+m.String())
			continue
		}
		rm := relational.MVD{LHS: relational.NewAttrSet(), RHS: relational.NewAttrSet()}
		for _, p := range m.LHS {
			rm.LHS[p.String()] = true
		}
		for _, p := range m.RHS {
			rm.RHS[p.String()] = true
		}
		rmvds = append(rmvds, rm)
		fx.ImageMVDs = append(fx.ImageMVDs, rm.String())
	}
	if len(fx.Columns) < 2 {
		fx.Note = "image has fewer than two value columns; nothing to decide"
		return fx, nil
	}
	if len(fx.Columns) > maxFlatColumns {
		fx.Note = fmt.Sprintf("image too wide for the exhaustive 4NF sweep (%d value columns, max %d)",
			len(fx.Columns), maxFlatColumns)
		return fx, nil
	}
	schema := relational.Schema{Name: rootName(s), Attrs: relational.NewAttrSet(fx.Columns...)}
	ok, viols := relational.Is4NF(schema, rfds, rmvds)
	fx.Satisfied = ok
	for _, v := range viols {
		fx.Violations = append(fx.Violations, v.String())
	}
	sort.Strings(fx.Violations)
	return fx, nil
}

// multisetKey renders an ID list as a map key two lists share exactly
// when they hold the same IDs equally often.
func multisetKey(ids []paths.ID) string {
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	key := make([]byte, 0, 4*len(sorted))
	for _, id := range sorted {
		key = binary.LittleEndian.AppendUint32(key, uint32(id))
	}
	return string(key)
}

func rootName(s xnf.Spec) string {
	ps, err := s.DTD.Paths()
	if err != nil || len(ps) == 0 {
		return "r"
	}
	return ps[0].String()
}
