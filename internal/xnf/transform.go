package xnf

import (
	"fmt"
	"strings"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/implication"
	"xmlnorm/internal/regex"
	"xmlnorm/internal/xfd"
)

// Names configures the fresh element-type and attribute names introduced
// by the transformations. Preferred maps role keys to desired names:
//
//	"tau:<rhs path>"     — the new grouping element τ for that anomaly
//	"member:<lhs path>"  — the new child element τᵢ for that LHS attribute
//	"attr:<rhs path>"    — the attribute name @m used when moving
//
// Missing entries fall back to generated names, uniquified against the
// DTD.
type Names struct {
	Preferred map[string]string
}

// fresh picks a name for a role, preferring the configured one, then the
// base, then base2, base3, ...
func (n Names) fresh(taken func(string) bool, role, base string) string {
	if want, ok := n.Preferred[role]; ok && !taken(want) {
		return want
	}
	if !taken(base) {
		return base
	}
	for i := 2; ; i++ {
		c := fmt.Sprintf("%s%d", base, i)
		if !taken(c) {
			return c
		}
	}
}

// TransformResult is the outcome of one schema transformation.
type TransformResult struct {
	Spec Spec
	// Dropped lists FDs of the input Σ that mention paths no longer
	// present in the new DTD and could not be rewritten. (This cannot
	// happen when the moved attribute's element type occurs at a single
	// path, which is the situation in the paper's examples.)
	Dropped []xfd.FD
	// NewPaths maps old dotted paths to their replacements, for
	// documentation and for the document transformations.
	Renames map[string]string
	// Doc is the document-level counterpart of the schema
	// transformation (Apply/Invert), witnessing losslessness.
	Doc DocStep
}

// MoveAttribute implements D[p.@l := q.@m] (Section 6): the attribute
// @l is removed from R(last(p)) and added to R(last(q)) under the name
// @m. FDs of Σ are carried over with p.@l rewritten to q.@m; FDs that
// still mention removed paths are dropped (reported), and FDs that
// became trivial in the new DTD are omitted, as in the paper's DBLP
// example where issue → issue.@year is not kept.
func MoveAttribute(s Spec, pAttr, q dtd.Path, m string) (TransformResult, error) {
	if !pAttr.IsAttr() {
		return TransformResult{}, fmt.Errorf("xnf: %s is not an attribute path", pAttr)
	}
	if !q.IsElem() {
		return TransformResult{}, fmt.Errorf("xnf: %s is not an element path", q)
	}
	if !s.DTD.IsPath(pAttr) || !s.DTD.IsPath(q) {
		return TransformResult{}, fmt.Errorf("xnf: %s or %s is not a path of the DTD", pAttr, q)
	}
	l := strings.TrimPrefix(pAttr.Last(), "@")
	d := s.DTD.Clone()
	srcDecl := d.Element(pAttr.Parent().Last()).Decl(l)
	d.RemoveAttr(pAttr.Parent().Last(), l)
	if m == "" {
		m = l
	}
	if err := d.AddAttr(q.Last(), m); err != nil {
		return TransformResult{}, err
	}
	d.Element(q.Last()).SetDecl(m, srcDecl)
	target := q.Child("@" + m)
	res := TransformResult{
		Spec:    Spec{DTD: d},
		Renames: map[string]string{pAttr.String(): target.String()},
		Doc:     &MoveStep{PAttr: pAttr, Q: q, M: m},
	}
	for _, f := range s.FDs {
		nf := rewriteFD(f, map[string]string{pAttr.String(): target.String()})
		if err := nf.Validate(d); err != nil {
			res.Dropped = append(res.Dropped, f)
			continue
		}
		res.Spec.FDs = append(res.Spec.FDs, nf)
	}
	var err error
	res.Spec.FDs, err = pruneFDs(d, res.Spec.FDs)
	if err != nil {
		return TransformResult{}, err
	}
	return res, nil
}

// CreateElement implements D[p.@l := q.τ[τ1.@l1, ..., τn.@ln, @l]]
// (Section 6) for an anomalous FD {q, p1.@l1, ..., pn.@ln} → rhs, where
// rhs is p.@l (attribute form) or p.S (text form; the paper treats p.S
// as replaceable by an attribute — we support it natively so that the
// university example reproduces the published DTD exactly, with the
// name element moving under info). If the FD has no element path on the
// left-hand side, q defaults to the root path, which is always
// (trivially) determined.
func CreateElement(s Spec, anomaly xfd.FD, names Names) (TransformResult, error) {
	if len(anomaly.RHS) != 1 {
		return TransformResult{}, fmt.Errorf("xnf: anomalous FD must have a single RHS path")
	}
	if err := normalFormOK(anomaly); err != nil {
		return TransformResult{}, err
	}
	rhs := anomaly.RHS[0]
	if rhs.IsElem() {
		return TransformResult{}, fmt.Errorf("xnf: RHS %s is not an attribute or text path", rhs)
	}
	// Split the LHS.
	q := dtd.Path{s.DTD.Root()}
	var attrLHS []dtd.Path
	for _, p := range anomaly.LHS {
		if p.IsElem() {
			q = p
			continue
		}
		if !p.IsAttr() {
			return TransformResult{}, fmt.Errorf("xnf: LHS path %s must be an element or attribute path", p)
		}
		attrLHS = append(attrLHS, p)
	}
	d := s.DTD.Clone()
	taken := func(name string) bool { return d.Element(name) != nil }

	// Fresh element types.
	tauBase := "info"
	tau := names.fresh(taken, "tau:"+rhs.String(), tauBase)
	memberOf := map[string]string{} // lhs attr path -> member element name
	var members []string
	for _, p := range attrLHS {
		li := strings.TrimPrefix(p.Last(), "@")
		name := names.fresh(func(n string) bool { return taken(n) || n == tau || contains(members, n) },
			"member:"+p.String(), li+"_ref")
		memberOf[p.String()] = name
		members = append(members, name)
	}

	// P'(τ) = τ1*, ..., τn* (plus the text element in text form).
	var tauModel *regex.Expr
	for _, mname := range members {
		tauModel = regex.AppendLetter(tauModel, mname, regex.StarM)
	}

	renames := map[string]string{}
	tauPath := q.Child(tau)
	var tauAttrs []string
	var tauDecl dtd.AttrDecl

	optionalValue := rhsNullableGivenLHS(s.DTD, anomaly)
	if rhs.IsText() {
		// Text form: move the element e = last(parent(rhs)) under τ.
		ePath := rhs.Parent()
		e := ePath.Last()
		host := ePath.Parent()
		if host == nil {
			return TransformResult{}, fmt.Errorf("xnf: text path %s too short", rhs)
		}
		hostElem := d.Element(host.Last())
		if hostElem.Kind != dtd.ModelContent {
			return TransformResult{}, fmt.Errorf("xnf: %s has no element content", host)
		}
		hostElem.Model = regex.RemoveLetter(hostElem.Model, e)
		if hostElem.Model.Kind == regex.KindEmpty {
			hostElem.Kind = dtd.EmptyContent
			hostElem.Model = nil
		}
		// The paper's footnote: when ⊥ can be a value of the RHS in
		// tuples (the carrier is optional below the determinants), the
		// moved element becomes optional under τ so that "no value" is
		// representable.
		mult := regex.One
		if optionalValue {
			mult = regex.OptM
		}
		tauModel = regex.AppendLetter(tauModel, e, mult)
		renames[ePath.String()] = tauPath.Child(e).String()
		renames[rhs.String()] = tauPath.Child(e).Child(dtd.TextStep).String()
	} else {
		if optionalValue {
			return TransformResult{}, fmt.Errorf("xnf: %s can be ⊥ while the determinants are not; "+
				"the attribute-form construction needs the paper's footnote variant (wrap the value in an "+
				"optional element or make the carrier required)", rhs)
		}
		// Attribute form: @l moves to τ, keeping its declaration details.
		l := strings.TrimPrefix(rhs.Last(), "@")
		tauDecl = d.Element(rhs.Parent().Last()).Decl(l)
		d.RemoveAttr(rhs.Parent().Last(), l)
		tauAttrs = append(tauAttrs, l)
		renames[rhs.String()] = tauPath.Child("@" + l).String()
	}

	// Declare τ and its members.
	tauKind := dtd.ModelContent
	if tauModel == nil || tauModel.Kind == regex.KindEmpty {
		tauKind, tauModel = dtd.EmptyContent, nil
	}
	if err := d.AddElement(&dtd.Element{Name: tau, Kind: tauKind, Model: tauModel, Attrs: tauAttrs}); err != nil {
		return TransformResult{}, err
	}
	if len(tauAttrs) > 0 {
		d.Element(tau).SetDecl(tauAttrs[0], tauDecl)
	}
	for _, p := range attrLHS {
		mname := memberOf[p.String()]
		li := strings.TrimPrefix(p.Last(), "@")
		if err := d.AddElement(&dtd.Element{Name: mname, Kind: dtd.EmptyContent, Attrs: []string{li}}); err != nil {
			return TransformResult{}, err
		}
		renames[p.String()] = tauPath.Child(mname).Child("@" + li).String()
		renames[p.Parent().String()] = tauPath.Child(mname).String()
	}

	// P'(last(q)) = P(last(q)), τ*.
	host := d.Element(q.Last())
	switch host.Kind {
	case dtd.TextContent:
		return TransformResult{}, fmt.Errorf("xnf: cannot add %s under #PCDATA element %s", tau, q.Last())
	case dtd.EmptyContent:
		host.Kind = dtd.ModelContent
		host.Model = regex.Star(regex.Letter(tau))
	default:
		host.Model = regex.AppendLetter(host.Model, tau, regex.StarM)
	}

	res := TransformResult{Spec: Spec{DTD: d}, Renames: renames, Doc: &CreateStep{
		Q: q, LHSAttrs: attrLHS, RHS: rhs, Tau: tau, Members: members,
		TextForm: rhs.IsText(), OptionalValue: optionalValue,
	}}

	// Σ': (1) surviving FDs; (2) FDs over {q, pᵢ, pᵢ.@lᵢ, p, rhs}
	// transferred to τ and its children; (3) the key FDs of the new
	// element types.
	transferable := map[string]bool{q.String(): true}
	for _, p := range attrLHS {
		transferable[p.String()] = true
		transferable[p.Parent().String()] = true
	}
	transferable[rhs.String()] = true
	if rhs.IsText() {
		transferable[rhs.Parent().String()] = true
	}

	for _, f := range s.FDs {
		if err := f.Validate(d); err == nil {
			res.Spec.FDs = append(res.Spec.FDs, f)
		} else {
			res.Dropped = append(res.Dropped, f)
		}
		if allPathsIn(f, transferable) {
			nf := rewriteFD(f, renames)
			if err := nf.Validate(d); err == nil {
				res.Spec.FDs = append(res.Spec.FDs, nf)
			}
		}
	}
	// (3) Key FDs.
	key := xfd.FD{RHS: []dtd.Path{tauPath}}
	key.LHS = append(key.LHS, q)
	for _, p := range attrLHS {
		key.LHS = append(key.LHS, dtd.MustParsePath(renames[p.String()]))
	}
	res.Spec.FDs = append(res.Spec.FDs, key)
	for _, p := range attrLHS {
		memberPath := dtd.MustParsePath(renames[p.Parent().String()])
		attrPath := dtd.MustParsePath(renames[p.String()])
		res.Spec.FDs = append(res.Spec.FDs, xfd.FD{
			LHS: []dtd.Path{tauPath, attrPath},
			RHS: []dtd.Path{memberPath},
		})
	}
	var err error
	res.Spec.FDs, err = pruneFDs(d, res.Spec.FDs)
	if err != nil {
		return TransformResult{}, err
	}
	return res, nil
}

// rewriteFD substitutes whole paths according to the rename map.
func rewriteFD(f xfd.FD, renames map[string]string) xfd.FD {
	sub := func(ps []dtd.Path) []dtd.Path {
		out := make([]dtd.Path, len(ps))
		for i, p := range ps {
			if to, ok := renames[p.String()]; ok {
				out[i] = dtd.MustParsePath(to)
			} else {
				out[i] = p.Clone()
			}
		}
		return out
	}
	return xfd.FD{LHS: sub(f.LHS), RHS: sub(f.RHS)}
}

// allPathsIn reports whether every path of the FD is in the set.
func allPathsIn(f xfd.FD, set map[string]bool) bool {
	for _, p := range f.Paths() {
		if !set[p.String()] {
			return false
		}
	}
	return true
}

// pruneFDs removes duplicates and FDs trivially implied by the DTD
// alone, mirroring the paper's remark that e.g. issue → issue.@year is
// not kept after moving the attribute. One (D, ∅) engine decides every
// FD. The first FD is never a duplicate, so a DTD the closure cannot
// take fails at it, as a per-FD engine would, and an empty list builds
// no engine.
func pruneFDs(d *dtd.DTD, fds []xfd.FD) ([]xfd.FD, error) {
	if len(fds) == 0 {
		return nil, nil
	}
	eng, err := implication.NewEngine(d, nil)
	if err != nil {
		return nil, err
	}
	var out []xfd.FD
	for _, f := range fds {
		dup := false
		for _, g := range out {
			if f.Equal(g) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		trivial, err := eng.Trivial(f)
		if err != nil {
			return nil, err
		}
		if trivial {
			continue
		}
		out = append(out, f)
	}
	return out, nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// rhsNullableGivenLHS decides whether the anomalous FD's RHS can be ⊥
// in a tuple whose determinants are non-null: it walks from the deepest
// common ancestor of the LHS parents (and q) down to the RHS carrier
// and reports true if any step is optional (?, *, or a nullable
// disjunction branch) — the condition of the paper's footnote.
func rhsNullableGivenLHS(d *dtd.DTD, anomaly xfd.FD) bool {
	rhs := anomaly.RHS[0]
	carrier := rhs.Parent() // the node holding the value (text element or attribute host)
	// A determinant below the carrier forces the whole chain through the
	// carrier non-null (⊥ propagates downward, so a non-null descendant
	// means every prefix is non-null too).
	anchor := dtd.Path{d.Root()}
	for _, p := range anomaly.LHS {
		ep := p
		if !p.IsElem() {
			ep = p.Parent()
		}
		if ep.HasPrefix(carrier) {
			return false
		}
		if carrier.HasPrefix(ep) && len(ep) > len(anchor) {
			anchor = ep
		}
	}
	// Walk anchor → carrier; any step that admits zero occurrences makes
	// ⊥ reachable.
	for i := len(anchor); i < len(carrier); i++ {
		parentElem := d.Element(carrier[i-1])
		if parentElem == nil || parentElem.Kind != dtd.ModelContent {
			return true // defensive: unknown structure counts as nullable
		}
		step := carrier[i]
		if factors, ok := regex.Disjunctive(parentElem.Model); ok {
			found := false
			for _, f := range factors {
				if f.Units != nil {
					if m, has := f.Units[step]; has {
						found = true
						if m.AllowsZero() {
							return true
						}
					}
					continue
				}
				for _, letter := range f.Disj.Letters {
					if letter == step {
						found = true
						if len(f.Disj.Letters) > 1 || f.Disj.Nullable {
							return true // a branch can be skipped
						}
					}
				}
			}
			if !found {
				return true
			}
			continue
		}
		// Non-disjunctive content model: fall back to occurrence counts.
		c, has := regex.CountsOf(parentElem.Model)[step]
		if !has || c.Lo == 0 {
			return true
		}
	}
	return false
}
