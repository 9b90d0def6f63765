package xfd

// Reader-driven checking: Check/SatisfiesAll/Violations rebuilt over
// the token-fused tuple streamer (tuples.TokenStream), so T ⊨ Σ is
// decided straight off the wire bytes without ever materializing the
// document tree. One xmltree.WalkTokens pass multiplexes the token
// events across the applicable clusters' streams, and each stream
// drives the same witness fold the tree path runs (witnessFold) — and
// because the token streamer yields tuples in exactly the tree
// streamer's order, verdicts and witness reports are identical to the
// tree path's, modulo the process-global vertex IDs minted for element
// paths (CanonicalReport compares reports across parses up to that
// renaming). Memory is bounded by nesting depth, the group tables' live
// state (finite per Vincent & Liu's finiteness of the per-path fold),
// and any subtrees participating in genuine cross products of relevant
// sibling groups — independent of document length for chain-shaped
// clusters. The walk always consumes the reader to the end of the
// document, even once every FD is decided or the caller aborts, so
// structural acceptance is exactly xmltree.Parse's: malformed input
// fails with xmltree.MalformedError, over-deep input with
// xmltree.DepthError.

import (
	"fmt"
	"io"
	"strings"

	"xmlnorm/internal/dtd"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xmltree"
)

// ReaderOptions configures the reader-driven checking entry points.
type ReaderOptions struct {
	// MaxDepth bounds element nesting: deeper input fails with a
	// *xmltree.DepthError. Zero means xmltree.DefaultMaxDepth; a
	// negative value means unlimited.
	MaxDepth int
}

// limit translates the option encoding into WalkTokens' (0 =
// unlimited).
func (o ReaderOptions) limit() int {
	switch {
	case o.MaxDepth == 0:
		return xmltree.DefaultMaxDepth
	case o.MaxDepth < 0:
		return 0
	}
	return o.MaxDepth
}

// Limit is the option encoding translated to WalkTokens' convention
// (0 = unlimited) — exported for the distributed coordinator, which
// ships the effective bound to workers so a remote parse enforces
// exactly the nesting limit the local check would.
func (o ReaderOptions) Limit() int { return o.limit() }

// CheckReader is Check off an XML byte stream: it decides every FD of
// the set against the document arriving on r in a single token walk,
// without materializing the tree. Each violated FD is reported exactly
// once through onViolation (which may be nil) with its Σ index and the
// same first-conflict witness pair Check reports on the parsed tree;
// onViolation returning false stops all FD work. The walk reads the
// document to its end regardless — a verdict on malformed input would
// be meaningless — so the returned error is exactly what parsing the
// input would report: nil for well-formed input,
// *xmltree.MalformedError otherwise, *xmltree.DepthError for nesting
// past opts.MaxDepth.
func (cs *CheckerSet) CheckReader(r io.Reader, opts ReaderOptions, onViolation func(i int, witness [2]tuples.Tuple) bool) error {
	var streams []*tuples.TokenStream
	var releases []func()
	defer func() {
		for _, release := range releases {
			release()
		}
	}()
	started := false
	aborted := false
	return xmltree.WalkTokens(r, opts.limit(), xmltree.TokenCallbacks{
		Open: func(label string, attrs []xmltree.Attr) error {
			if !started {
				started = true
				for ci := range cs.clusters {
					cl := &cs.clusters[ci]
					if cl.label != label {
						continue // vacuously satisfied on this document
					}
					fold, release := cs.witnessFold(nil, cl, nil, &aborted, onViolation)
					releases = append(releases, release)
					streams = append(streams, cl.pr.StartTokens(fold))
				}
			}
			if aborted {
				return nil
			}
			for _, ts := range streams {
				ts.Open(label, attrs)
			}
			return nil
		},
		Text: func(text []byte) error {
			if aborted {
				return nil
			}
			for _, ts := range streams {
				ts.Text(text)
			}
			return nil
		},
		Close: func(string) error {
			if aborted {
				return nil
			}
			for _, ts := range streams {
				ts.Close()
			}
			return nil
		},
	})
}

// ViolationsReader checks every FD against the document arriving on r
// and returns the violated ones with first-conflict witnesses, in Σ
// order — the same report Violations produces on the parsed tree (the
// vertex IDs minted for element paths differ across parses; see
// CanonicalReport). A valid document yields nil, nil.
func (cs *CheckerSet) ViolationsReader(r io.Reader, opts ReaderOptions) ([]Violated, error) {
	witnesses := make(map[int][2]tuples.Tuple)
	err := cs.CheckReader(r, opts, func(i int, w [2]tuples.Tuple) bool {
		witnesses[i] = w
		return true
	})
	if err != nil {
		return nil, err
	}
	return cs.report(witnesses), nil
}

// CanonicalReport renders a violation report in a form comparable
// across separate parses of the same document: vertex IDs (which are
// process-global and minted afresh by every parse or token walk) are
// renumbered by first appearance, strings are quoted, absent values
// print as ⊥. Two reports over the same Σ render equally iff they
// violate the same FDs with witness pairs that are identical up to the
// vertex renaming — the sense in which the reader path's reports are
// bit-identical to the tree path's.
func CanonicalReport(vs []Violated) string {
	var b strings.Builder
	renum := make(map[xmltree.NodeID]int)
	render := func(t tuples.Tuple, p dtd.Path) string {
		v, ok := t.Get(p)
		if !ok {
			return "⊥"
		}
		if v.IsNode() {
			id, seen := renum[v.Node()]
			if !seen {
				id = len(renum)
				renum[v.Node()] = id
			}
			return fmt.Sprintf("#%d", id)
		}
		return fmt.Sprintf("%q", v.Str())
	}
	for _, viol := range vs {
		fmt.Fprintf(&b, "%s\n", viol.FD)
		for _, p := range viol.FD.Paths() {
			fmt.Fprintf(&b, "  %-30s %s | %s\n", p, render(viol.Witness[0], p), render(viol.Witness[1], p))
		}
	}
	return b.String()
}
