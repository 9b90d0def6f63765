package main

// xnf watch: the incremental checking REPL/script mode. It loads a
// specification and a document, builds an xmlnorm.Session, then
// applies an edit script line by line, printing the verdict DELTA of
// every edit — which FDs became violated, which became satisfied —
// without ever re-streaming the unchanged regions of the tree. The
// final exit status follows the final verdict (2 when FDs remain
// violated), so scripts can replay an edit log and branch on the
// outcome exactly as with "xnf check".
//
// Script lines ('#' comments and blank lines are skipped):
//
//	setattr <node> <name> <value>     set an attribute
//	settext <node> <text...>          replace string content
//	insert  <node> <xml...>           parse the XML, append under node
//	delete  <node>                    detach the subtree
//	verdict                           print the current full verdict
//
// A <node> is either "#<id>" (a NodeID, as printed by previous
// inserts) or a dotted label path with optional sibling indices, e.g.
// "courses.course[1].taken_by.student" — each segment selects the
// i-th child (default 0) with that label, starting at the root label.

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"xmlnorm"
	"xmlnorm/internal/tuples"
)

func cmdWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	witness := fs.Bool("witness", false, "print a witness tuple pair when an FD becomes violated")
	jsonOut := fs.Bool("json", false, "emit one JSON verdict object per edit (the xnf serve wire format)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 && fs.NArg() != 3 {
		return fmt.Errorf("usage: xnf watch [-witness] [-json] <spec> <doc.xml|-> [script|-]")
	}
	s, err := loadSpec(fs.Arg(0))
	if err != nil {
		return err
	}
	scriptPath := "-"
	if fs.NArg() == 3 {
		scriptPath = fs.Arg(2)
	}
	if fs.Arg(1) == "-" && scriptPath == "-" {
		return fmt.Errorf("watch: the document and the edit script cannot both be stdin")
	}
	doc, err := loadDoc(fs.Arg(1))
	if err != nil {
		return err
	}
	if err := xmlnorm.ConformsUnordered(doc, s.DTD); err != nil {
		return fmt.Errorf("document does not conform to the spec: %v", err)
	}
	script := os.Stdin
	if scriptPath != "-" {
		f, err := os.Open(scriptPath)
		if err != nil {
			return err
		}
		defer f.Close()
		script = f
	}

	sess, err := xmlnorm.NewSession(s, doc)
	if err != nil {
		return err
	}
	prev := sess.Violated()
	if *jsonOut {
		if err := writeJSON(os.Stdout, verdictObject(fs.Arg(1), sess.Snapshot().Seq(), len(s.FDs), sess.Report(), *witness)); err != nil {
			return err
		}
	} else {
		printVerdict(s, prev)
	}
	edits := 0
	sc := bufio.NewScanner(script)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "verdict" {
			if *jsonOut {
				if err := writeJSON(os.Stdout, verdictObject(fs.Arg(1), sess.Snapshot().Seq(), len(s.FDs), sess.Report(), *witness)); err != nil {
					return err
				}
				continue
			}
			printVerdict(s, sess.Violated())
			if *witness {
				printReport(sess.Report())
			}
			continue
		}
		edits++
		if !*jsonOut {
			fmt.Printf("[%d] %s\n", edits, line)
		}
		inserted, err := applyEdit(sess, line)
		if err != nil {
			return fmt.Errorf("edit %d (%s): %w", edits, line, err)
		}
		cur := sess.Violated()
		if *jsonOut {
			v := verdictObject(fs.Arg(1), sess.Snapshot().Seq(), len(s.FDs), sess.Report(), *witness)
			v.Edits = 1
			v.addDelta(s, prev, cur)
			if inserted != nil {
				v.Inserted = append(v.Inserted, insertedJSON{Label: inserted.Label, ID: inserted.ID})
			}
			if err := writeJSON(os.Stdout, v); err != nil {
				return err
			}
		} else {
			if inserted != nil {
				fmt.Printf("    inserted <%s> as #%d\n", inserted.Label, inserted.ID)
			}
			printDelta(s, sess, prev, cur, *witness)
		}
		prev = cur
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !*jsonOut {
		fmt.Printf("final after %d edit(s): ", edits)
		printVerdict(s, prev)
	}
	if len(prev) > 0 {
		return errNegative
	}
	return nil
}

// docEditor is the mutation surface of the edit-script language:
// *xmlnorm.Session satisfies it (per-edit transactions, as "xnf
// watch" uses) and so does *xmlnorm.Txn (one batched transaction, as
// the serve txn endpoint uses) — one script applier drives both.
type docEditor interface {
	Tree() *xmlnorm.Tree
	SetAttr(id xmlnorm.NodeID, name, value string) error
	SetText(id xmlnorm.NodeID, text string) error
	InsertSubtree(parentID xmlnorm.NodeID, sub *xmlnorm.Node) error
	DeleteSubtree(id xmlnorm.NodeID) error
}

// applyEdit parses and applies one edit line, returning the inserted
// subtree's root when the edit was an insert (so callers can report
// its assigned NodeID). Errors — a malformed line, a selector that
// resolves nowhere, a NodeID absent from the tree
// (xmlnorm.UnknownNodeError) — abort the script; nothing is mutated
// by a failed edit.
func applyEdit(ed docEditor, line string) (*xmlnorm.Node, error) {
	parts := strings.Fields(line)
	op := parts[0]
	switch op {
	case "setattr":
		if len(parts) != 4 {
			return nil, fmt.Errorf("usage: setattr <node> <name> <value>")
		}
		id, err := resolveNode(ed, parts[1])
		if err != nil {
			return nil, err
		}
		return nil, ed.SetAttr(id, parts[2], parts[3])
	case "settext":
		if len(parts) < 2 {
			return nil, fmt.Errorf("usage: settext <node> <text...>")
		}
		id, err := resolveNode(ed, parts[1])
		if err != nil {
			return nil, err
		}
		rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line[len(op):]), parts[1]))
		return nil, ed.SetText(id, rest)
	case "insert":
		if len(parts) < 3 {
			return nil, fmt.Errorf("usage: insert <node> <xml...>")
		}
		id, err := resolveNode(ed, parts[1])
		if err != nil {
			return nil, err
		}
		xml := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line[len(op):]), parts[1]))
		sub, err := xmlnorm.ParseDocument(xml)
		if err != nil {
			return nil, fmt.Errorf("inserted fragment: %v", err)
		}
		if err := ed.InsertSubtree(id, sub.Root); err != nil {
			return nil, err
		}
		return sub.Root, nil
	case "delete":
		if len(parts) != 2 {
			return nil, fmt.Errorf("usage: delete <node>")
		}
		id, err := resolveNode(ed, parts[1])
		if err != nil {
			return nil, err
		}
		return nil, ed.DeleteSubtree(id)
	default:
		return nil, fmt.Errorf("unknown edit %q (want setattr|settext|insert|delete|verdict)", op)
	}
}

// resolveNode turns a selector into a NodeID: "#<id>" verbatim (the
// edit itself reports a typed UnknownNodeError if it is stale), or a
// dotted label path with optional [i] sibling indices resolved against
// the current tree.
func resolveNode(ed docEditor, sel string) (xmlnorm.NodeID, error) {
	if strings.HasPrefix(sel, "#") {
		n, err := strconv.ParseUint(sel[1:], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("node id %q: %v", sel, err)
		}
		return xmlnorm.NodeID(n), nil
	}
	cur := ed.Tree().Root
	for i, seg := range strings.Split(sel, ".") {
		label, idx, err := parseSegment(seg)
		if err != nil {
			return 0, fmt.Errorf("selector %q: %v", sel, err)
		}
		if i == 0 {
			if label != cur.Label || idx != 0 {
				return 0, fmt.Errorf("selector %q: document root is <%s>", sel, cur.Label)
			}
			continue
		}
		next := (*xmlnorm.Node)(nil)
		seen := 0
		for _, c := range cur.Children {
			if c.Label == label {
				if seen == idx {
					next = c
					break
				}
				seen++
			}
		}
		if next == nil {
			return 0, fmt.Errorf("selector %q: <%s> has %d child(ren) labelled %q, wanted index %d",
				sel, cur.Label, seen, label, idx)
		}
		cur = next
	}
	return cur.ID, nil
}

// parseSegment splits "label[3]" into (label, 3); a bare label means
// index 0.
func parseSegment(seg string) (string, int, error) {
	open := strings.IndexByte(seg, '[')
	if open < 0 {
		if seg == "" {
			return "", 0, fmt.Errorf("empty path segment")
		}
		return seg, 0, nil
	}
	if !strings.HasSuffix(seg, "]") || open == 0 {
		return "", 0, fmt.Errorf("malformed segment %q", seg)
	}
	idx, err := strconv.Atoi(seg[open+1 : len(seg)-1])
	if err != nil || idx < 0 {
		return "", 0, fmt.Errorf("malformed index in %q", seg)
	}
	return seg[:open], idx, nil
}

// printVerdict prints the one-line verdict for a violated index set.
func printVerdict(s xmlnorm.Spec, violated []int) {
	if len(violated) == 0 {
		fmt.Printf("satisfies all %d FD(s)\n", len(s.FDs))
		return
	}
	fmt.Printf("violates %d of %d FD(s)\n", len(violated), len(s.FDs))
	for _, fi := range violated {
		fmt.Printf("  %s\n", s.FDs[fi])
	}
}

// printDelta prints what one edit changed: FDs newly violated (+) and
// newly satisfied (-), or a confirmation that the verdict held.
func printDelta(s xmlnorm.Spec, sess *xmlnorm.Session, prev, cur []int, witness bool) {
	var d verdictJSON
	d.addDelta(s, prev, cur)
	for _, fd := range d.NewlyViolated {
		fmt.Printf("    + %s\n", fd)
	}
	for _, fd := range d.NewlySatisfied {
		fmt.Printf("    - %s\n", fd)
	}
	if len(d.NewlyViolated)+len(d.NewlySatisfied) == 0 {
		fmt.Printf("    verdict unchanged (%d violated)\n", len(cur))
		return
	}
	fmt.Printf("    now violates %d of %d FD(s)\n", len(cur), len(s.FDs))
	if witness {
		for _, v := range sess.Report() {
			if !slices.Contains(d.NewlyViolated, v.FD.String()) {
				continue // only the newly violated get witnesses
			}
			fmt.Printf("    witness for %s (t1 | t2):\n", v.FD)
			printWitnessPair(v, "      ")
		}
	}
}

// printReport prints the full violation report with witness pairs.
func printReport(report []xmlnorm.Violated) {
	for _, v := range report {
		fmt.Printf("  witness for %s (t1 | t2):\n", v.FD)
		printWitnessPair(v, "    ")
	}
}

// printWitnessPair renders one witness pair, one FD path per line —
// the same layout "xnf check -witness" uses.
func printWitnessPair(v xmlnorm.Violated, indent string) {
	printWitnessRows(os.Stdout, indent, witnessRows(v.FD, v.Witness, tuples.Value.String))
}
