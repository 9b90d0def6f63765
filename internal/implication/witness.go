package implication

import (
	"fmt"

	"xmlnorm/internal/paths"
	"xmlnorm/internal/tuples"
	"xmlnorm/internal/xmltree"
)

// realize turns a completed (feasible, non-implied) closure state into a
// concrete counterexample tree: two maximal tuples t1, t2 that are
// non-null exactly on the derived nn sets, share vertices and string
// values exactly on the derived eq set, and differ everywhere else. The
// glued tree trees_D({t1, t2}) is the candidate counterexample; the
// caller re-verifies it semantically. The tuples are built directly on
// the skeleton's universe, visiting paths in the skeleton's pre-order,
// which numbers the fresh values v1, v2, … a counterexample prints.
func realize(s *state) (*xmltree.Tree, error) {
	t1 := tuples.NewTuple(s.sk.u)
	t2 := tuples.NewTuple(s.sk.u)
	valueCounter := 0
	fresh := func() string {
		valueCounter++
		return fmt.Sprintf("v%d", valueCounter)
	}
	// value returns a fresh vertex for an element path, a fresh string
	// value otherwise.
	value := func(id paths.ID) tuples.Value {
		if s.sk.nodes[id].elem {
			return tuples.NodeValue(xmltree.FreshID())
		}
		return tuples.StringValue(fresh())
	}
	for _, id := range s.sk.order {
		if s.nn1[id] && s.nn2[id] && s.eq[id] {
			v := value(id) // shared by both tuples
			t1.SetID(id, v)
			t2.SetID(id, v)
			continue
		}
		if s.nn1[id] {
			t1.SetID(id, value(id))
		}
		if s.nn2[id] {
			t2.SetID(id, value(id))
		}
	}
	return tuples.TreesOf(s.sk.d, []tuples.Tuple{t1, t2})
}
