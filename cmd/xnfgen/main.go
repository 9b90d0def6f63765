// Command xnfgen emits synthetic workloads for the xmlnorm library: the
// paper's two example document families at configurable scale, random
// conforming documents for arbitrary DTDs, and the parameterized DTD
// families used by the benchmark suite.
//
// Usage:
//
//	xnfgen university -courses 100 -students 30 -pool 500 -names 120
//	xnfgen dblp -confs 20 -issues 15 -papers 25
//	xnfgen document -spec spec.xnf [-seed 1] [-repeat 3]
//	xnfgen chain -depth 10 -attrs 2       (prints the spec: DTD %% FDs)
//	xnfgen disjunctive -groups 3 -branches 3
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"xmlnorm"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/xfd"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "xnfgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: xnfgen <university|dblp|document|chain|disjunctive> [flags]")
	}
	switch args[0] {
	case "university":
		fs := flag.NewFlagSet("university", flag.ContinueOnError)
		courses := fs.Int("courses", 10, "number of courses")
		students := fs.Int("students", 5, "students per course")
		pool := fs.Int("pool", 50, "distinct students overall")
		names := fs.Int("names", 20, "distinct names (fewer than pool forces shared names)")
		seed := fs.Int64("seed", 1, "random seed")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if err := sizes("university",
			size{"courses", *courses, 0}, size{"students", *students, 0},
			size{"pool", *pool, *students}, size{"names", *names, 1}); err != nil {
			return err
		}
		doc := gen.University(*courses, *students, *pool, *names, rand.New(rand.NewSource(*seed)))
		fmt.Print(doc)
		return nil
	case "dblp":
		fs := flag.NewFlagSet("dblp", flag.ContinueOnError)
		confs := fs.Int("confs", 5, "number of conferences")
		issues := fs.Int("issues", 10, "issues per conference")
		papers := fs.Int("papers", 10, "papers per issue")
		seed := fs.Int64("seed", 1, "random seed")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if err := sizes("dblp", size{"confs", *confs, 0}, size{"issues", *issues, 0}, size{"papers", *papers, 0}); err != nil {
			return err
		}
		doc := gen.DBLP(*confs, *issues, *papers, rand.New(rand.NewSource(*seed)))
		fmt.Print(doc)
		return nil
	case "document":
		fs := flag.NewFlagSet("document", flag.ContinueOnError)
		spec := fs.String("spec", "", "spec or DTD file")
		seed := fs.Int64("seed", 1, "random seed")
		repeat := fs.Int("repeat", 3, "max repetitions for * and +")
		values := fs.Int("values", 4, "distinct values per attribute")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if *spec == "" {
			return fmt.Errorf("document: -spec is required")
		}
		if err := sizes("document", size{"repeat", *repeat, 1}, size{"values", *values, 1}); err != nil {
			return err
		}
		b, err := os.ReadFile(*spec)
		if err != nil {
			return err
		}
		s, err := xmlnorm.ParseSpec(string(b))
		if err != nil {
			return err
		}
		doc, err := gen.Document(s.DTD, rand.New(rand.NewSource(*seed)), *repeat, *values)
		if err != nil {
			return err
		}
		fmt.Print(doc)
		return nil
	case "chain":
		fs := flag.NewFlagSet("chain", flag.ContinueOnError)
		depth := fs.Int("depth", 5, "chain depth")
		attrs := fs.Int("attrs", 2, "attributes per level")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		// Every level's FDs key on its first attribute.
		if err := sizes("chain", size{"depth", *depth, 0}, size{"attrs", *attrs, 1}); err != nil {
			return err
		}
		d := gen.ChainDTD(*depth, *attrs)
		fmt.Print(d)
		fmt.Println("%%")
		fmt.Print(xfd.FormatSet(gen.ChainFDs(*depth, *attrs)))
		return nil
	case "disjunctive":
		fs := flag.NewFlagSet("disjunctive", flag.ContinueOnError)
		groups := fs.Int("groups", 2, "disjunction groups")
		branches := fs.Int("branches", 2, "branches per group")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if err := sizes("disjunctive", size{"groups", *groups, 0}, size{"branches", *branches, 1}); err != nil {
			return err
		}
		fmt.Print(gen.DisjunctiveDTD(*groups, *branches))
		return nil
	default:
		return fmt.Errorf("unknown workload %q", args[0])
	}
}

// size is one size flag's value and the least value its generator can
// honour.
type size struct {
	flag     string
	val, min int
}

// sizes rejects the first size below its minimum, naming the flag. The
// generators cannot honour such sizes: they panic, clamp the value
// without a word, or print a spec whose FDs name undeclared paths.
func sizes(workload string, ss ...size) error {
	for _, s := range ss {
		if s.val < s.min {
			return fmt.Errorf("%s: -%s %d: must be at least %d", workload, s.flag, s.val, s.min)
		}
	}
	return nil
}
