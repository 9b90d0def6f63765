package main

// corpus_sweep: "xnf check -r testdata/courses.spec <dir>" over 5000
// seeded gen.University documents of about 8 KB (8 courses of 8
// students), in five shards of 1000; each invocation sweeps one shard.
// Every 20th document is edited to break FD3. Per-file fixed costs
// dominate here.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"xmlnorm"
	"xmlnorm/internal/corpus"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/pool"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

const (
	corpusShards       = 5
	corpusPerShard     = 1000
	corpusViolateEvery = 20
)

// corpusDoc is one generated document and whether it violates FD3.
type corpusDoc struct {
	name    string
	violate bool
}

// corpusShard is one directory of documents, in walk order.
type corpusShard struct {
	dir   string
	docs  []corpusDoc
	bytes int64
}

// universityDoc is document i of the seed's corpus: 8 courses of 8
// students drawn from a pool of 24 with 12 names, so students repeat
// across courses; every 20th document renames one repeated student to
// break FD3.
func universityDoc(seed int64, i int) (string, bool) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	doc := gen.University(8, 8, 24, 12, rng)
	violate := i%corpusViolateEvery == corpusViolateEvery-1
	if violate {
		violate = breakFD3(doc)
	}
	return doc.String(), violate
}

// breakFD3 renames the second occurrence of the first student that
// occurs twice, so sno no longer determines the name.
func breakFD3(t *xmltree.Tree) bool {
	seen := map[string]bool{}
	for _, c := range t.Root.Children {
		for _, tb := range c.ChildrenLabelled("taken_by") {
			for _, st := range tb.Children {
				sno, _ := st.Attr("sno")
				if seen[sno] {
					st.ChildrenLabelled("name")[0].SetText("renamed-" + sno)
					return true
				}
				seen[sno] = true
			}
		}
	}
	return false
}

// writeCorpus writes the seed's corpus under dir.
func writeCorpus(dir string, seed int64, shards, perShard int) ([]corpusShard, error) {
	out := make([]corpusShard, shards)
	for s := range out {
		sh := corpusShard{dir: filepath.Join(dir, fmt.Sprintf("shard%d", s))}
		if err := os.MkdirAll(sh.dir, 0o755); err != nil {
			return nil, err
		}
		for j := 0; j < perShard; j++ {
			i := s*perShard + j
			text, violate := universityDoc(seed, i)
			name := fmt.Sprintf("doc%05d.xml", i)
			if err := os.WriteFile(filepath.Join(sh.dir, name), []byte(text), 0o644); err != nil {
				return nil, err
			}
			sh.docs = append(sh.docs, corpusDoc{name: name, violate: violate})
			sh.bytes += int64(len(text))
		}
		out[s] = sh
	}
	return out, nil
}

// corpusInputs writes the corpus of one run and loads the courses spec.
func corpusInputs(e *env, o *outcome) (string, xmlnorm.Spec, []corpusShard, error) {
	shards, per := corpusShards, corpusPerShard
	if e.smoke {
		shards, per = 2, 40
	}
	specPath := filepath.Join(e.root, "testdata", "courses.spec")
	spec, err := loadSpec(specPath)
	if err != nil {
		return "", spec, nil, err
	}
	sh, err := writeCorpus(filepath.Join(e.work, "corpus"), e.seed, shards, per)
	if err != nil {
		return "", spec, nil, err
	}
	var total int64
	for _, s := range sh {
		total += s.bytes
	}
	o.inputs["docs"] = shards * per
	o.inputs["shards"] = shards
	o.inputs["corpus_bytes"] = total
	return specPath, spec, sh, nil
}

func loadSpec(path string) (xmlnorm.Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return xmlnorm.Spec{}, err
	}
	return xmlnorm.ParseSpec(string(b))
}

// verdictLine is the part of one NDJSON verdict the oracles read.
type verdictLine struct {
	Doc       string `json:"doc"`
	Satisfied bool   `json:"satisfied"`
	Total     int    `json:"total"`
	Violated  []struct {
		FD string `json:"fd"`
	} `json:"violated"`
	Edits int    `json:"edits"`
	Error string `json:"error"`
}

// fdList is the violated FDs of a verdict.
func (v verdictLine) fdList() []string {
	var fds []string
	for _, f := range v.Violated {
		fds = append(fds, f.FD)
	}
	return fds
}

// wantVerdict reports whether v is the verdict of a document that
// violates exactly fd (violate) or nothing.
func wantVerdict(v verdictLine, total int, violate bool, fd string) bool {
	if v.Error != "" || v.Total != total || v.Satisfied == violate {
		return false
	}
	fds := v.fdList()
	if !violate {
		return len(fds) == 0
	}
	return len(fds) == 1 && fds[0] == fd
}

// corpusOracle checks one sweep: one verdict per document, in walk
// order, each matching the generator's record, and the exit code.
func corpusOracle(o *outcome, sh corpusShard, total int, fd3 string, inv invocation) {
	lines := bytes.Split(bytes.TrimSuffix(inv.stdout, []byte("\n")), []byte("\n"))
	wantExit := 0
	for _, d := range sh.docs {
		if d.violate {
			wantExit = 1
		}
	}
	o.check(inv.exit == wantExit && len(lines) == len(sh.docs),
		"check -r %s: exit %d with %d verdicts; want exit %d with %d",
		filepath.Base(sh.dir), inv.exit, len(lines), wantExit, len(sh.docs))
	for i, d := range sh.docs {
		var v verdictLine
		ok := i < len(lines) && json.Unmarshal(lines[i], &v) == nil &&
			v.Doc == filepath.Join(sh.dir, d.name) && wantVerdict(v, total, d.violate, fd3)
		o.check(ok, "check -r %s: verdict %d for %s is wrong", filepath.Base(sh.dir), i, d.name)
	}
}

func runCorpus(e *env) (*outcome, error) {
	o := newOutcome()
	specPath, spec, shards, err := corpusInputs(e, o)
	if err != nil {
		return nil, err
	}
	fd3 := spec.FDs[2].String()
	err = cliRun(e, o, func(i int) (invocation, float64, error) {
		sh := shards[i%len(shards)]
		inv, err := e.xnfRun("check", "-r", specPath, sh.dir)
		if err != nil {
			return inv, 0, err
		}
		corpusOracle(o, sh, len(spec.FDs), fd3, inv)
		return inv, float64(len(sh.docs)), nil
	})
	return o, err
}

func traceCorpus(e *env, tr *tracer) (*outcome, error) {
	o := newOutcome()
	specPath, spec, shards, err := corpusInputs(e, o)
	if err != nil {
		return nil, err
	}
	fd3 := spec.FDs[2].String()
	cs, err := xfd.NewCheckerSetFor(spec.FDs)
	if err != nil {
		return nil, err
	}
	ropts := xfd.ReaderOptions{}
	workers := pool.DefaultWorkers()
	o.inputs["pool_workers"] = workers

	// checkOne checks one entry in-process against the generator's record.
	checkOne := func(sh corpusShard, i int, parent int) error {
		var vs []xfd.Violated
		var err error
		tr.timed("corpus.CheckOne", parent, func() { vs, err = corpus.CheckOne(cs, filepath.Join(sh.dir, sh.docs[i].name), ropts) })
		if err != nil {
			return err
		}
		o.check(len(vs) == btoi(sh.docs[i].violate), "CheckOne %s: %d violated", sh.docs[i].name, len(vs))
		return nil
	}

	// The allocations of a typical document: the median over the first
	// shard. A mean would not repeat exactly, because map growth depends
	// on each process's random hash seed.
	allocs := make([]float64, len(shards[0].docs))
	for i, d := range shards[0].docs {
		n, err := countMallocs(func() error {
			_, err := corpus.CheckOne(cs, filepath.Join(shards[0].dir, d.name), ropts)
			return err
		})
		if err != nil {
			return nil, err
		}
		allocs[i] = float64(n)
	}
	o.metrics["corpus.allocs_per_doc"] = median(allocs)

	var perDoc, walkPerDoc, efficiency []float64
	deadline := time.Now().Add(e.seconds)
	for r := 0; r < minRounds || time.Now().Before(deadline); r++ {
		sh := shards[r%len(shards)]
		round := tr.begin("round", 0)
		var items []corpus.Verdict
		tr.timed("corpus.Walk", round, func() { items, err = corpus.Walk(sh.dir, corpus.Options{}) })
		if err != nil {
			return nil, err
		}
		o.check(len(items) == len(sh.docs), "corpus.Walk %s: %d entries, want %d", filepath.Base(sh.dir), len(items), len(sh.docs))

		seq := tr.begin("corpus.sequential", round)
		for i := range sh.docs {
			if err := checkOne(sh, i, seq); err != nil {
				return nil, err
			}
		}
		tr.end(seq)
		// The CheckOne spans tile the sequential span; what they cover is
		// the sum of their durations.
		sum := tr.spans[seq-1].dur() - selfTime(tr.spans, seq)
		perDoc = append(perDoc, us(sum)/float64(len(sh.docs)))

		bufs := make([][]byte, len(sh.docs))
		for i, d := range sh.docs {
			if bufs[i], err = os.ReadFile(filepath.Join(sh.dir, d.name)); err != nil {
				return nil, err
			}
		}
		walk := tr.timed("xmltree.WalkTokens.docs", round, func() {
			for _, b := range bufs {
				if err = xmltree.WalkTokens(bytes.NewReader(b), ropts.Limit(), xmltree.TokenCallbacks{}); err != nil {
					return
				}
			}
		})
		if err != nil {
			return nil, err
		}
		walkPerDoc = append(walkPerDoc, us(walk)/float64(len(sh.docs)))

		var got []corpus.Verdict
		sweep := tr.timed("corpus.CheckFiles", round, func() {
			_, err = corpus.CheckFiles(context.Background(), cs, items, corpus.Options{}, func(v corpus.Verdict) { got = append(got, v) })
		})
		if err != nil {
			return nil, err
		}
		for i, v := range got {
			o.check(v.Err == nil && i < len(sh.docs) && len(v.Violated) == btoi(sh.docs[i].violate), "CheckFiles %s: verdict %d is wrong", filepath.Base(sh.dir), i)
		}
		efficiency = append(efficiency, float64(sum)/(float64(sweep)*float64(workers)))

		var inv invocation
		tr.timed("cmd.xnf", round, func() { inv, err = e.xnfRun("check", "-r", specPath, sh.dir) })
		if err != nil {
			return nil, err
		}
		corpusOracle(o, sh, len(spec.FDs), fd3, inv)
		tr.end(round)
	}
	self := tr.roundSelfTimes([]string{"cmd.xnf", "corpus.CheckFiles"})
	o.metrics["corpus.walk_ms"] = ms(tr.medianDur("corpus.Walk"))
	o.metrics["corpus.check_one_us"] = median(perDoc)
	o.metrics["xmltree.walk_us_per_doc"] = median(walkPerDoc)
	o.metrics["corpus.sweep_s"] = secs(tr.medianDur("corpus.CheckFiles"))
	o.metrics["pool.efficiency"] = median(efficiency)
	o.metrics["cmd.residual_s"] = secs(medianOf(self["cmd.xnf"]))
	o.samples["rounds"] = len(tr.durations("round"))
	return o, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
