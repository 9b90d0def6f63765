package main

// serve_mixed: one "xnf serve" hosting 8 University documents of 256
// courses x 8 students, loaded by PUT, under a closed loop of 2
// keep-alive connections with a seeded mix: ~70% GET report, ~25% POST
// txn (16-line scripts with dotted selectors that break FD3, heal it or
// edit grades) and ~5% GET report?fresh=1. Each connection owns half of
// the documents, so it knows every verdict its requests must return.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"xmlnorm"
	"xmlnorm/internal/engine"
	"xmlnorm/internal/gen"
	"xmlnorm/internal/incremental"
	"xmlnorm/internal/pool"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

const (
	serveDocs     = 8
	serveCourses  = 256
	serveStudents = 8
	servePool     = 512 // distinct students per document
	serveNames    = 200 // distinct names per document
	serveConns    = 2
	scriptLines   = 16
	reportShare   = 0.70
	txnShare      = 0.25 // the rest are fresh reports
)

// loc addresses one student of a hosted document.
type loc struct{ course, student int }

func (l loc) sel(field string) string {
	return fmt.Sprintf("courses.course[%d].taken_by.student[%d].%s", l.course, l.student, field)
}

// servedDoc is one generated document: its bytes, and the student
// occurrences the scripts edit.
type servedDoc struct {
	name   string
	body   []byte
	all    []loc          // every student occurrence
	shared []loc          // occurrences of students that occur more than once
	names  map[loc]string // each occurrence's generated name
}

// serveDoc generates hosted document d of the seed.
func serveDoc(seed int64, d, courses int) servedDoc {
	rng := rand.New(rand.NewSource(seed*7919 + int64(d)))
	t := gen.University(courses, serveStudents, servePool, serveNames, rng)
	doc := servedDoc{name: fmt.Sprintf("doc%d", d), body: []byte(t.String()), names: map[loc]string{}}
	count := map[string]int{}
	for _, c := range t.Root.Children {
		for _, st := range c.ChildrenLabelled("taken_by")[0].Children {
			sno, _ := st.Attr("sno")
			count[sno]++
		}
	}
	for ci, c := range t.Root.Children {
		for si, st := range c.ChildrenLabelled("taken_by")[0].Children {
			l := loc{ci, si}
			sno, _ := st.Attr("sno")
			doc.all = append(doc.all, l)
			if count[sno] > 1 {
				doc.shared = append(doc.shared, l)
			}
			doc.names[l] = st.ChildrenLabelled("name")[0].Text
		}
	}
	return doc
}

// docModel is a client's knowledge of one document it alone edits: the
// occurrences whose names it has changed. FD3 is violated exactly when
// that list is non-empty.
type docModel struct {
	doc     *servedDoc
	broken  []loc
	renames int
}

func (m *docModel) violated() bool { return len(m.broken) > 0 }

// edit is one script line: the student, the field and the new text.
type edit struct {
	at    loc
	field string
	text  string
}

func (e edit) line() string { return fmt.Sprintf("settext %s %s", e.at.sel(e.field), e.text) }

// script draws one transaction and applies it to the model: a third
// rename an intact shared occurrence (breaking FD3), a third restore a
// renamed one (healing it once none is left), and the rest, plus the
// padding of every script to scriptLines, set grades.
func (m *docModel) script(rng *rand.Rand) []edit {
	var edits []edit
	switch rng.Intn(3) {
	case 0:
		for try := 0; try < 8 && len(m.doc.shared) > 0; try++ {
			l := m.doc.shared[rng.Intn(len(m.doc.shared))]
			if slices.Contains(m.broken, l) {
				continue
			}
			m.renames++
			m.broken = append(m.broken, l)
			edits = append(edits, edit{l, "name", fmt.Sprintf("renamed%d", m.renames)})
			break
		}
	case 1:
		if len(m.broken) > 0 {
			i := rng.Intn(len(m.broken))
			l := m.broken[i]
			m.broken = slices.Delete(m.broken, i, i+1)
			edits = append(edits, edit{l, "name", m.doc.names[l]})
		}
	}
	for len(edits) < scriptLines {
		l := m.doc.all[rng.Intn(len(m.doc.all))]
		edits = append(edits, edit{l, "grade", []string{"A", "B", "C", "D"}[rng.Intn(4)]})
	}
	return edits
}

// wantDoc reports whether v is the model's current verdict.
func (m *docModel) wantDoc(v verdictLine, total int, fd3 string) bool {
	return v.Doc == m.doc.name && wantVerdict(v, total, m.violated(), fd3)
}

// serveInputs generates the hosted documents and loads the spec.
func serveInputs(e *env, o *outcome) (string, xmlnorm.Spec, []servedDoc, error) {
	n, courses := serveDocs, serveCourses
	if e.smoke {
		n, courses = 4, 16
	}
	specPath := filepath.Join(e.root, "testdata", "courses.spec")
	spec, err := loadSpec(specPath)
	if err != nil {
		return "", spec, nil, err
	}
	docs := make([]servedDoc, n)
	var total int
	for d := range docs {
		docs[d] = serveDoc(e.seed, d, courses)
		total += len(docs[d].body)
	}
	o.inputs["docs"] = n
	o.inputs["courses_per_doc"] = courses
	o.inputs["doc_bytes_total"] = total
	return specPath, spec, docs, nil
}

// serverProc is a running "xnf serve".
type serverProc struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	drained sync.WaitGroup
}

// startServer starts the server and waits for its listen address; the
// spawner runs it.
func startServer(bin string, args ...string) (*serverProc, error) {
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &serverProc{cmd: cmd}
	addr := make(chan string, 1)
	s.drained.Add(1)
	go func() {
		defer s.drained.Done()
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok && !sent {
				addr <- a
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if ok {
			s.base = a
			return s, nil
		}
	case <-time.After(30 * time.Second):
	}
	_ = cmd.Process.Kill()
	s.drained.Wait()
	_ = cmd.Wait()
	return nil, errors.New("xnf serve did not report a listen address")
}

// stop shuts the server down gracefully and returns its peak RSS.
func (s *serverProc) stop() (float64, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	done := make(chan error, 1)
	go func() {
		s.drained.Wait()
		done <- s.cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			return 0, fmt.Errorf("xnf serve exited: %w", err)
		}
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		return 0, errors.New("xnf serve did not stop")
	}
	return maxRSSMB(s.cmd), nil
}

// httpClient is a keep-alive client for at most serveConns connections.
func httpClient() (*http.Client, *http.Transport) {
	tr := &http.Transport{MaxIdleConnsPerHost: serveConns, MaxConnsPerHost: serveConns, DisableCompression: true}
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}, tr
}

// do sends one request and returns the status and body.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// decode parses a verdict response; a non-2xx status or an unreadable
// body yields ok=false.
func decode(status int, body []byte) (verdictLine, bool) {
	var v verdictLine
	if status < 200 || status > 299 || json.Unmarshal(body, &v) != nil {
		return v, false
	}
	return v, true
}

// putDocs loads every document, checking each is hosted as satisfied.
func putDocs(c *http.Client, base string, docs []servedDoc, o *outcome, total int, fd3 string) error {
	for _, d := range docs {
		status, body, err := do(c, http.MethodPut, base+"/docs/"+d.name, d.body)
		if err != nil {
			return err
		}
		v, ok := decode(status, body)
		o.check(ok && status == http.StatusCreated && v.Doc == d.name && wantVerdict(v, total, false, fd3),
			"PUT %s: status %d, body %s", d.name, status, body)
	}
	return nil
}

// loadResult is what one closed-loop phase measured. all and rates are
// scaled to reference speed; the per-kind latencies are as measured, to
// compare with the traced run's in-process spans.
type loadResult struct {
	all, report, txn, fresh latencies
	rates                   []float64 // requests per second, per slice
	factors                 []float64 // each slice's scale factor
	requests                int
}

// serveSlice is how long the closed loop runs between calibrations;
// serveSettle is how long the server is left idle after a slice before
// the calibration, so that the slice's leftover work (a collection in
// progress) does not run beside it.
const (
	serveSlice  = time.Second
	serveSettle = 50 * time.Millisecond
)

// loadClient is one connection's closed loop over the documents it owns.
type loadClient struct {
	models []*docModel
	rng    *rand.Rand
	out    *outcome
	res    loadResult
}

func (lc *loadClient) loop(c *http.Client, base string, deadline time.Time, total int, fd3 string) error {
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		m := lc.models[lc.rng.Intn(len(lc.models))]
		url := base + "/docs/" + m.doc.name
		p := lc.rng.Float64()
		var (
			method = http.MethodGet
			body   []byte
			kind   = &lc.res.report
			edits  int
		)
		switch {
		case p < reportShare:
			url += "/report"
		case p < reportShare+txnShare:
			method, kind, url = http.MethodPost, &lc.res.txn, url+"/txn"
			var lines []string
			for _, ed := range m.script(lc.rng) {
				lines = append(lines, ed.line())
			}
			body, edits = []byte(strings.Join(lines, "\n")+"\n"), scriptLines
		default:
			kind, url = &lc.res.fresh, url+"/report?fresh=1"
		}
		start := time.Now()
		status, resp, err := do(c, method, url, body)
		took := time.Since(start)
		if err != nil {
			return err
		}
		lc.res.requests++
		kind.add(took)
		lc.res.all.add(took)
		v, ok := decode(status, resp)
		lc.out.check(ok && m.wantDoc(v, total, fd3) && v.Edits == edits,
			"%s %s: status %d, body %s; want satisfied=%v", method, url, status, resp, !m.violated())
	}
	return nil
}

// runLoad drives the closed loop for d, in slices: at the end of each
// slice both connections stop, the clock calibrates while the server
// idles, and the slice's times are scaled by its factor. Then it checks
// that every document's snapshot report equals its from-scratch report.
func runLoad(c *http.Client, base string, docs []servedDoc, seed int64, d time.Duration, clock *refClock, o *outcome, total int, fd3 string) (loadResult, error) {
	clients := make([]*loadClient, serveConns)
	for i := range clients {
		clients[i] = &loadClient{rng: rand.New(rand.NewSource(seed*31 + int64(i))), out: newOutcome()}
	}
	for i := range docs {
		cl := clients[i%serveConns]
		cl.models = append(cl.models, &docModel{doc: &docs[i]})
	}
	var res loadResult
	errs := make([]error, len(clients))
	for end := time.Now().Add(d); time.Now().Before(end); {
		start := time.Now()
		deadline := start.Add(serveSlice)
		if deadline.After(end) {
			deadline = end
		}
		var wg sync.WaitGroup
		for i, cl := range clients {
			wg.Add(1)
			go func(i int, cl *loadClient) {
				defer wg.Done()
				errs[i] = cl.loop(c, base, deadline, total, fd3)
			}(i, cl)
		}
		wg.Wait()
		elapsed := time.Since(start)
		time.Sleep(serveSettle)
		f := clock.factor()
		n := 0
		for i, cl := range clients {
			if errs[i] != nil {
				return res, errs[i]
			}
			n += cl.res.requests
			for _, t := range cl.res.all {
				res.all = append(res.all, t*f)
			}
			res.report = append(res.report, cl.res.report...)
			res.txn = append(res.txn, cl.res.txn...)
			res.fresh = append(res.fresh, cl.res.fresh...)
			cl.res = loadResult{}
		}
		res.requests += n
		res.rates = append(res.rates, float64(n)/(elapsed.Seconds()*f))
		res.factors = append(res.factors, f)
	}
	for _, cl := range clients {
		o.attempted += cl.out.attempted
		o.failed += cl.out.failed
		o.failures = append(o.failures, cl.out.failures...)
		for _, m := range cl.models {
			snapStatus, snap, err := do(c, http.MethodGet, base+"/docs/"+m.doc.name+"/report", nil)
			if err != nil {
				return res, err
			}
			freshStatus, fresh, err := do(c, http.MethodGet, base+"/docs/"+m.doc.name+"/report?fresh=1", nil)
			if err != nil {
				return res, err
			}
			reportsAgree(o, m, snapStatus, snap, freshStatus, fresh, total, fd3)
		}
	}
	return res, nil
}

// reportsAgree checks that a document's snapshot report equals its
// from-scratch report, byte for byte, and is the model's verdict.
func reportsAgree(o *outcome, m *docModel, snapStatus int, snap []byte, freshStatus int, fresh []byte, total int, fd3 string) {
	sv, sok := decode(snapStatus, snap)
	_, fok := decode(freshStatus, fresh)
	o.check(sok && fok && bytes.Equal(snap, fresh) && m.wantDoc(sv, total, fd3),
		"%s: snapshot report %s, fresh report %s", m.doc.name, snap, fresh)
}

func runServe(e *env) (*outcome, error) {
	o := newOutcome()
	specPath, spec, docs, err := serveInputs(e, o)
	if err != nil {
		return nil, err
	}
	total, fd3 := len(spec.FDs), spec.FDs[2].String()
	client, transport := httpClient()
	defer transport.CloseIdleConnections()
	var base string
	var setups []float64
	clock := newRefClock()
	for i := 0; i < warmups; i++ {
		if base != "" {
			transport.CloseIdleConnections()
			if _, err := e.sp.stopServer(); err != nil {
				return nil, err
			}
			clock = newRefClock()
		}
		start := time.Now()
		if base, err = e.sp.startServer(e.xnf, specPath); err != nil {
			return nil, err
		}
		if err := putDocs(client, base, docs, o, total, fd3); err != nil {
			_, _ = e.sp.stopServer()
			return nil, err
		}
		took := time.Since(start)
		time.Sleep(serveSettle)
		setups = append(setups, took.Seconds()*clock.factor())
	}
	res, err := runLoad(client, base, docs, e.seed, e.seconds, clock, o, total, fd3)
	transport.CloseIdleConnections()
	rss, stopErr := e.sp.stopServer()
	if err != nil {
		return nil, err
	}
	if stopErr != nil {
		return nil, stopErr
	}
	o.metrics["setup_s"] = median(setups)
	o.metrics["peak_rss_mb"] = rss
	o.metrics["throughput_per_s"] = median(res.rates)
	o.metrics["op_p50_ms"] = median(res.all)
	o.samples["op_tail_ms"] = res.all.tail(o, "op")
	o.samples["speed_factor_p50"] = median(res.factors)
	o.samples["op_p50_ms_unscaled"] = median(append(append(res.report, res.txn...), res.fresh...))
	o.samples["report_samples"] = len(res.report)
	o.samples["txn_samples"] = len(res.txn)
	o.samples["fresh_samples"] = len(res.fresh)
	return o, nil
}

func traceServe(e *env, tr *tracer) (*outcome, error) {
	o := newOutcome()
	specPath, spec, docs, err := serveInputs(e, o)
	if err != nil {
		return nil, err
	}
	total, fd3 := len(spec.FDs), spec.FDs[2].String()

	// End to end, for the per-kind latencies the residuals start from.
	client, transport := httpClient()
	base, err := e.sp.startServer(e.xnf, specPath)
	if err != nil {
		return nil, err
	}
	err = putDocs(client, base, docs, o, total, fd3)
	var res loadResult
	if err == nil {
		res, err = runLoad(client, base, docs, e.seed, e.seconds/2, newRefClock(), o, total, fd3)
	}
	transport.CloseIdleConnections()
	if _, stopErr := e.sp.stopServer(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	o.samples["report_samples"] = len(res.report)
	o.samples["txn_samples"] = len(res.txn)
	o.samples["fresh_samples"] = len(res.fresh)
	res.txn.report(o, "serve.txn")
	res.report.report(o, "serve.report")
	o.metrics["serve.fresh_p50_ms"] = median(res.fresh)

	// In process: the same documents and the same kind of scripts.
	cs, err := engine.SharedCheckers(spec.FDs)
	if err != nil {
		return nil, err
	}
	sessions := make([]*incremental.Session, len(docs))
	models := make([]*docModel, len(docs))
	for i := range docs {
		models[i] = &docModel{doc: &docs[i]}
	}
	rng := rand.New(rand.NewSource(e.seed))
	workers := pool.DefaultWorkers()
	deadline := time.Now().Add(e.seconds / 2)
	for r := 0; r < minRounds || time.Now().Before(deadline); r++ {
		round := tr.begin("round", 0)
		for i, d := range docs {
			var t *xmltree.Tree
			tr.timed("xmltree.Parse", round, func() { t, err = xmltree.Parse(bytes.NewReader(d.body)) })
			if err != nil {
				return nil, err
			}
			tr.timed("xmltree.ConformsUnordered", round, func() { err = xmltree.ConformsUnordered(t, spec.DTD) })
			if err != nil {
				return nil, err
			}
			if sessions[i] != nil {
				continue // keep the edited sessions; only time the set-up
			}
			tr.timed("incremental.New", round, func() { sessions[i], err = incremental.New(cs, t) })
			if err != nil {
				return nil, err
			}
		}
		for i, sess := range sessions {
			m := models[i]
			for k := 0; k < 4; k++ {
				edits := m.script(rng)
				ids := make([]xmltree.NodeID, len(edits))
				for j, ed := range edits {
					ids[j] = fieldNode(sess.Tree(), ed.at, ed.field)
				}
				tr.timed("incremental.Txn", round, func() {
					tx := sess.Begin()
					for j, ed := range edits {
						if err = tx.SetText(ids[j], ed.text); err != nil {
							_ = tx.Rollback()
							return
						}
					}
					err = tx.Commit()
				})
				if err != nil {
					return nil, err
				}
				var report []xfd.Violated
				for j := 0; j < 3; j++ {
					tr.timed("incremental.Snapshot.Report", round, func() { report = sess.Snapshot().Report() })
				}
				o.check(len(report) == btoi(m.violated()), "session %s: %d violated, want %v", m.doc.name, len(report), m.violated())
			}
			var fresh []xfd.Violated
			tr.timed("xfd.ViolationsShardedCtx", round, func() {
				fresh, err = cs.ViolationsShardedCtx(context.Background(), sess.Tree(), workers)
			})
			if err != nil {
				return nil, err
			}
			o.check(xfd.CanonicalReport(fresh) == xfd.CanonicalReport(sess.Report()), "session %s: sharded report differs from the snapshot's", m.doc.name)
		}
		tr.end(round)
	}
	o.metrics["xmltree.parse_ms"] = ms(tr.medianDur("xmltree.Parse"))
	o.metrics["xmltree.conform_ms"] = ms(tr.medianDur("xmltree.ConformsUnordered"))
	o.metrics["incremental.session_new_ms"] = ms(tr.medianDur("incremental.New"))
	o.metrics["incremental.txn_commit_us"] = us(tr.medianDur("incremental.Txn"))
	o.metrics["incremental.snapshot_report_us"] = us(tr.medianDur("incremental.Snapshot.Report"))
	o.metrics["xfd.sharded_check_ms"] = ms(tr.medianDur("xfd.ViolationsShardedCtx"))
	o.metrics["serve.txn_residual_us"] = median(res.txn)*1000 - o.metrics["incremental.txn_commit_us"]
	o.metrics["serve.report_residual_us"] = median(res.report)*1000 - o.metrics["incremental.snapshot_report_us"]
	o.samples["rounds"] = len(tr.durations("round"))
	return o, nil
}

// fieldNode resolves a student's name or grade element in the tree.
func fieldNode(t *xmltree.Tree, l loc, field string) xmltree.NodeID {
	course := t.Root.ChildrenLabelled("course")[l.course]
	student := course.ChildrenLabelled("taken_by")[0].ChildrenLabelled("student")[l.student]
	return student.ChildrenLabelled(field)[0].ID
}
