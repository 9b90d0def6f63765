package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"xmlnorm"
	"xmlnorm/internal/distrib"
	"xmlnorm/internal/engine"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

// serveSpec loads the courses spec for the serve tests.
func serveSpec(t *testing.T) xmlnorm.Spec {
	t.Helper()
	s, err := loadSpec(td("courses.spec"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustServer builds a server over the spec, failing the test on error.
func mustServer(t *testing.T, spec xmlnorm.Spec) *server {
	t.Helper()
	s, err := newServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// coursesXML returns the Figure 1 document's bytes.
func coursesXML(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(td("courses.xml"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// doReq runs one request against the handler and decodes the JSON body.
func doReq(t *testing.T, h http.Handler, method, url, body string, out any) *http.Response {
	t.Helper()
	req := httptest.NewRequest(method, url, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	resp := rec.Result()
	if out != nil && resp.StatusCode != http.StatusNoContent {
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, b, err)
		}
	}
	return resp
}

// TestServeRoundTrip is the end-to-end acceptance path: load a
// document, commit a batched transaction over HTTP, read the verdict
// delta, roll a failing batch back, and drop the document.
func TestServeRoundTrip(t *testing.T) {
	h := mustServer(t, serveSpec(t)).handler()

	// Load: 201, epoch 1, satisfied.
	var v verdictJSON
	resp := doReq(t, h, "PUT", "/docs/fig1", coursesXML(t), &v)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}
	if !v.Satisfied || v.Seq != 1 || v.Total != 3 || v.Doc != "fig1" {
		t.Fatalf("PUT verdict = %+v", v)
	}

	// Replacing the same name is 200.
	if resp := doReq(t, h, "PUT", "/docs/fig1", coursesXML(t), &v); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-PUT status = %d", resp.StatusCode)
	}

	// A batched transaction: break FD3 (two names for st1), insert a
	// duplicate cno course to break FD1 — one commit, one new epoch.
	script := "settext courses.course[1].taken_by.student.name Boeing\n" +
		"# comments and blanks are fine\n\n" +
		"insert courses <course cno=\"csc200\"><title>Dup</title><taken_by></taken_by></course>\n"
	resp = doReq(t, h, "POST", "/docs/fig1/txn", script, &v)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("txn status = %d", resp.StatusCode)
	}
	if v.Satisfied || v.Seq != 2 || v.Edits != 2 {
		t.Fatalf("txn verdict = %+v", v)
	}
	if len(v.NewlyViolated) != 2 || len(v.NewlySatisfied) != 0 {
		t.Fatalf("txn delta = %+v / %+v", v.NewlyViolated, v.NewlySatisfied)
	}
	if len(v.Inserted) != 1 || v.Inserted[0].Label != "course" || v.Inserted[0].ID == 0 {
		t.Fatalf("txn inserted = %+v", v.Inserted)
	}

	// The report endpoint reads the committed epoch; with witnesses the
	// violating tuple pair rides along.
	resp = doReq(t, h, "GET", "/docs/fig1/report?witness=1", "", &v)
	if resp.StatusCode != http.StatusOK || v.Seq != 2 || len(v.Violated) != 2 {
		t.Fatalf("report = %+v (status %d)", v, resp.StatusCode)
	}
	if len(v.Violated[0].Witness) == 0 {
		t.Fatalf("report witness missing: %+v", v.Violated[0])
	}

	// fresh=1 re-checks from scratch under the request context and must
	// agree with the session.
	var fresh verdictJSON
	doReq(t, h, "GET", "/docs/fig1/report?fresh=1&witness=1", "", &fresh)
	if len(fresh.Violated) != len(v.Violated) {
		t.Fatalf("fresh disagrees: %+v vs %+v", fresh.Violated, v.Violated)
	}
	for i := range fresh.Violated {
		if fresh.Violated[i].FD != v.Violated[i].FD {
			t.Fatalf("fresh FD %d: %s vs %s", i, fresh.Violated[i].FD, v.Violated[i].FD)
		}
	}

	// A failing batch rolls back wholesale: the delete is applied to
	// the transaction, the bogus selector aborts, and the epoch and
	// verdict stay put.
	var errBody map[string]string
	resp = doReq(t, h, "POST", "/docs/fig1/txn",
		"delete courses.course[2]\nsetattr courses.nowhere cno x\n", &errBody)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad txn status = %d", resp.StatusCode)
	}
	if !strings.Contains(errBody["error"], "nowhere") {
		t.Fatalf("bad txn error = %q", errBody["error"])
	}
	doReq(t, h, "GET", "/docs/fig1/report", "", &v)
	if v.Seq != 2 || len(v.Violated) != 2 {
		t.Fatalf("verdict moved after rolled-back txn: %+v", v)
	}

	// Healing transaction: restore the name, delete the duplicate.
	doReq(t, h, "POST", "/docs/fig1/txn",
		"settext courses.course[1].taken_by.student.name Deere\ndelete courses.course[2]\n", &v)
	if !v.Satisfied || v.Seq != 3 || len(v.NewlySatisfied) != 2 {
		t.Fatalf("healing txn verdict = %+v", v)
	}

	// List shows the hosted document; delete drops it.
	var list []verdictJSON
	doReq(t, h, "GET", "/docs", "", &list)
	if len(list) != 1 || list[0].Doc != "fig1" || !list[0].Satisfied {
		t.Fatalf("list = %+v", list)
	}
	if resp := doReq(t, h, "DELETE", "/docs/fig1", "", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}
	if resp := doReq(t, h, "GET", "/docs/fig1/report", "", &errBody); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("report after delete status = %d", resp.StatusCode)
	}
}

// TestServeErrors covers the failure surfaces: malformed documents,
// nonconforming documents, missing names, and malformed scripts.
func TestServeErrors(t *testing.T) {
	h := mustServer(t, serveSpec(t)).handler()
	var errBody map[string]string

	if resp := doReq(t, h, "PUT", "/docs/bad", "<not xml", &errBody); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed PUT status = %d", resp.StatusCode)
	}
	if resp := doReq(t, h, "PUT", "/docs/bad", "<wrong/>", &errBody); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("nonconforming PUT status = %d", resp.StatusCode)
	}
	if !strings.Contains(errBody["error"], "conform") {
		t.Fatalf("nonconforming PUT error = %q", errBody["error"])
	}
	if resp := doReq(t, h, "POST", "/docs/ghost/txn", "", &errBody); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("txn on missing doc status = %d", resp.StatusCode)
	}
	if resp := doReq(t, h, "DELETE", "/docs/ghost", "", &errBody); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delete missing doc status = %d", resp.StatusCode)
	}

	doReq(t, h, "PUT", "/docs/fig1", coursesXML(t), nil)
	if resp := doReq(t, h, "POST", "/docs/fig1/txn", "frobnicate courses\n", &errBody); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown op status = %d", resp.StatusCode)
	}
}

// TestServeSnapshotReadsDuringTxn pins the serving guarantee over
// HTTP: while a transaction is open (the document's writer lock held),
// report reads still answer — with the pre-transaction epoch.
func TestServeSnapshotReadsDuringTxn(t *testing.T) {
	srv := mustServer(t, serveSpec(t))
	h := srv.handler()
	doReq(t, h, "PUT", "/docs/fig1", coursesXML(t), nil)

	d, _ := srv.lookup("fig1")
	d.mu.Lock() // simulate an in-flight transaction holding the writer lock
	tx := d.session().Begin()
	if err := tx.SetText(mustResolve(t, tx, "courses.course.title"), "Renamed"); err != nil {
		t.Fatal(err)
	}

	done := make(chan verdictJSON, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var v verdictJSON
		doReq(t, h, "GET", "/docs/fig1/report", "", &v)
		done <- v
	}()
	select {
	case v := <-done:
		if v.Seq != 1 || !v.Satisfied {
			t.Errorf("mid-txn report = %+v, want epoch 1", v)
		}
	case <-time.After(10 * time.Second):
		t.Error("report read blocked behind an open transaction")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	d.mu.Unlock()
	wg.Wait()
}

func mustResolve(t *testing.T, ed docEditor, sel string) xmlnorm.NodeID {
	t.Helper()
	id, err := resolveNode(ed, sel)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestJSONFlag covers the -json modes of check and watch: the CLI
// emits the same verdictJSON objects the serve endpoints do, one per
// document / edit.
func TestJSONFlag(t *testing.T) {
	// check -json on a violating document (tree and stream paths).
	for _, extra := range [][]string{nil, {"-stream"}} {
		args := append(append([]string{"check", "-json", "-witness"}, extra...),
			td("courses.spec"), filepath.Join("testdata", "courses_bad.xml"))
		out, err := capture(t, func() error { return run(args) })
		if err != errNegative {
			t.Fatalf("run(%v): err = %v, want negative result", args, err)
		}
		var v verdictJSON
		if err := json.Unmarshal([]byte(out), &v); err != nil {
			t.Fatalf("run(%v): bad JSON %q: %v", args, out, err)
		}
		if v.Satisfied || v.Total != 3 || len(v.Violated) == 0 || len(v.Violated[0].Witness) == 0 {
			t.Fatalf("run(%v): verdict = %+v", args, v)
		}
	}
	// -json without a document is a usage error.
	if err := run([]string{"check", "-json", td("courses.spec")}); err == nil {
		t.Fatal("check -json without a document accepted")
	}

	// watch -json: one object per edit, with the delta fields.
	script := writeScript(t, "settext courses.course[1].taken_by.student.name Boeing\nverdict\n")
	out, err := capture(t, func() error {
		return run([]string{"watch", "-json", td("courses.spec"), td("courses.xml"), script})
	})
	if err != errNegative {
		t.Fatalf("watch -json: err = %v, want negative result", err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // initial verdict, one edit, explicit "verdict"
		t.Fatalf("watch -json emitted %d objects:\n%s", len(lines), out)
	}
	var initial, edit verdictJSON
	if err := json.Unmarshal([]byte(lines[0]), &initial); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &edit); err != nil {
		t.Fatal(err)
	}
	if !initial.Satisfied || initial.Seq != 1 {
		t.Fatalf("initial = %+v", initial)
	}
	if edit.Satisfied || edit.Seq != 2 || edit.Edits != 1 || len(edit.NewlyViolated) != 1 {
		t.Fatalf("edit = %+v", edit)
	}
}

// rawReq runs one request against the handler and returns the raw
// recorder — for endpoints whose success body is not JSON.
func rawReq(h http.Handler, method, url, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, url, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestServeFold covers the worker endpoint: a fold request under the
// right spec hash answers with FoldState bytes bit-identical to a
// local fold of the same fragment (including a non-zero starting
// ordinal), the violated state round-trips, a wrong hash is 409, and
// malformed or over-deep bodies are 400.
func TestServeFold(t *testing.T) {
	spec := serveSpec(t)
	h := mustServer(t, spec).handler()
	hash := distrib.SpecHash(spec.DTD, spec.FDs)
	cs, err := engine.SharedCheckers(spec.FDs)
	if err != nil {
		t.Fatal(err)
	}
	localFold := func(body, label string, start int) []byte {
		doc, err := xmltree.ParseString(body)
		if err != nil {
			t.Fatal(err)
		}
		st := cs.NewFoldState()
		if err := st.FoldFragment(context.Background(), xfd.Fragment{Tree: doc, Label: label, Start: start}); err != nil {
			t.Fatal(err)
		}
		blob, err := st.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	body := coursesXML(t)
	rec := rawReq(h, "POST", "/fold?spec="+hash, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("fold status = %d: %s", rec.Code, rec.Body)
	}
	st, err := cs.UnmarshalFoldState(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("fold response does not decode: %v", err)
	}
	if len(st.ViolatedSet()) != 0 {
		t.Fatalf("courses.xml fold not satisfied: violated %v", st.ViolatedSet())
	}
	if got, want := rec.Body.String(), string(localFold(body, "", 0)); got != want {
		t.Fatal("remote fold bytes differ from the local fold")
	}

	// A fragment with a split label and shifted starting ordinal folds
	// exactly as the local FoldFragment would.
	rec = rawReq(h, "POST", "/fold?spec="+hash+"&label=course&start=3", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("offset fold status = %d: %s", rec.Code, rec.Body)
	}
	if got, want := rec.Body.String(), string(localFold(body, "course", 3)); got != want {
		t.Fatal("offset fold bytes differ from the local fold")
	}

	// A violating document's fold state carries the violation.
	bad, err := os.ReadFile(filepath.Join("testdata", "courses_bad.xml"))
	if err != nil {
		t.Fatal(err)
	}
	rec = rawReq(h, "POST", "/fold?spec="+hash, string(bad))
	if rec.Code != http.StatusOK {
		t.Fatalf("bad-doc fold status = %d", rec.Code)
	}
	if st, err = cs.UnmarshalFoldState(rec.Body.Bytes()); err != nil {
		t.Fatal(err)
	}
	if len(st.ViolatedSet()) == 0 {
		t.Fatal("courses_bad.xml fold reports no violation")
	}

	// Spec mismatch is a definitive 409, not a fold of the wrong Σ.
	if rec = rawReq(h, "POST", "/fold?spec=deadbeef", body); rec.Code != http.StatusConflict {
		t.Fatalf("wrong-hash status = %d", rec.Code)
	}
	// Malformed and over-deep bodies are the client's fault: 400.
	if rec = rawReq(h, "POST", "/fold?spec="+hash, "<not xml"); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed fold status = %d", rec.Code)
	}
	if rec = rawReq(h, "POST", "/fold?spec="+hash+"&depth=2", body); rec.Code != http.StatusBadRequest {
		t.Fatalf("over-deep fold status = %d", rec.Code)
	}
	if rec = rawReq(h, "POST", "/fold?spec="+hash+"&start=x", body); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad start status = %d", rec.Code)
	}
}

// TestServeAnalyze covers the schema-analysis endpoint: it answers the
// same wire object "xnf analyze -json" prints, named after the hosted
// document, is computed once per server (the spec, not the document, is
// analyzed), and 404s for unknown names.
func TestServeAnalyze(t *testing.T) {
	h := mustServer(t, serveSpec(t)).handler()
	doReq(t, h, "PUT", "/docs/fig1", coursesXML(t), nil)

	var a analyzeJSON
	resp := doReq(t, h, "GET", "/docs/fig1/analyze", "", &a)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status = %d", resp.StatusCode)
	}
	if a.Spec != "fig1" {
		t.Fatalf("analyze spec = %q, want fig1", a.Spec)
	}
	if len(a.Keys) != 7 || len(a.Cover) != 3 || a.InXNF || len(a.Anomalies) != 1 {
		t.Fatalf("analyze report = %+v", a)
	}
	if a.FourXNF.Satisfied || len(a.FourXNF.Violations) == 0 {
		t.Fatalf("analyze 4XNF = %+v", a.FourXNF)
	}
	if len(a.Anomalies[0].Witness) != 0 {
		t.Fatalf("witness present without ?witness=1: %+v", a.Anomalies[0].Witness)
	}

	// The witness toggle rides the query string, like /report.
	var aw analyzeJSON
	doReq(t, h, "GET", "/docs/fig1/analyze?witness=1", "", &aw)
	if len(aw.Anomalies) != 1 || len(aw.Anomalies[0].Witness) == 0 {
		t.Fatalf("witness missing: %+v", aw.Anomalies)
	}

	// The report is per-spec: a second document answers the same
	// analysis under its own name.
	doReq(t, h, "PUT", "/docs/fig2", coursesXML(t), nil)
	var b analyzeJSON
	doReq(t, h, "GET", "/docs/fig2/analyze", "", &b)
	if b.Spec != "fig2" || len(b.Keys) != len(a.Keys) || b.InXNF != a.InXNF {
		t.Fatalf("second analyze = %+v", b)
	}

	var errBody map[string]string
	if resp := doReq(t, h, "GET", "/docs/ghost/analyze", "", &errBody); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("analyze on missing doc status = %d", resp.StatusCode)
	}
}

// TestServeBodyBounds pins the 413 surface: the document-carrying
// endpoints and the transaction route bound their bodies and answer
// 413 — not 400, not OOM — past the limit, a transaction is also
// bounded at maxTxnEdits edits, and an oversized transaction leaves its
// document untouched.
func TestServeBodyBounds(t *testing.T) {
	old := maxBodyBytes
	maxBodyBytes = 4 << 10
	defer func() { maxBodyBytes = old }()
	spec := serveSpec(t)
	h := mustServer(t, spec).handler()

	big := "<courses>" +
		strings.Repeat(`<course cno="c1"><title>t</title><taken_by></taken_by></course>`, 200) +
		"</courses>"
	if int64(len(big)) <= maxBodyBytes {
		t.Fatalf("test body too small: %d bytes", len(big))
	}
	var errBody map[string]string
	if resp := doReq(t, h, "PUT", "/docs/big", big, &errBody); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized PUT status = %d", resp.StatusCode)
	}
	hash := distrib.SpecHash(spec.DTD, spec.FDs)
	if rec := rawReq(h, "POST", "/fold?spec="+hash, big); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized fold status = %d", rec.Code)
	}
	// Under the bound both still work.
	small := coursesXML(t)
	if int64(len(small)) > maxBodyBytes {
		t.Fatalf("courses.xml unexpectedly over the test bound")
	}
	if resp := doReq(t, h, "PUT", "/docs/ok", small, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("small PUT status = %d", resp.StatusCode)
	}
	if rec := rawReq(h, "POST", "/fold?spec="+hash, small); rec.Code != http.StatusOK {
		t.Fatalf("small fold status = %d", rec.Code)
	}
	// An oversized script whose first line is a valid edit: nothing of
	// it may be applied.
	script := "settext courses.course[1].taken_by.student.name Boeing\n" +
		strings.Repeat("# padding\n", int(maxBodyBytes)/10+1)
	if rec := rawReq(h, "POST", "/docs/ok/txn", script); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized txn status = %d", rec.Code)
	}
	var v verdictJSON
	doReq(t, h, "GET", "/docs/ok/report", "", &v)
	if v.Seq != 1 || !v.Satisfied {
		t.Fatalf("oversized txn moved the document: %+v", v)
	}

	// The edit cap, under the real byte bound: one edit past it is
	// refused whole, and a script at the cap commits.
	maxBodyBytes = old
	edits := func(n int) string {
		var b strings.Builder
		b.WriteString("# comments, blank lines and verdict lines are not edits\n\nverdict\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "settext courses.course[1].title t%d\n", i)
		}
		return b.String()
	}
	if rec := rawReq(h, "POST", "/docs/ok/txn", edits(maxTxnEdits+1)); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("txn of %d edits: status %d, want 413", maxTxnEdits+1, rec.Code)
	}
	doReq(t, h, "GET", "/docs/ok/report", "", &v)
	if v.Seq != 1 {
		t.Fatalf("txn over the edit cap moved the document to epoch %d", v.Seq)
	}
	if resp := doReq(t, h, "POST", "/docs/ok/txn", edits(maxTxnEdits), &v); resp.StatusCode != http.StatusOK || v.Seq != 2 || v.Edits != maxTxnEdits {
		t.Fatalf("txn of %d edits: status %d, verdict %+v; want epoch 2 with every edit", maxTxnEdits, resp.StatusCode, v)
	}
}

// TestServeTxnBodyReadBeforeLock pins that a transaction reads its
// whole script before taking the document's writer lock: while one
// transaction's body is still open, a second transaction on the same
// document commits.
func TestServeTxnBodyReadBeforeLock(t *testing.T) {
	h := mustServer(t, serveSpec(t)).handler()
	doReq(t, h, "PUT", "/docs/fig1", coursesXML(t), nil)

	pr, pw := io.Pipe()
	defer pw.Close() // lets the slow transaction finish on every path
	slowDone := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/docs/fig1/txn", pr))
		slowDone <- rec.Code
	}()
	// The handler has consumed the first edit once this write returns;
	// the body stays open after it.
	if _, err := io.WriteString(pw, "settext courses.course[1].title Slow\n"); err != nil {
		t.Fatal(err)
	}

	fast := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		fast <- rawReq(h, "POST", "/docs/fig1/txn", "settext courses.course[1].taken_by.student.name Boeing\n")
	}()
	select {
	case rec := <-fast:
		var v verdictJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &v); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("second txn: status %d, body %q", rec.Code, rec.Body)
		}
		if v.Seq != 2 || v.Edits != 1 {
			t.Fatalf("second txn verdict = %+v, want epoch 2 with one edit", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a transaction with an open body blocked another transaction on the same document")
	}

	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if code := <-slowDone; code != http.StatusOK {
		t.Fatalf("slow txn status = %d", code)
	}
	var v verdictJSON
	doReq(t, h, "GET", "/docs/fig1/report", "", &v)
	if v.Seq != 3 {
		t.Fatalf("after both transactions: epoch %d, want 3", v.Seq)
	}
}

// TestServeTimeoutsConfigured pins the listener hardening: the server
// cmdServe actually runs must carry a read-header timeout (a stalled
// client cannot pin a goroutine during header read) and an idle
// timeout (parked keep-alive connections are reclaimed).
func TestServeTimeoutsConfigured(t *testing.T) {
	hs := newHTTPServer(context.Background(), mustServer(t, serveSpec(t)).handler())
	if hs.ReadHeaderTimeout <= 0 {
		t.Fatal("serve listener has no ReadHeaderTimeout")
	}
	if hs.IdleTimeout <= 0 {
		t.Fatal("serve listener has no IdleTimeout")
	}
}

// TestServeFollow exercises the poll-based -follow mode: a change to
// the on-disk file shows up as a new hosted session with the new
// verdict, with no watch API involved.
func TestServeFollow(t *testing.T) {
	srv := mustServer(t, serveSpec(t))
	path := filepath.Join(t.TempDir(), "doc.xml")
	if err := os.WriteFile(path, []byte(coursesXML(t)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := srv.loadFile("live", path); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.followFile(ctx, "live", path, 5*time.Millisecond)

	d, _ := srv.lookup("live")
	if !d.session().Satisfied() {
		t.Fatal("initial document should satisfy Σ")
	}

	// Rewrite the file with a violating version (st1 named differently
	// in the two courses) and wait for the poller to re-host it.
	bad := strings.Replace(coursesXML(t), "<name>Deere</name>", "<name>Boeing</name>", 1)
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		d, _ := srv.lookup("live")
		if d != nil && !d.session().Satisfied() {
			return // reloaded with the violating document
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("follow never re-hosted the changed document")
}

// FuzzServeTxn posts arbitrary edit scripts to /docs/{name}/txn on the
// Figure 1 document, with the session in reporting mode. A fuzz input
// is a sequence of scripts separated by NUL bytes, applied in order to
// one hosted document. The server must never panic or answer 5xx; a
// rejected script must leave the ?witness=1 report byte-identical; and
// after every script the snapshot report must equal the ?fresh=1
// report byte for byte, which holds the session's sealed witnesses to
// the sharded from-scratch check: reports sealed over the conflicted
// groups only, and reports a commit that touched no FD carried forward
// from the epoch before.
func FuzzServeTxn(f *testing.F) {
	for _, seed := range []string{
		"settext courses.course[1].taken_by.student.name Boeing\n",
		"settext courses.course[1].taken_by.student.name Boeing\x00settext courses.course[1].taken_by.student.name Deere\n",
		"settext courses.course[1].taken_by.student.name Boeing\x00settext courses.course[1].taken_by.student[0].grade B\n",
		"insert courses <course cno=\"csc200\"><title>Dup</title><taken_by></taken_by></course>\n",
		"delete courses.course[2]\nsetattr courses.nowhere cno x\n",
		"setattr courses.course[1] cno csc200\nverdict\n# comment\n\n",
		"insert courses.course.taken_by <student sno=\"st2\"><name>Jones</name><grade>C</grade></student>\x00delete courses.course.taken_by.student[2]\n",
		"delete courses.course.taken_by.student.name\x00settext courses.course.taken_by.student Deere\n",
		"setattr courses.course.taken_by.student[1] sno st1\x00delete courses.course[1].taken_by\n",
		"settext #1 x\ninsert #2 <a/>\ndelete courses\n",
	} {
		f.Add(seed)
	}
	spec, err := loadSpec(td("courses.spec"))
	if err != nil {
		f.Fatal(err)
	}
	doc, err := os.ReadFile(td("courses.xml"))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, input string) {
		h := mustServer(t, spec).handler()
		if rec := rawReq(h, "PUT", "/docs/f", string(doc)); rec.Code != http.StatusCreated {
			t.Fatalf("PUT status %d: %s", rec.Code, rec.Body)
		}
		report := func(query string) string {
			rec := rawReq(h, "GET", "/docs/f/report?witness=1"+query, "")
			if rec.Code != http.StatusOK {
				t.Fatalf("report%s status %d: %s", query, rec.Code, rec.Body)
			}
			return rec.Body.String()
		}
		last := report("") // turns reporting mode on
		for i, script := range strings.Split(input, "\x00") {
			rec := rawReq(h, "POST", "/docs/f/txn", script)
			if rec.Code >= 500 {
				t.Fatalf("script %d %q: status %d: %s", i, script, rec.Code, rec.Body)
			}
			got := report("")
			if rec.Code != http.StatusOK && got != last {
				t.Fatalf("rejected script %d %q (status %d) moved the report:\n%s\nwant\n%s", i, script, rec.Code, got, last)
			}
			if fresh := report("&fresh=1"); fresh != got {
				t.Fatalf("after script %d %q: snapshot report\n%s\ndiffers from the fresh check's\n%s", i, script, got, fresh)
			}
			last = got
		}
	})
}

// FuzzServe drives the whole mux with a sequence of requests over the
// seven routes and unregistered ones. An input is requests separated by
// NUL bytes, each a "METHOD TARGET" line followed by its body; a request
// no client could send (an invalid method or URL) is skipped. Every
// answer must be a status in 200-499, never a panic, and after the
// sequence each hosted document's snapshot report must equal its
// ?fresh=1 report byte for byte.
func FuzzServe(f *testing.F) {
	spec, err := loadSpec(td("courses.spec"))
	if err != nil {
		f.Fatal(err)
	}
	hash := distrib.SpecHash(spec.DTD, spec.FDs)
	// Two courses sharing a student, small so that new inputs minimize
	// quickly.
	const doc = `<courses><course cno="a"><title>t</title><taken_by><student sno="s"><name>n</name><grade>g</grade></student></taken_by></course>` +
		`<course cno="b"><title>u</title><taken_by><student sno="s"><name>n</name><grade>h</grade></student></taken_by></course></courses>`
	for _, seed := range []string{
		"PUT /docs/f\n" + doc + "\x00GET /docs\x00GET /docs/f/report?witness=1\x00GET /docs/f/analyze",
		"PUT /docs/f\n" + doc + "\x00POST /docs/f/txn\nsettext courses.course[1].taken_by.student.name Boeing\n\x00GET /docs/f/report?witness=1&fresh=1",
		"PUT /docs/a\n<courses/>\x00POST /docs/a/txn\ninsert courses <course cno=\"c1\"><title>t</title><taken_by></taken_by></course>\n\x00DELETE /docs/a\x00DELETE /docs/a",
		"POST /fold?spec=" + hash + "\n" + doc + "\x00POST /fold?spec=nope\n<courses/>\x00POST /fold?spec=" + hash + "\n<courses>",
		"PUT /docs/b\n<courses><course></course></courses>\x00PUT /docs/c\n<courses\x00GET /docs/b/report",
		"GET /nowhere\x00PATCH /docs/f\x00POST /docs\x00GET /docs/f/txn\x00PUT /docs/%2E\n<courses/>\x00GET /docs/%2E/report",
		"PUT /docs/x%2Fy\n<courses/>\x00POST /docs/x%2Fy/txn\ndelete courses\n\x00GET /docs/x%2Fy/analyze?witness=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		srv := mustServer(t, spec)
		h := srv.handler()
		for i, r := range strings.Split(input, "\x00") {
			line, body, _ := strings.Cut(r, "\n")
			method, target, _ := strings.Cut(line, " ")
			if !strings.HasPrefix(target, "/") {
				continue
			}
			req, err := http.NewRequest(method, "http://xnf"+target, strings.NewReader(body))
			if err != nil {
				continue
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code < 200 || rec.Code > 499 {
				t.Fatalf("request %d %q: status %d: %s", i, line, rec.Code, rec.Body)
			}
		}
		srv.mu.RLock()
		names := make([]string, 0, len(srv.docs))
		for name := range srv.docs {
			names = append(names, name)
		}
		srv.mu.RUnlock()
		for _, name := range names {
			// Escape every byte: names like "." would otherwise be
			// cleaned out of the path.
			var target strings.Builder
			target.WriteString("/docs/")
			for i := 0; i < len(name); i++ {
				fmt.Fprintf(&target, "%%%02X", name[i])
			}
			target.WriteString("/report?witness=1")
			snap := rawReq(h, "GET", target.String(), "")
			fresh := rawReq(h, "GET", target.String()+"&fresh=1", "")
			if snap.Code != http.StatusOK || fresh.Code != http.StatusOK {
				t.Fatalf("document %q: report status %d, fresh status %d", name, snap.Code, fresh.Code)
			}
			if snap.Body.String() != fresh.Body.String() {
				t.Fatalf("document %q: snapshot report\n%s\ndiffers from the fresh check's\n%s", name, snap.Body, fresh.Body)
			}
		}
	})
}
