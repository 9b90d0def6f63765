// xnf serve: the hosted mode of the incremental checker. One process
// holds one specification and any number of named documents, each
// behind an xmlnorm.Session; clients load documents, apply batched
// edit transactions, and read verdicts over HTTP/JSON. The wire format
// is the verdictJSON object "xnf check -json" and "xnf watch -json"
// emit, and the transaction body is the "xnf watch" edit-script
// language — the CLI and the server are two frontends over one core.
//
//	PUT    /docs/{name}          load the request body as the document
//	POST   /docs/{name}/txn      apply the body as ONE edit transaction
//	GET    /docs/{name}/report   read the current verdict (never blocks)
//	DELETE /docs/{name}          drop the document
//	GET    /docs                 list hosted documents
//	POST   /fold                 fold the body as one fragment (worker mode)
//
// /fold is the worker side of distributed checking (internal/distrib):
// a coordinator running `xnf check -workers ...` with the SAME spec
// ships fragment bytes here and gets the marshaled xfd.FoldState back.
// The checker set is compiled once per process — workers compile once
// and fold many. Request bodies are bounded (413 past 64 MB), and the
// listener carries read-header and idle timeouts so stalled or idle
// connections cannot pin the process.
//
// Report reads are snapshot reads: they return the last committed
// epoch without blocking on in-flight transactions, so a slow writer
// never stalls monitoring. "?witness=1" adds the violating tuple pairs;
// "?fresh=1" ignores the session state and re-checks the document
// from scratch with the sharded checker under the REQUEST's context —
// a client-side deadline (or dropped connection, or server shutdown)
// cancels the fold mid-flight.
//
// A transaction body is read whole, under the same bound and a cap of
// maxTxnEdits edits (413 past either), before the document's writer
// lock is taken, so a slow client stalls only its own request. It is
// then applied atomically: all edits fold in one retract/assert pass
// at commit, readers see either the pre- or the post-transaction
// epoch, and any failing edit rolls the whole batch back. The response
// carries the new epoch's verdict plus the delta (newly violated /
// newly satisfied FDs) against the pre-transaction epoch, and the
// NodeIDs assigned to inserted subtrees.
//
// -follow name=path (repeatable) additionally hosts an on-disk
// document, re-loading it whenever the file's mtime or size changes —
// a plain poll (-poll interval), no platform watch APIs.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"xmlnorm"
	"xmlnorm/internal/distrib"
	"xmlnorm/internal/engine"
)

// maxBodyBytes bounds every request body that carries a document or an
// edit script (PUT /docs, POST /docs/{name}/txn and POST /fold alike):
// past it the server answers 413, not OOM. A variable only so tests can
// exercise the bound without 64 MB bodies.
var maxBodyBytes int64 = 64 << 20

// maxTxnEdits bounds the edit lines of one transaction (413 past it). A
// transaction commits under its document's writer lock, uncancellable,
// and its cost grows faster than linearly in its edit count.
const maxTxnEdits = 1024

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	poll := fs.Duration("poll", 500*time.Millisecond, "poll interval for -follow documents")
	var follows []string
	fs.Func("follow", "host an on-disk document as name=path, reloading on change (repeatable)", func(v string) error {
		if !strings.Contains(v, "=") {
			return fmt.Errorf("want name=path, got %q", v)
		}
		follows = append(follows, v)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: xnf serve [-addr host:port] [-poll interval] [-follow name=path]... <spec>")
	}
	if *poll <= 0 {
		return fmt.Errorf("serve -poll %v: the interval must be positive", *poll)
	}
	spec, err := loadSpec(fs.Arg(0))
	if err != nil {
		return err
	}
	srv, err := newServer(spec)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for _, f := range follows {
		name, path, _ := strings.Cut(f, "=")
		if err := srv.loadFile(name, path); err != nil {
			return fmt.Errorf("follow %s: %v", f, err)
		}
		go srv.followFile(ctx, name, path, *poll)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := newHTTPServer(ctx, srv.handler())
	fmt.Fprintf(os.Stderr, "xnf serve: listening on http://%s\n", ln.Addr())
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return hs.Shutdown(shutCtx)
}

// newHTTPServer wraps the handler in the hardened listener
// configuration: a client that dribbles its headers or parks an idle
// keep-alive connection must not hold a goroutine (or a file
// descriptor) forever; bodies are under the handlers' own bounds.
// Request contexts descend from ctx, so shutdown cancels in-flight
// sharded folds along with everything else.
func newHTTPServer(ctx context.Context, h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		BaseContext:       func(net.Listener) context.Context { return ctx },
	}
}

// server hosts named documents under one specification. The map mutex
// guards only name→document resolution; verdict reads go straight to
// the session's lock-free snapshot, and each document serializes its
// writers (transactions, follow reloads, fresh re-checks) on its own
// mutex so the hosted tree is stable whenever someone walks it.
type server struct {
	spec xmlnorm.Spec
	fold http.Handler // the /fold worker endpoint (internal/distrib)
	mu   sync.RWMutex
	docs map[string]*hostedDoc

	// The schema analysis is a property of the spec alone; it is
	// computed once, on the first GET /docs/{name}/analyze, and served
	// to every document from then on.
	analysisOnce sync.Once
	analysis     *xmlnorm.AnalysisReport
	analysisErr  error
}

type hostedDoc struct {
	// mu is the document's writer lock: held across transactions,
	// follow reloads (which swap sess), and fresh re-checks (which
	// walk the live tree and must not race a writer). Snapshot reads
	// never take it — they load the session pointer atomically and go
	// straight to its epoch.
	mu   sync.Mutex
	sess atomic.Pointer[xmlnorm.Session]
}

// session returns the document's current session, lock-free.
func (d *hostedDoc) session() *xmlnorm.Session { return d.sess.Load() }

func newServer(spec xmlnorm.Spec) (*server, error) {
	// Compile the spec's checker set once, up front, through the
	// process-global registry: every /fold request reuses it, so the
	// worker's steady state is parse + fold only.
	cs, err := engine.SharedCheckers(spec.FDs)
	if err != nil {
		return nil, err
	}
	hash := distrib.SpecHash(spec.DTD, spec.FDs)
	return &server{
		spec: spec,
		fold: distrib.FoldHandler(cs, hash, maxBodyBytes),
		docs: map[string]*hostedDoc{},
	}, nil
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /docs", s.handleList)
	mux.HandleFunc("PUT /docs/{name}", s.handlePut)
	mux.HandleFunc("DELETE /docs/{name}", s.handleDelete)
	mux.HandleFunc("GET /docs/{name}/report", s.handleReport)
	mux.HandleFunc("GET /docs/{name}/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /docs/{name}/txn", s.handleTxn)
	mux.Handle("POST /fold", s.fold)
	return mux
}

// lookup resolves a hosted document by name.
func (s *server) lookup(name string) (*hostedDoc, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.docs[name]
	return d, ok
}

// load parses, validates and hosts a document under the given name,
// replacing any previous document; it reports whether the name was
// new. The tree is built by the streaming reader — the raw bytes are
// never buffered whole.
func (s *server) load(name string, doc *xmlnorm.Tree) (created bool, err error) {
	if err := xmlnorm.ConformsUnordered(doc, s.spec.DTD); err != nil {
		return false, fmt.Errorf("document does not conform to the spec: %v", err)
	}
	sess, err := xmlnorm.NewSession(s.spec, doc)
	if err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.docs[name]
	if !ok {
		d = &hostedDoc{}
		d.sess.Store(sess)
		s.docs[name] = d
		return true, nil
	}
	d.mu.Lock()
	d.sess.Store(sess)
	d.mu.Unlock()
	return false, nil
}

// loadFile hosts (or re-hosts) an on-disk document.
func (s *server) loadFile(name, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	doc, err := xmlnorm.ParseDocumentReader(f)
	if err != nil {
		return err
	}
	_, err = s.load(name, doc)
	return err
}

// followFile polls the file's mtime and size and re-hosts the document
// on every change: the fsnotify-free way to keep an on-disk document's
// verdict live. Load errors (mid-write truncation, a transient parse
// failure) keep the previous session and are logged.
func (s *server) followFile(ctx context.Context, name, path string, every time.Duration) {
	// No baseline stat: the first tick always reloads, so a write that
	// lands between the initial load and the poller starting is never
	// missed (re-hosting unchanged content republishes the same
	// verdict, which is harmless).
	var lastMod time.Time
	var lastSize int64
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		st, err := os.Stat(path)
		if err != nil {
			continue
		}
		if st.ModTime().Equal(lastMod) && st.Size() == lastSize {
			continue
		}
		lastMod, lastSize = st.ModTime(), st.Size()
		if err := s.loadFile(name, path); err != nil {
			fmt.Fprintf(os.Stderr, "xnf serve: follow %s: %v\n", name, err)
			continue
		}
		if d, ok := s.lookup(name); ok {
			sn := d.session().Snapshot()
			fmt.Fprintf(os.Stderr, "xnf serve: follow %s: reloaded, satisfied=%v\n", name, sn.Satisfied())
		}
	}
}

// httpError writes a JSON error object; the shape is the same for
// every endpoint.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = writeJSON(w, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func wantWitness(r *http.Request) bool { return r.URL.Query().Get("witness") != "" }

// writeVerdict emits a verdict object with the shared encoder.
func writeVerdict(w http.ResponseWriter, code int, v verdictJSON) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = writeJSON(w, v)
}

// snapshotVerdict renders one session epoch.
func (s *server) snapshotVerdict(name string, sn *xmlnorm.Snapshot, witness bool) verdictJSON {
	return verdictObject(name, sn.Seq(), sn.Total(), sn.Report(), witness)
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.docs))
	for name := range s.docs {
		names = append(names, name)
	}
	docs := make(map[string]*hostedDoc, len(s.docs))
	for name, d := range s.docs {
		docs[name] = d
	}
	s.mu.RUnlock()
	out := make([]verdictJSON, 0, len(names))
	for _, name := range names {
		out = append(out, s.snapshotVerdict(name, docs[name].session().Snapshot(), false))
	}
	w.Header().Set("Content-Type", "application/json")
	_ = writeJSON(w, out)
}

func (s *server) handlePut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body := distrib.NewLimitBody(w, r.Body, maxBodyBytes)
	doc, err := xmlnorm.ParseDocumentReader(body)
	if err != nil {
		if body.TooLarge {
			httpError(w, http.StatusRequestEntityTooLarge, "document over %d bytes", int64(maxBodyBytes))
			return
		}
		httpError(w, http.StatusBadRequest, "parse: %v", err)
		return
	}
	created, err := s.load(name, doc)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	d, _ := s.lookup(name)
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	writeVerdict(w, code, s.snapshotVerdict(name, d.session().Snapshot(), wantWitness(r)))
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	_, ok := s.docs[name]
	delete(s.docs, name)
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no document %q", name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *server) handleReport(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	d, ok := s.lookup(name)
	if !ok {
		httpError(w, http.StatusNotFound, "no document %q", name)
		return
	}
	if r.URL.Query().Get("fresh") == "" {
		// The fast path: the last committed epoch, straight off the
		// session's atomic snapshot. Never blocks on a writer.
		writeVerdict(w, http.StatusOK, s.snapshotVerdict(name, d.session().Snapshot(), wantWitness(r)))
		return
	}
	// fresh=1: a from-scratch sharded pass over the hosted tree under
	// the request context — the client's deadline (and the server's
	// shutdown) stops every fold of the pass at its next tuple. Takes the
	// document's writer lock so the tree cannot move under the fold.
	d.mu.Lock()
	sn := d.session().Snapshot()
	report, err := xmlnorm.ViolationsCtx(r.Context(), d.session().Tree(), s.spec.FDs, engOpts)
	d.mu.Unlock()
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "fresh check: %v", err)
		return
	}
	writeVerdict(w, http.StatusOK, verdictObject(name, sn.Seq(), len(s.spec.FDs), report, wantWitness(r)))
}

// handleAnalyze serves the spec's schema-analysis report under a
// hosted document's name, in the "xnf analyze -json" wire shape. The
// document must exist (the route mirrors /report), but the analysis is
// doc-independent and cached after the first request. "?witness=1"
// adds the diagnosis tuple pairs.
func (s *server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := s.lookup(name); !ok {
		httpError(w, http.StatusNotFound, "no document %q", name)
		return
	}
	s.analysisOnce.Do(func() {
		s.analysis, s.analysisErr = xmlnorm.Analyze(s.spec, xmlnorm.AnalyzeOptions{Engine: engOpts})
	})
	if s.analysisErr != nil {
		httpError(w, http.StatusInternalServerError, "analyze: %v", s.analysisErr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = writeJSON(w, analyzeObject(name, s.analysis, wantWitness(r)))
}

// handleTxn applies an edit script as one transaction. The script is
// read and split into its edit lines before the writer lock is taken:
// a client that trickles its body must not hold the lock against the
// document's other writers.
func (s *server) handleTxn(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	d, ok := s.lookup(name)
	if !ok {
		httpError(w, http.StatusNotFound, "no document %q", name)
		return
	}
	body := distrib.NewLimitBody(w, r.Body, maxBodyBytes)
	var edits []string
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || line == "verdict" {
			continue
		}
		if len(edits) == maxTxnEdits {
			httpError(w, http.StatusRequestEntityTooLarge, "script over %d edits", maxTxnEdits)
			return
		}
		edits = append(edits, line)
	}
	if err := sc.Err(); err != nil {
		if body.TooLarge {
			httpError(w, http.StatusRequestEntityTooLarge, "script over %d bytes", int64(maxBodyBytes))
			return
		}
		httpError(w, http.StatusBadRequest, "script: %v", err)
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	sess := d.session()
	before := sess.Snapshot()
	tx := sess.Begin()
	var inserted []insertedJSON
	for i, line := range edits {
		sub, err := applyEdit(tx, line)
		if err != nil {
			_ = tx.Rollback()
			httpError(w, http.StatusUnprocessableEntity, "edit %d (%s): %v", i+1, line, err)
			return
		}
		if sub != nil {
			inserted = append(inserted, insertedJSON{Label: sub.Label, ID: sub.ID})
		}
	}
	if err := tx.Commit(); err != nil {
		httpError(w, http.StatusInternalServerError, "commit: %v", err)
		return
	}
	after := sess.Snapshot()
	v := s.snapshotVerdict(name, after, wantWitness(r))
	v.Edits = len(edits)
	v.addDelta(s.spec, before.Violated(), after.Violated())
	v.Inserted = inserted
	writeVerdict(w, http.StatusOK, v)
}
