// Package distrib is the multi-process fragment-checking layer: a
// coordinator that ships fold work to xnf serve worker processes over
// HTTP and merges the returned xfd.FoldState values into the
// whole-document (or whole-corpus) verdict, plus the worker-side
// /fold handler itself — both ends of the wire protocol live here, so
// the encoding and its decoding cannot drift apart.
//
// The protocol is one request shape:
//
//	POST /fold?spec=HASH&label=L&start=N&depth=D
//	  body:     XML bytes of one fragment (or one whole document)
//	  200:      application/octet-stream, FoldState.MarshalBinary
//	  400:      malformed or over-deep body
//	  409:      the worker serves a different specification
//	  413:      body over the worker's size bound
//	  503:      the request was cancelled mid-fold (no state is sent)
//
// spec is SpecHash of the coordinator's specification; label/start are
// the Fragment's split label and global starting ordinal (empty/0 for
// whole documents); depth is the element-nesting bound in WalkTokens'
// encoding (0 = unlimited). Because fold keys address element values
// positionally (see internal/xfd/fragment.go), the state a worker
// folds from re-parsed bytes is bit-identical to the state the
// coordinator would fold locally — the invariant the cross-process
// differential suite in this package pins.
//
// The coordinator is built to degrade, not fail: bounded in-flight
// requests over one keep-alive client, a per-request timeout, retries
// with exponential backoff and jitter that rotate to the next worker,
// a short cooldown for workers that keep failing, and a transparent
// local fold fallback — a dead or lagging worker costs throughput but
// never changes a verdict or aborts a sweep.
package distrib

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"xmlnorm/internal/corpus"
	"xmlnorm/internal/dtd"
	"xmlnorm/internal/pool"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

// SpecHash canonicalizes a specification into the hash the /fold
// protocol uses to guard against coordinator/worker spec mismatch:
// byte-identical (DTD, Σ in Σ order) texts — the same canonicalization
// the engine registry keys by — hash equal.
func SpecHash(d *dtd.DTD, sigma []xfd.FD) string {
	h := sha256.New()
	io.WriteString(h, d.String())
	io.WriteString(h, "\x00")
	io.WriteString(h, xfd.FormatSet(sigma))
	return hex.EncodeToString(h.Sum(nil))
}

// LimitBody wraps http.MaxBytesReader and records whether the limit
// tripped: handlers that stream the body into a parser lose the
// *http.MaxBytesError inside the parser's error wrapping, and TooLarge
// is what lets them still answer 413 instead of a generic 400.
type LimitBody struct {
	r        io.Reader
	TooLarge bool
}

// NewLimitBody bounds a request body at max bytes.
func NewLimitBody(w http.ResponseWriter, body io.ReadCloser, max int64) *LimitBody {
	return &LimitBody{r: http.MaxBytesReader(w, body, max)}
}

func (b *LimitBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			b.TooLarge = true
		}
	}
	return n, err
}

// jsonError writes the {"error": ...} object every xnf serve endpoint
// uses.
func jsonError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"error\":%q}\n", fmt.Sprintf(format, args...))
}

// FoldHandler is the worker side of the protocol: an http.Handler for
// POST /fold that parses the request body under the shipped nesting
// bound, folds it as one fragment through the process-global compiled
// CheckerSet — compile once, fold many — and responds with the
// marshaled FoldState. specHash guards that coordinator and worker
// were started with byte-identical specifications; maxBody bounds the
// request body (413 on overflow). The fold runs under the request's
// context, so a client that gives up or a server that shuts down
// stops it at the next tuple.
func FoldHandler(cs *xfd.CheckerSet, specHash string, maxBody int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		if got := q.Get("spec"); got != specHash {
			jsonError(w, http.StatusConflict, "spec hash %q does not match this worker's %q", got, specHash)
			return
		}
		start := 0
		if s := q.Get("start"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				jsonError(w, http.StatusBadRequest, "bad start %q", s)
				return
			}
			start = n
		}
		depth := xmltree.DefaultMaxDepth
		if s := q.Get("depth"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				jsonError(w, http.StatusBadRequest, "bad depth %q", s)
				return
			}
			depth = n
		}
		body := NewLimitBody(w, r.Body, maxBody)
		doc, err := xmltree.ParseLimit(body, depth)
		if err != nil {
			if body.TooLarge {
				jsonError(w, http.StatusRequestEntityTooLarge, "fragment over %d bytes", maxBody)
				return
			}
			jsonError(w, http.StatusBadRequest, "parse: %v", err)
			return
		}
		st := cs.NewFoldState()
		if err := st.FoldFragment(r.Context(), xfd.Fragment{Tree: doc, Label: q.Get("label"), Start: start}); err != nil {
			// The request was cancelled mid-fold: a partial state is
			// never shipped.
			jsonError(w, http.StatusServiceUnavailable, "fold: %v", err)
			return
		}
		blob, err := st.MarshalBinary()
		if err != nil {
			jsonError(w, http.StatusInternalServerError, "marshal: %v", err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(blob)
	})
}

// Options tunes a Coordinator. The zero value is usable: 10s per
// request, 2 retries, the default nesting bound. A coordinator keeps
// at most 4 requests per worker in flight.
type Options struct {
	// Timeout bounds each remote request (default 10s).
	Timeout time.Duration
	// Retries is how many additional attempts (each rotated to the
	// next worker) a fold gets before falling back to a local fold
	// (default 2).
	Retries int
	// MaxDepth is the element-nesting bound in xfd.ReaderOptions'
	// encoding (0 = default, negative = unlimited), applied locally
	// and shipped to workers so both sides reject the same documents.
	MaxDepth int
}

// Stats counts what a coordinator actually did — the observability for
// "a dead worker degrades throughput but never changes the verdict".
type Stats struct {
	// Remote counts folds answered by a worker; Local counts folds
	// that fell back to this process; Retries counts re-sent requests.
	Remote, Local, Retries int64
}

// worker is one remote endpoint with its failure bookkeeping.
type worker struct {
	base      string
	downUntil atomic.Int64 // unix nanos; skipped while in the future
	fails     atomic.Int64 // consecutive failures, scales the cooldown
}

// Coordinator fans fold work out to a fixed worker set. Safe for
// concurrent use.
type Coordinator struct {
	cs      *xfd.CheckerSet
	hash    string
	workers []*worker
	client  *http.Client
	sem     chan struct{}
	next    atomic.Uint64
	timeout time.Duration
	retries int
	ropts   xfd.ReaderOptions

	remote, local, retried atomic.Int64
}

// New builds a coordinator for the given compiled set and worker
// addresses ("host:port" or full URLs). The specHash must be
// SpecHash of the specification the workers were started with.
func New(cs *xfd.CheckerSet, specHash string, workers []string, opts Options) (*Coordinator, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("distrib: no workers")
	}
	c := &Coordinator{
		cs:      cs,
		hash:    specHash,
		timeout: opts.Timeout,
		retries: opts.Retries,
		ropts:   xfd.ReaderOptions{MaxDepth: opts.MaxDepth},
		client:  &http.Client{},
	}
	if c.timeout <= 0 {
		c.timeout = 10 * time.Second
	}
	if c.retries < 0 {
		c.retries = 0
	} else if opts.Retries == 0 {
		c.retries = 2
	}
	c.sem = make(chan struct{}, 4*len(workers))
	for _, wkr := range workers {
		base := strings.TrimRight(wkr, "/")
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		if _, err := url.Parse(base); err != nil {
			return nil, fmt.Errorf("distrib: worker %q: %v", wkr, err)
		}
		c.workers = append(c.workers, &worker{base: base})
	}
	return c, nil
}

// Stats snapshots the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	return Stats{Remote: c.remote.Load(), Local: c.local.Load(), Retries: c.retried.Load()}
}

// pick returns the next worker in round-robin order. A fresh fold
// (ignoreCooldown false) skips workers inside their failure cooldown
// and gets nil when every worker is down — the caller folds locally,
// which is what keeps a dead worker set cheap. A retry (ignoreCooldown
// true) always gets a worker: the caller has already committed to
// spending backoff time, so re-probing a cooling worker is free
// information and is how a flaky single-worker set recovers.
func (c *Coordinator) pick(ignoreCooldown bool) *worker {
	n := len(c.workers)
	start := int(c.next.Add(1)-1) % n
	now := time.Now().UnixNano()
	for i := 0; i < n; i++ {
		w := c.workers[(start+i)%n]
		if ignoreCooldown || w.downUntil.Load() <= now {
			return w
		}
	}
	return nil
}

// markDown records a failure: exponential cooldown, capped at 2s, so a
// dead worker costs one timeout and is then routed around while still
// being re-probed a few times a second.
func (w *worker) markDown() {
	fails := w.fails.Add(1)
	cool := 100 * time.Millisecond << uint(min(fails-1, 4))
	w.downUntil.Store(time.Now().Add(cool).UnixNano())
}

func (w *worker) markUp() {
	w.fails.Store(0)
	w.downUntil.Store(0)
}

// protocolError marks a definitive worker answer (4xx): retrying other
// workers cannot change it, so the caller goes straight to the local
// fallback, which re-derives the same outcome with local error text.
type protocolError struct {
	code int
	msg  string
}

func (e *protocolError) Error() string { return fmt.Sprintf("worker answered %d: %s", e.code, e.msg) }

// foldOnce ships one fragment's bytes to one worker.
func (c *Coordinator) foldOnce(ctx context.Context, w *worker, body []byte, label string, start int) (*xfd.FoldState, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	u := fmt.Sprintf("%s/fold?spec=%s&label=%s&start=%d&depth=%d",
		w.base, c.hash, url.QueryEscape(label), start, c.ropts.Limit())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/xml")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg := strings.TrimSpace(string(blob))
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return nil, &protocolError{code: resp.StatusCode, msg: msg}
		}
		return nil, fmt.Errorf("worker answered %d: %s", resp.StatusCode, msg)
	}
	return c.cs.UnmarshalFoldState(blob)
}

// foldBytes folds one fragment's bytes through the worker set:
// bounded in-flight, round-robin with cooldown routing, retries with
// exponential backoff and jitter. It returns an error only when no
// worker produced a state — the caller then folds locally.
func (c *Coordinator) foldBytes(ctx context.Context, body []byte, label string, start int) (*xfd.FoldState, error) {
	c.sem <- struct{}{}
	defer func() { <-c.sem }()
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w := c.pick(attempt > 0)
		if w == nil {
			break // every worker cooling down: fall back locally
		}
		if attempt > 0 {
			c.retried.Add(1)
			backoff := 25 * time.Millisecond << uint(attempt-1)
			backoff += time.Duration(rand.Int63n(int64(backoff)))
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		st, err := c.foldOnce(ctx, w, body, label, start)
		if err == nil {
			w.markUp()
			c.remote.Add(1)
			return st, nil
		}
		lastErr = err
		var pe *protocolError
		if errors.As(err, &pe) {
			// A definitive 4xx: the local fallback reproduces the
			// outcome (and its error text) without blaming the worker.
			return nil, err
		}
		w.markDown()
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("distrib: all workers cooling down")
	}
	return nil, lastErr
}

// FoldFragment folds one fragment, remotely when possible, locally
// otherwise. It never fails: the local fold is always available and
// produces the identical state. The local fold ignores ctx's
// cancellation — it must return a whole state — so ctx bounds only the
// remote attempts and CheckDocument's fan-out.
func (c *Coordinator) FoldFragment(ctx context.Context, f xfd.Fragment) *xfd.FoldState {
	st, err := c.foldBytes(ctx, []byte(f.Tree.String()), f.Label, f.Start)
	if err == nil {
		return st
	}
	c.local.Add(1)
	st = c.cs.NewFoldState()
	_ = st.FoldFragment(context.WithoutCancel(ctx), f) // cannot fail uncancelled
	return st
}

// CheckDocument checks one materialized document across the worker
// set: SplitFragments into k pieces (k < 2 defaults to two per
// worker), fold each remotely with local fallback, merge, and
// re-derive the canonical witness report locally — so the output is
// byte-identical to the single-process check whatever the workers do.
func (c *Coordinator) CheckDocument(ctx context.Context, t *xmltree.Tree, k int) ([]xfd.Violated, error) {
	if k < 2 {
		k = 2 * len(c.workers)
	}
	frags := c.cs.SplitFragments(t, k)
	states := make([]*xfd.FoldState, len(frags))
	if err := pool.ForEachCtx(ctx, cap(c.sem), len(frags), func(i int) error {
		states[i] = c.FoldFragment(ctx, frags[i])
		return nil
	}); err != nil {
		return nil, err
	}
	merged := states[0]
	for _, st := range states[1:] {
		if err := merged.Merge(st); err != nil {
			return nil, err
		}
	}
	return c.cs.WitnessReport(t, merged.ViolatedSet()), nil
}

// CheckFile checks one corpus entry: the file's bytes ship to a worker
// as a whole-document fragment, and only a violated verdict pays for a
// local parse to re-derive the canonical witnesses. Any remote failure
// — network, a dead worker, a 4xx — falls back to the exact local
// check, so verdicts and error messages are identical to an
// undistributed sweep.
func (c *Coordinator) CheckFile(ctx context.Context, path string) ([]xfd.Violated, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	st, err := c.foldBytes(ctx, data, "", 0)
	if err != nil {
		c.local.Add(1)
		return corpus.CheckOne(c.cs, path, c.ropts)
	}
	bad := st.ViolatedSet()
	if len(bad) == 0 {
		return nil, nil
	}
	t, err := xmltree.ParseLimit(bytes.NewReader(data), c.ropts.Limit())
	if err != nil {
		// The worker parsed these bytes; a local failure here means
		// the checkers disagree — decide locally, which wins.
		c.local.Add(1)
		return corpus.CheckOne(c.cs, path, c.ropts)
	}
	return c.cs.WitnessReport(t, bad), nil
}

// CheckFileOption adapts the coordinator to corpus.Options.CheckFile,
// so xnf check -r -workers reuses the corpus walker, sequencer and
// summary unchanged.
func (c *Coordinator) CheckFileOption(ctx context.Context) func(path string, ropts xfd.ReaderOptions) ([]xfd.Violated, error) {
	return func(path string, _ xfd.ReaderOptions) ([]xfd.Violated, error) {
		return c.CheckFile(ctx, path)
	}
}
