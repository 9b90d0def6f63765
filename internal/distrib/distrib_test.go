package distrib_test

// In-process coverage for the coordinator/worker protocol: a worker is
// the real FoldHandler behind httptest, so these tests exercise the
// actual wire encoding end to end — only the process boundary is
// missing, and crossprocess_test.go adds that.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xmlnorm/internal/corpus"
	"xmlnorm/internal/distrib"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

// testSigma has element-valued sides on both ends — the FD shape the
// portable addressing exists for.
func testSigma() []xfd.FD {
	return []xfd.FD{
		xfd.New([]string{"r.a.@k"}, []string{"r.a"}),
		xfd.New([]string{"r.a"}, []string{"r.a.@v"}),
	}
}

func testCS(t *testing.T) *xfd.CheckerSet {
	t.Helper()
	cs, err := xfd.NewCheckerSetFor(testSigma())
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func mustParse(t *testing.T, s string) *xmltree.Tree {
	t.Helper()
	doc, err := xmltree.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// aDoc renders <r> with n <a> children; keyed distinctly unless dup.
func aDoc(n int, dup bool) string {
	s := "<r>"
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%d", i)
		if dup && i == n-1 {
			k = "k0"
		}
		s += fmt.Sprintf(`<a k=%q v="v%d"><b/></a>`, k, i)
	}
	return s + "</r>"
}

// startWorker serves the real FoldHandler behind httptest.
func startWorker(t *testing.T, cs *xfd.CheckerSet, hash string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("POST /fold", distrib.FoldHandler(cs, hash, 1<<20))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// deadWorkerURL is an address nothing listens on.
func deadWorkerURL(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close()
	return url
}

func checkBoth(t *testing.T, c *distrib.Coordinator, cs *xfd.CheckerSet, label string) {
	t.Helper()
	for _, tc := range []struct {
		name string
		doc  string
		bad  bool
	}{
		{"satisfied", aDoc(9, false), false},
		{"violated", aDoc(9, true), true},
	} {
		doc := mustParse(t, tc.doc)
		want := cs.Violations(doc)
		got, err := c.CheckDocument(context.Background(), doc, 4)
		if err != nil {
			t.Fatalf("%s/%s: CheckDocument: %v", label, tc.name, err)
		}
		if (len(want) > 0) != tc.bad {
			t.Fatalf("%s/%s: fixture broken, local reports %d violations", label, tc.name, len(want))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/%s: distributed report differs from local:\n%v\nvs\n%v", label, tc.name, got, want)
		}
	}
}

// TestCoordinatorMatchesLocal: with a healthy worker, every verdict and
// witness equals the local check's, and the folds actually went remote.
func TestCoordinatorMatchesLocal(t *testing.T) {
	cs := testCS(t)
	w := startWorker(t, cs, "h1")
	c, err := distrib.New(cs, "h1", []string{w.URL}, distrib.Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkBoth(t, c, cs, "healthy")
	st := c.Stats()
	if st.Remote == 0 || st.Local != 0 {
		t.Fatalf("stats = %+v, want all folds remote", st)
	}
}

// TestCoordinatorDeadWorker: every worker down — the check degrades to
// local folding and the verdicts do not move.
func TestCoordinatorDeadWorker(t *testing.T) {
	cs := testCS(t)
	c, err := distrib.New(cs, "h1", []string{deadWorkerURL(t)},
		distrib.Options{Timeout: 500 * time.Millisecond, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	checkBoth(t, c, cs, "dead")
	st := c.Stats()
	if st.Remote != 0 || st.Local == 0 {
		t.Fatalf("stats = %+v, want all folds local", st)
	}
}

// TestCoordinatorOneDeadWorker: a dead worker in the set degrades
// throughput, not correctness — the live one (or the local fallback)
// picks up its share.
func TestCoordinatorOneDeadWorker(t *testing.T) {
	cs := testCS(t)
	live := startWorker(t, cs, "h1")
	c, err := distrib.New(cs, "h1", []string{deadWorkerURL(t), live.URL},
		distrib.Options{Timeout: 500 * time.Millisecond, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkBoth(t, c, cs, "one-dead")
	if st := c.Stats(); st.Remote == 0 {
		t.Fatalf("stats = %+v, want some folds remote via the live worker", st)
	}
}

// TestCoordinatorRetriesFlaky: transient 500s are retried (with the
// request rotated onward), and the fold still lands remotely.
func TestCoordinatorRetriesFlaky(t *testing.T) {
	cs := testCS(t)
	fold := distrib.FoldHandler(cs, "h1", 1<<20)
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fold", func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)%2 == 1 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		fold.ServeHTTP(w, r)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c, err := distrib.New(cs, "h1", []string{srv.URL}, distrib.Options{Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkBoth(t, c, cs, "flaky")
	st := c.Stats()
	if st.Retries == 0 || st.Remote == 0 {
		t.Fatalf("stats = %+v, want retried remote folds", st)
	}
}

// TestCoordinatorSpecMismatch: a worker serving a different spec is a
// definitive 409 — no retry storm, straight to the correct local fold.
func TestCoordinatorSpecMismatch(t *testing.T) {
	cs := testCS(t)
	w := startWorker(t, cs, "theirs")
	c, err := distrib.New(cs, "ours", []string{w.URL}, distrib.Options{Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkBoth(t, c, cs, "mismatch")
	st := c.Stats()
	if st.Remote != 0 || st.Local == 0 {
		t.Fatalf("stats = %+v, want every fold local after 409", st)
	}
	if st.Retries != 0 {
		t.Fatalf("stats = %+v, a 409 must not be retried", st)
	}
}

// TestCheckFileMatchesCorpus: the corpus hook returns the same verdicts
// and byte-identical error text as the local per-entry check, for a
// satisfied file, a violating file, and a malformed one — with a
// healthy worker and with none.
func TestCheckFileMatchesCorpus(t *testing.T) {
	cs := testCS(t)
	dir := t.TempDir()
	files := map[string]string{
		"ok.xml":     aDoc(5, false),
		"bad.xml":    aDoc(5, true),
		"broken.xml": "<r><a",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w := startWorker(t, cs, "h1")
	for _, workers := range [][]string{{w.URL}, {deadWorkerURL(t)}} {
		c, err := distrib.New(cs, "h1", workers,
			distrib.Options{Timeout: 500 * time.Millisecond, Retries: -1})
		if err != nil {
			t.Fatal(err)
		}
		for name := range files {
			path := filepath.Join(dir, name)
			wantV, wantErr := corpus.CheckOne(cs, path, xfd.ReaderOptions{})
			gotV, gotErr := c.CheckFile(context.Background(), path)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s via %v: err %v, local err %v", name, workers, gotErr, wantErr)
			}
			if gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s via %v: error text %q, local %q", name, workers, gotErr, wantErr)
			}
			if len(gotV) != len(wantV) {
				t.Fatalf("%s via %v: %d violations, local %d", name, workers, len(gotV), len(wantV))
			}
			for i := range gotV {
				if !gotV[i].FD.Equal(wantV[i].FD) {
					t.Fatalf("%s via %v: FD %d is %s, local %s", name, workers, i, gotV[i].FD, wantV[i].FD)
				}
			}
		}
	}
}

// TestFoldHandlerCancelled: a fold whose request context is cancelled
// answers 503 with no fold state — a partial fold is never shipped,
// so the coordinator retries or folds locally instead of merging it.
func TestFoldHandlerCancelled(t *testing.T) {
	cs := testCS(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/fold?spec=h1", strings.NewReader(aDoc(9, false))).WithContext(ctx)
	rec := httptest.NewRecorder()
	distrib.FoldHandler(cs, "h1", 1<<20).ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled fold answered %d, want 503: %s", rec.Code, rec.Body)
	}
	if _, err := cs.UnmarshalFoldState(rec.Body.Bytes()); err == nil {
		t.Fatal("cancelled fold shipped a decodable fold state")
	}
}

// TestLimitBody pins the 413 plumbing: reading past the bound flips
// TooLarge, staying under it does not.
func TestLimitBody(t *testing.T) {
	drain := func(body string, max int64) *distrib.LimitBody {
		req := httptest.NewRequest("POST", "/", strings.NewReader(body))
		lb := distrib.NewLimitBody(httptest.NewRecorder(), req.Body, max)
		buf := make([]byte, 16)
		var err error
		for err == nil {
			_, err = lb.Read(buf)
		}
		return lb
	}
	if lb := drain("0123", 4); lb.TooLarge {
		t.Fatal("body at the bound flagged too large")
	}
	if lb := drain("0123456789", 4); !lb.TooLarge {
		t.Fatal("10-byte body under a 4-byte bound not flagged too large")
	}
}
