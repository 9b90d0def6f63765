package distrib_test

// The cross-process differential suite: the one place the repository
// actually crosses a process boundary. Two REAL `xnf serve` worker
// processes (the built binary, fresh vertex-ID spaces, their own
// parses) each fold one fragment of every instance document, and the
// merged shipped states must be BIT-identical — canonical MarshalBinary
// bytes, not just verdict-equal — to the whole-document fold computed
// in this process. The spec puts element values on both FD sides, so
// the suite fails immediately if fold keys ever regress to anything
// process-minted. Run under -race in CI.

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xmlnorm"
	"xmlnorm/internal/distrib"
	"xmlnorm/internal/pool"
	"xmlnorm/internal/xfd"
	"xmlnorm/internal/xmltree"
)

// crossSpec has element values on LHS and RHS: r.a on a right side,
// r.a and r.a.b across both sides of the others.
const crossSpec = `<!ELEMENT r (a*)>
<!ELEMENT a (b*)>
<!ELEMENT b EMPTY>
<!ATTLIST a
    k CDATA #REQUIRED
    v CDATA #REQUIRED>
%%
r.a.@k -> r.a
r.a -> r.a.b
r.a.b, r.a.@v -> r.a.@k
`

// buildXNF builds the real CLI binary into the test's temp dir.
func buildXNF(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Skipf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		t.Skip("not in a module; cannot build xnf")
	}
	bin := filepath.Join(t.TempDir(), "xnf")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/xnf")
	cmd.Dir = filepath.Dir(gomod)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/xnf: %v\n%s", err, out)
	}
	return bin
}

// startWorkerProc launches `xnf serve` on an ephemeral port and returns
// its address, plus a kill function for the degradation test.
func startWorkerProc(t *testing.T, bin, specPath string) (addr string, kill func()) {
	t.Helper()
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", specPath)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting worker: %v", err)
	}
	var killed atomic.Bool
	kill = func() {
		if killed.CompareAndSwap(false, true) {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	}
	t.Cleanup(kill)
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			const marker = "listening on http://"
			if i := strings.Index(line, marker); i >= 0 {
				select {
				case addrCh <- line[i+len(marker):]:
				default:
				}
			}
			// Keep draining so the worker never blocks on stderr.
		}
	}()
	select {
	case a := <-addrCh:
		return a, kill
	case <-time.After(15 * time.Second):
		t.Fatal("worker process never reported its listen address")
		return "", nil
	}
}

// crossDoc renders a random instance: n <a> children with keys and
// values drawn from small domains (so both agreement and conflict are
// common) and 0–2 <b> children each (so the element-valued RHS r.a.b
// violates regularly).
func crossDoc(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("<r>")
	n := 1 + rng.Intn(10)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<a k="k%d" v="v%d">`, rng.Intn(6), rng.Intn(3))
		for j := rng.Intn(3); j > 0; j-- {
			b.WriteString("<b/>")
		}
		b.WriteString("</a>")
	}
	b.WriteString("</r>")
	return b.String()
}

// TestCrossProcessFoldBitIdentity is the acceptance suite: ≥1000
// seeded instances, each split in two, the halves folded by two
// separate worker processes, the shipped states merged here — and the
// merged canonical encoding compared byte for byte against the local
// whole-document fold. Every fold must actually have gone remote.
func TestCrossProcessFoldBitIdentity(t *testing.T) {
	instances := 1000
	if testing.Short() {
		instances = 100
	}
	bin := buildXNF(t)
	specPath := filepath.Join(t.TempDir(), "cross.spec")
	if err := os.WriteFile(specPath, []byte(crossSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := xmlnorm.ParseSpec(crossSpec)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := xfd.NewCheckerSetFor(spec.FDs)
	if err != nil {
		t.Fatal(err)
	}
	hash := distrib.SpecHash(spec.DTD, spec.FDs)

	// One coordinator per worker process, so each instance's two
	// fragments are guaranteed to be folded by DIFFERENT processes.
	coords := make([]*distrib.Coordinator, 2)
	for i := range coords {
		addr, _ := startWorkerProc(t, bin, specPath)
		coords[i], err = distrib.New(cs, hash, []string{addr},
			distrib.Options{Timeout: 30 * time.Second, Retries: 3})
		if err != nil {
			t.Fatal(err)
		}
	}

	docs := make([]string, instances)
	rng := rand.New(rand.NewSource(20020823))
	for i := range docs {
		docs[i] = crossDoc(rng)
	}
	ctx := context.Background()
	if err := pool.ForEach(8, instances, func(i int) error {
		doc, err := xmltree.ParseString(docs[i])
		if err != nil {
			return err
		}
		whole := cs.NewFoldState()
		if err := whole.FoldFragment(ctx, xfd.Fragment{Tree: doc}); err != nil {
			return err
		}
		wholeBytes, err := whole.MarshalBinary()
		if err != nil {
			return err
		}
		frags := cs.SplitFragments(doc, 2)
		states := make([]*xfd.FoldState, len(frags))
		for j, f := range frags {
			states[j] = coords[j%2].FoldFragment(ctx, f)
		}
		merged := states[0]
		for _, st := range states[1:] {
			if err := merged.Merge(st); err != nil {
				return err
			}
		}
		mergedBytes, err := merged.MarshalBinary()
		if err != nil {
			return err
		}
		if string(mergedBytes) != string(wholeBytes) {
			return fmt.Errorf("instance %d: cross-process merge is not bit-identical to the local fold\ndoc: %s", i, docs[i])
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, c := range coords {
		if st := c.Stats(); st.Local != 0 {
			t.Fatalf("coordinator %d fell back locally %d times — the suite must cross processes (stats %+v)", i, st.Local, st)
		}
	}
}

// TestCrossProcessKilledWorker pins the degradation contract across a
// real process boundary: kill one of two workers mid-suite and the
// sweep completes with identical verdicts, just more local folds.
func TestCrossProcessKilledWorker(t *testing.T) {
	bin := buildXNF(t)
	specPath := filepath.Join(t.TempDir(), "cross.spec")
	if err := os.WriteFile(specPath, []byte(crossSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := xmlnorm.ParseSpec(crossSpec)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := xfd.NewCheckerSetFor(spec.FDs)
	if err != nil {
		t.Fatal(err)
	}
	hash := distrib.SpecHash(spec.DTD, spec.FDs)
	addr1, kill1 := startWorkerProc(t, bin, specPath)
	addr2, _ := startWorkerProc(t, bin, specPath)
	coord, err := distrib.New(cs, hash, []string{addr1, addr2},
		distrib.Options{Timeout: 2 * time.Second, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(20020824))
	for i := 0; i < 60; i++ {
		if i == 20 {
			kill1() // one worker dies mid-sweep
		}
		doc, err := xmltree.ParseString(crossDoc(rng))
		if err != nil {
			t.Fatal(err)
		}
		want := cs.Violations(doc)
		got, err := coord.CheckDocument(ctx, doc, 2)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("instance %d: %d violations after kill, local says %d", i, len(got), len(want))
		}
		for j := range got {
			if !got[j].FD.Equal(want[j].FD) {
				t.Fatalf("instance %d: FD %d differs after kill", i, j)
			}
		}
	}
	if st := coord.Stats(); st.Remote == 0 {
		t.Fatalf("stats %+v: the surviving worker should still take folds", st)
	}
}
