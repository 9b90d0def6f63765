package main

// Every xnf child is started by the spawner, a second perfbench process
// started before any input is generated. On Linux a child's ru_maxrss
// starts at the peak RSS of the process it was forked from (exec
// records the replaced address space's high-water mark), so children
// forked from the benchmark itself would report the benchmark's own
// peak whenever it exceeds theirs. The spawner stays small, so the peak
// RSS it reports is the child's.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"
)

// spawnerEnv marks a perfbench process as the spawner.
const spawnerEnv = "PERFBENCH_SPAWNER"

// spawnRequest asks the spawner to run a child to completion ("run"),
// to start the server and wait for its listen address ("start"), or to
// stop the server ("stop").
type spawnRequest struct {
	Op   string   `json:"op"`
	Args []string `json:"args,omitempty"`
}

type spawnReply struct {
	WallNS   int64   `json:"wall_ns"`
	Exit     int     `json:"exit"`
	Stdout   []byte  `json:"stdout"`
	Stderr   []byte  `json:"stderr"`
	MaxRSSMB float64 `json:"max_rss_mb"`
	Addr     string  `json:"addr"`
	Err      string  `json:"err"`
}

// spawner is the benchmark's handle on the spawner process. Calls are
// serialized.
type spawner struct {
	mu    sync.Mutex
	cmd   *exec.Cmd
	stdin io.WriteCloser
	enc   *json.Encoder
	dec   *json.Decoder
}

// startSpawner starts the spawner from this program's own binary.
func startSpawner() (*spawner, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), spawnerEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start spawner: %w", err)
	}
	return &spawner{cmd: cmd, stdin: stdin, enc: json.NewEncoder(stdin), dec: json.NewDecoder(stdout)}, nil
}

func (s *spawner) call(req spawnRequest) (spawnReply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep spawnReply
	if err := s.enc.Encode(req); err != nil {
		return rep, fmt.Errorf("spawner: %w", err)
	}
	if err := s.dec.Decode(&rep); err != nil {
		return rep, fmt.Errorf("spawner: %w", err)
	}
	if rep.Err != "" {
		return rep, errors.New(rep.Err)
	}
	return rep, nil
}

// run runs a child to completion; see runChild.
func (s *spawner) run(bin string, args ...string) (invocation, error) {
	rep, err := s.call(spawnRequest{Op: "run", Args: append([]string{bin}, args...)})
	return invocation{wall: time.Duration(rep.WallNS), exit: rep.Exit, stdout: rep.Stdout, stderr: rep.Stderr, maxRSSMB: rep.MaxRSSMB}, err
}

// startServer starts "xnf serve" and returns its base URL.
func (s *spawner) startServer(bin, spec string) (string, error) {
	rep, err := s.call(spawnRequest{Op: "start", Args: []string{bin, "serve", "-addr", "127.0.0.1:0", spec}})
	return rep.Addr, err
}

// stopServer stops the server gracefully and returns its peak RSS.
func (s *spawner) stopServer() (float64, error) {
	rep, err := s.call(spawnRequest{Op: "stop"})
	return rep.MaxRSSMB, err
}

// close ends the spawner, which stops any server it still runs, and
// waits for it to exit.
func (s *spawner) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.stdin.Close()
	return s.cmd.Wait()
}

// runSpawner serves requests from in until it is closed.
func runSpawner(in io.Reader, out io.Writer) error {
	dec, enc := json.NewDecoder(in), json.NewEncoder(out)
	var srv *serverProc
	defer func() {
		if srv != nil {
			_, _ = srv.stop()
		}
	}()
	for {
		var req spawnRequest
		if err := dec.Decode(&req); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		var rep spawnReply
		var err error
		switch {
		case req.Op == "run" && len(req.Args) > 0:
			var inv invocation
			inv, err = runChild(req.Args[0], req.Args[1:]...)
			rep = spawnReply{WallNS: int64(inv.wall), Exit: inv.exit, Stdout: inv.stdout, Stderr: inv.stderr, MaxRSSMB: inv.maxRSSMB}
		case req.Op == "start" && len(req.Args) > 0 && srv == nil:
			srv, err = startServer(req.Args[0], req.Args[1:]...)
			if err == nil {
				rep.Addr = srv.base
			}
		case req.Op == "stop" && srv != nil:
			rep.MaxRSSMB, err = srv.stop()
			srv = nil
		default:
			err = fmt.Errorf("bad request %+v", req)
		}
		if err != nil {
			rep.Err = err.Error()
		}
		if err := enc.Encode(rep); err != nil {
			return err
		}
	}
}
