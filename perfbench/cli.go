package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os/exec"
	"syscall"
	"time"
)

// invocationTimeout bounds one xnf invocation, so a hung child cannot
// keep the benchmark past its own time limit.
const invocationTimeout = 60 * time.Second

// invocation is one finished xnf run.
type invocation struct {
	wall     time.Duration
	exit     int
	stdout   []byte
	stderr   []byte
	maxRSSMB float64
}

// runChild runs the binary to completion and returns its wall time
// (start to exit), exit code, output and peak RSS. An error means the
// child could not be run at all or was killed; a non-zero exit is not
// an error. The spawner calls it; workloads call env.xnfRun.
func runChild(bin string, args ...string) (invocation, error) {
	ctx, cancel := context.WithTimeout(context.Background(), invocationTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	inv := invocation{wall: time.Since(start), stdout: stdout.Bytes(), stderr: stderr.Bytes()}
	var exitErr *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exitErr) && exitErr.Exited():
		inv.exit = exitErr.ExitCode()
	default:
		return inv, fmt.Errorf("xnf %v: %w (stderr: %s)", args, err, stderr.Bytes())
	}
	inv.maxRSSMB = maxRSSMB(cmd)
	return inv, nil
}

// maxRSSMB reads the finished child's peak resident set from its
// rusage (Linux reports kilobytes).
func maxRSSMB(cmd *exec.Cmd) float64 {
	if cmd.ProcessState == nil {
		return 0
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// cliRun is the end-to-end loop of the CLI workloads. The first warmups
// operations are set-up; then operations run for e.seconds, and at
// least minOps of them. op(i) runs operation i and returns it as one
// invocation (its wall time and largest peak RSS) with the work it did,
// in the workload's throughput unit. Each operation's time is scaled to
// reference speed by the calibrations around it (calibrate.go). It
// reports every end-to-end metric: medians of set-up time, peak RSS,
// work rate and op latency; the op tail goes to the provenance.
func cliRun(e *env, o *outcome, op func(i int) (invocation, float64, error)) error {
	// Write the generated inputs back now, so that the write-back does
	// not run beside the timed operations.
	syscall.Sync()
	var setups, rates, peaks, raw, factors []float64
	var lat latencies
	var deadline time.Time
	clock := newRefClock()
	for i := 0; i < warmups+minOps || time.Now().Before(deadline); i++ {
		if i == warmups {
			deadline = time.Now().Add(e.seconds)
		}
		inv, work, err := op(i)
		if err != nil {
			return err
		}
		f := clock.factor()
		wall := time.Duration(float64(inv.wall) * f)
		peaks = append(peaks, inv.maxRSSMB)
		if i < warmups {
			setups = append(setups, wall.Seconds())
			continue
		}
		lat.add(wall)
		rates = append(rates, work/wall.Seconds())
		raw = append(raw, ms(inv.wall))
		factors = append(factors, f)
	}
	o.metrics["setup_s"] = median(setups)
	o.metrics["peak_rss_mb"] = median(peaks)
	o.metrics["throughput_per_s"] = median(rates)
	o.metrics["op_p50_ms"] = median(lat)
	o.samples["op_tail_ms"] = lat.tail(o, "op")
	o.samples["op_p50_ms_unscaled"] = median(raw)
	o.samples["speed_factor_p50"] = median(factors)
	o.samples["peak_rss_mb_all"] = peaks
	return nil
}
