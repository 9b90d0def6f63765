package main

// The host of a small virtual machine lends it processor speed that
// drifts by tens of percent within minutes, and the program under test
// (garbage-collected, allocation-heavy, and on corpus_sweep running one
// worker per processor) is at least as sensitive to it as most code.
// Every timed slice of a workload is therefore bracketed by a
// calibration: a fixed amount of work in the benchmark's own process,
// one share per processor, which depends on the host only, never on the
// program. A time measured in the slice is scaled by how much slower or
// faster than nominal the calibrations around it ran; the metrics
// report these reference-speed times (see MAP.json).

import (
	"crypto/sha256"
	"runtime"
	"slices"
	"sync"
	"time"
)

// calibBlock is hashed by every calibration: small enough to stay in
// each processor's caches.
var calibBlock = make([]byte, 64<<10)

// calibNominal is the calibration's time at reference speed: about its
// median on the 2-vCPU host the baseline in MAP.json was measured on.
const calibNominal = 4 * time.Millisecond

// calibrate times the fixed work three times and returns the median, so
// that one interruption does not count as a slow host.
func calibrate() time.Duration {
	var ds [3]time.Duration
	for i := range ds {
		ds[i] = hashOnEveryProcessor()
	}
	slices.Sort(ds[:])
	return ds[1]
}

// hashOnEveryProcessor times the fixed work: one goroutine per
// processor hashes calibBlock 64 times, so a processor the host slows
// down slows the calibration too.
func hashOnEveryProcessor() time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for p := 0; p < runtime.NumCPU(); p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := sha256.New()
			for i := 0; i < 64; i++ {
				h.Write(calibBlock)
			}
			h.Sum(nil)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// refClock scales times measured between calibrations to reference
// speed. Nothing else may run while it calibrates.
type refClock struct{ last time.Duration }

func newRefClock() *refClock {
	runtime.GC()
	return &refClock{last: calibrate()}
}

// factor calibrates again and returns the factor that scales a time
// measured since the previous calibration to reference speed: nominal
// over the mean of the two calibrations around it. It collects this
// process's garbage first, so that no collection runs beside the
// calibration.
func (c *refClock) factor() float64 {
	runtime.GC()
	now := calibrate()
	f := float64(calibNominal) / (float64(c.last+now) / 2)
	c.last = now
	return f
}
