package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles is the ladder tail picks from, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest percentile of the ladder that has at least
// ten samples beyond it (nearest rank), with that percentile. Below
// the ladder it returns the sample with exactly ten beyond it, as long
// as that sample is not below the median; with fewer samples, the
// maximum (percentile 100).
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailPercentiles {
		idx := int(math.Ceil(p*float64(n)/100-1e-9)) - 1 // nearest rank, float-safe
		if n-1-idx >= 10 {
			return s[idx], p
		}
	}
	if n-11 < (n-1)/2 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// ms and secs convert durations for reporting.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64   { return float64(d) / float64(time.Microsecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// latencies collects operation times in ms.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, ms(d)) }

// report records the median and the tail as metrics.
func (l latencies) report(o *outcome, prefix string) {
	o.metrics[prefix+"_p50_ms"] = median(l)
	o.metrics[prefix+"_tail_ms"] = l.tail(o, prefix)
}

// tail returns the tail latency and records the sample count and the
// tail's percentile.
func (l latencies) tail(o *outcome, prefix string) float64 {
	t, pct := tail(l)
	o.samples[prefix+"_samples"] = len(l)
	o.samples[prefix+"_tail_percentile"] = pct
	return t
}
