package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one traced interval: a call into a layer made by the
// benchmark, or a layer of the modelled call tree (see roundSelfTimes).
// Times are offsets from the tracer's start. Parent 0 means a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Run    string        `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
// It is used from one goroutine.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(name string, parent int) int { return t.add(name, parent, time.Since(t.t0), 0) }

// end closes the span.
func (t *tracer) end(id int) { t.spans[id-1].End = time.Since(t.t0) }

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent int, fn func()) time.Duration {
	id := t.begin(name, parent)
	fn()
	t.end(id)
	return t.spans[id-1].dur()
}

// add records a span with given bounds and returns its ID.
func (t *tracer) add(name string, parent int, start, end time.Duration) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: start, End: end})
	return id
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, s.dur())
		}
	}
	return ds
}

// medianDur is the median duration of the spans with the given name.
func (t *tracer) medianDur(name string) time.Duration { return medianOf(t.durations(name)) }

// selfTime is a span's duration minus the part of its interval that
// its children cover; overlapping children count once.
func selfTime(spans []span, id int) time.Duration {
	var parent span
	var kids [][2]time.Duration
	for _, s := range spans {
		if s.ID == id {
			parent = s
		}
	}
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		lo, hi := max(s.Start, parent.Start), min(s.End, parent.End)
		if hi > lo {
			kids = append(kids, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	var covered time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, k := range kids {
		switch {
		case !open:
			curLo, curHi, open = k[0], k[1], true
		case k[0] <= curHi:
			curHi = max(curHi, k[1])
		default:
			covered += curHi - curLo
			curLo, curHi = k[0], k[1]
		}
	}
	if open {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}

// roundSelfTimes gives the layers' self times, round by round. The
// benchmark calls each layer separately, so their spans are siblings
// under a "round" span; here each round's calls are re-recorded as the
// call tree they form in the program — a layer's call contains the
// call of the layer below it (layers lists the outermost first) — with
// all of them starting together. A layer's self time in that modelled
// tree is its duration minus its callee's, or 0 when noise makes the
// callee the longer of the two. Rounds missing a layer are skipped.
func (t *tracer) roundSelfTimes(layers []string) map[string][]time.Duration {
	self := make(map[string][]time.Duration, len(layers))
	n := len(t.spans)
	for _, round := range t.spans[:n] {
		if round.Name != "round" {
			continue
		}
		durs := make([]time.Duration, len(layers))
		found := 0
		for _, s := range t.spans[:n] {
			if s.Parent != round.ID {
				continue
			}
			for i, name := range layers {
				if s.Name == name && durs[i] == 0 {
					durs[i] = s.dur()
					found++
				}
			}
		}
		if found != len(layers) {
			continue
		}
		ids := make([]int, len(layers))
		parent := 0
		for i, name := range layers {
			ids[i] = t.add("model."+name, parent, round.Start, round.Start+durs[i])
			parent = ids[i]
		}
		for i, name := range layers {
			self[name] = append(self[name], selfTime(t.spans, ids[i]))
		}
	}
	return self
}

// medianOf is the median of durations.
func medianOf(ds []time.Duration) time.Duration {
	fs := make([]float64, len(ds))
	for i, d := range ds {
		fs[i] = float64(d)
	}
	return time.Duration(median(fs))
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
