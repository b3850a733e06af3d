package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// recorder keeps the benchmark's own spans in memory: one per call into a
// layer, with its parent, written out when the run ends. It is separate
// from the program's obs.Trace on purpose: the benchmark times the
// program's public functions from outside and must not add stage names to
// the program's closed taxonomy. A nil *recorder records nothing, so the
// untraced path runs the same code with tracing off.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	Name       string
	Parent     int // index of the parent span, -1 for a root
	Start, End time.Duration
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span under parent (-1 for a root) and returns its id.
func (r *recorder) start(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: now, End: -1})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
}

// do runs fn inside a span named name under parent.
func (r *recorder) do(name string, parent int, fn func()) {
	id := r.start(name, parent)
	fn()
	r.end(id)
}

// dur returns the total duration of the closed spans named name.
func (r *recorder) dur(name string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total time.Duration
	for _, s := range r.spans {
		if s.Name == name && s.End >= 0 {
			total += s.End - s.Start
		}
	}
	return total
}

// selfTime is span id's duration minus the part of it its direct
// children cover (overlapping children counted once).
func (r *recorder) selfTime(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	root := r.spans[id]
	var kids [][2]time.Duration
	for _, s := range r.spans {
		if s.Parent == id && s.End >= 0 {
			kids = append(kids, [2]time.Duration{max(s.Start, root.Start), min(s.End, root.End)})
		}
	}
	return (root.End - root.Start) - unionLen(kids)
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE time.Duration
	open := false
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if !open || x[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = x[0], x[1], true
			continue
		}
		if x[1] > curE {
			curE = x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// busy accumulates time spent inside one layer's calls from many
// goroutines at once, where spans per call would be too many to keep.
type busy struct{ ns atomic.Int64 }

// time runs fn and adds its duration.
func (b *busy) time(fn func()) {
	t := time.Now()
	fn()
	b.ns.Add(int64(time.Since(t)))
}

func (b *busy) add(d time.Duration) { b.ns.Add(int64(d)) }

func (b *busy) ms() float64 { return float64(b.ns.Load()) / 1e6 }
