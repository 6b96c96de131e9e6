package main

// Spans recorded from outside the simulator: the benchmark opens one
// around each of its own calls into a layer's public functions, so a
// traced run needs no instrumentation inside the program. Spans are
// kept in memory and written out (optionally) when the run ends.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer.
type span struct {
	Name  string `json:"name"`
	Layer string `json:"layer"`
	// Start and End are nanoseconds since the tracer's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Parent is the index of the enclosing span, -1 for a root.
	Parent int `json:"parent"`
	// Unit is the unit's index within its batch, -1 for non-unit spans.
	Unit int `json:"unit"`
	// Worker is the worker goroutine that ran a unit, -1 otherwise.
	Worker int `json:"worker"`
}

// tracer collects spans from any goroutine. A nil tracer records
// nothing, which is how untraced runs pay for none of it.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// ns converts a wall-clock instant to nanoseconds since the epoch.
func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// open starts a span and returns its index (-1 on a nil tracer).
func (t *tracer) open(name, layer string, parent int) int {
	if t == nil {
		return -1
	}
	start := t.ns(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: start, Parent: parent, Unit: -1, Worker: -1})
	return len(t.spans) - 1
}

// close ends the span open returned.
func (t *tracer) close(id int) {
	if t == nil || id < 0 {
		return
	}
	end := t.ns(time.Now())
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// unit records a unit that ran on a worker over [start, end).
func (t *tracer) unit(name, layer string, parent, unit, worker int, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, Layer: layer, Start: t.ns(start), End: t.ns(end), Parent: parent, Unit: unit, Worker: worker}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// phase runs fn inside a span.
func (t *tracer) phase(name, layer string, parent int, fn func()) {
	id := t.open(name, layer, parent)
	fn()
	t.close(id)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children on parallel workers
// overlap, so the covered part is the union of their intervals.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := int64(0)
		lo, hi := int64(0), int64(-1) // the merged interval being extended
		for _, k := range kids {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b <= a {
				continue
			}
			if a > hi {
				if hi > lo {
					covered += hi - lo
				}
				lo, hi = a, b
			} else if b > hi {
				hi = b
			}
		}
		if hi > lo {
			covered += hi - lo
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerSelf sums self time per layer, in seconds.
func layerSelf(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i, d := range selfTimes(spans) {
		out[spans[i].Layer] += float64(d) / 1e9
	}
	return out
}

// rootsCover checks that the root spans' self times plus their direct
// children's durations add up to the roots' wall time, within tol. A
// child that leaks outside its parent or overlaps a serial sibling
// breaks the sum; it is how a run proves its own span accounting.
func rootsCover(spans []span, tol float64) error {
	self := selfTimes(spans)
	var wall, sum int64
	for i, s := range spans {
		switch {
		case s.Parent < 0:
			wall += s.End - s.Start
			sum += self[i]
		case spans[s.Parent].Parent < 0:
			sum += s.End - s.Start
		}
	}
	if wall <= 0 {
		return fmt.Errorf("trace: no timed root spans")
	}
	if gap := float64(sum-wall) / float64(wall); gap > tol || gap < -tol {
		return fmt.Errorf("trace: top-level self times sum to %.3fs against %.3fs of wall time", float64(sum)/1e9, float64(wall)/1e9)
	}
	return nil
}

// writeSpans writes the spans as one JSON array.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	return f.Close()
}
