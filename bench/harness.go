package main

import (
	"io"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"csmabw/internal/runner"
	"csmabw/internal/scenario"
)

// recheckEvery is the stride of the fresh-engine recheck: unit k of a
// cell is recomputed on a fresh engine when k is a multiple of it.
const recheckEvery = 64

// size is the fixed work one round does. Tests shrink it; the command
// line always runs fullSize.
type size struct {
	// Reps is the replications per cell (train workloads) or per policy
	// (pathsel) in one generation, the serial replications per cell in
	// the mac and probe replays, and the runs of the pathsel replay.
	Reps int
	// Campaign is the campaign file campaign-fleet runs each pass.
	Campaign string
}

// fullSize is the size every command-line run uses: 200 replications
// per generation is experiments.Default().Reps.
var fullSize = size{Reps: 200, Campaign: "bench/testdata/campaign-fleet.json"}

// env is what every workload shares.
type env struct {
	// root is the checkout root input files are read from.
	root string
	// scratch is a directory for campaign logs, removed by the caller.
	scratch string
	seed    int64
	workers int
	size    size
	// tr records spans; nil in untraced runs.
	tr *tracer
}

// workload is one benchmark input set.
type workload interface {
	// setup compiles the inputs, plans the work and warms every worker.
	// It runs several times; the last run's state is used.
	setup() error
	// round runs round r's fixed work, opening spans under parent.
	round(r, parent int) (roundStats, error)
	// check verifies the outputs of the round just run. It runs outside
	// the timed window; for round 0, h is non-nil and receives the
	// round's deterministic outputs.
	check(r int, h io.Writer) error
	// latency returns the round just run's unit latencies, per cell.
	latency() []cellLatency
	// deterministic returns round 0's seed-determined summary values.
	deterministic() map[string]float64
	// cells returns the measured cells the layer replays run.
	cells() []replayCell
	// campaignFile returns the campaign file whose pass 0 the campaign
	// and estimate replays run, relative to the checkout root or
	// absolute.
	campaignFile() (string, error)
}

// cellLatency is one cell's unit latencies over one round: the unit
// times themselves where the benchmark timed each unit, otherwise the
// round's unit count and percentiles, in ms, from a runner.Meter.
type cellLatency struct {
	name     string
	durs     []time.Duration
	units    int
	p50, p99 float64
}

// roundStats counts one round's work.
type roundStats struct {
	units, pkts, failed int
	batches             []batch
}

// batch is one runner.MapBatches call's occupancy: wall time, summed
// unit service time, the workers it ran on and its units, and the tail
// from the first worker's last unit finishing to the last worker's.
type batch struct {
	wall, busy, tail time.Duration
	workers, units   int
}

// replayCell is one measured cell the layer replays run serially.
type replayCell struct {
	name string
	// path is the spec file, relative to the checkout root.
	path string
	// comp is the compiled cell with its link reseeded from -seed and
	// its probing plan set to the train the replays send.
	comp *scenario.Compiled
}

// workerPool hands each goroutine runner.MapBatches starts its own
// long-lived state, so engines stay warm from one batch to the next.
// MapBatches builds one state per goroutine before that goroutine runs
// any unit; the pool's counter is reset before every call.
type workerPool[W any] struct {
	states []W
	next   atomic.Int64
}

// poolWorker is one goroutine's state and its index for spans.
type poolWorker[W any] struct {
	id    int
	state W
}

func (p *workerPool[W]) take() poolWorker[W] {
	i := int(p.next.Add(1) - 1)
	return poolWorker[W]{id: i, state: p.states[i]}
}

// mapUnits runs n units through runner.MapBatches on the pool's
// workers, claiming chunk units at a time (0 = the runner's default),
// and times each one; in traced runs each unit becomes a span under a
// runner.MapBatches span.
func mapUnits[W, T any](e *env, p *workerPool[W], parent int, name, layer string, n, chunk int,
	fn func(w W, i int) (T, error)) ([]T, []time.Duration, batch, error) {
	p.next.Store(0)
	id := e.tr.open("runner.MapBatches", "runner", parent)
	durs := make([]time.Duration, n)
	// lastEnd[k] is written only by worker k, and read once MapBatches
	// has waited for every worker.
	lastEnd := make([]time.Time, len(p.states))
	t0 := time.Now()
	out, err := runner.MapBatches(n, len(p.states), chunk, p.take, func(w poolWorker[W], i int) (T, error) {
		start := time.Now()
		v, err := fn(w.state, i)
		end := time.Now()
		durs[i] = end.Sub(start)
		lastEnd[w.id] = end
		e.tr.unit(name, layer, id, i, w.id, start, end)
		return v, err
	})
	b := batch{wall: time.Since(t0), workers: min(len(p.states), n), units: n}
	e.tr.close(id)
	for _, d := range durs {
		b.busy += d
	}
	var first, last time.Time
	for _, t := range lastEnd {
		if t.IsZero() {
			continue
		}
		if first.IsZero() || t.Before(first) {
			first = t
		}
		if t.After(last) {
			last = t
		}
	}
	b.tail = last.Sub(first)
	return out, durs, b, err
}

// occupancy condenses batches into the runner layer's metrics: the
// busy share of worker time, the worker time left idle per unit, and
// the mean tail per batch.
func occupancy(bs []batch) (util, overheadUsPerUnit, tailMs float64) {
	var busy, capacity, tail float64
	units := 0
	for _, b := range bs {
		busy += b.busy.Seconds()
		capacity += b.wall.Seconds() * float64(b.workers)
		tail += b.tail.Seconds()
		units += b.units
	}
	if capacity == 0 || units == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	return busy / capacity, (capacity - busy) * 1e6 / float64(units), tail * 1e3 / float64(len(bs))
}

// median returns the middle value (mean of the two middle ones for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// finite maps NaN and ±Inf to 0, as campaign records store them.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
