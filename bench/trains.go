package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"time"

	"csmabw/internal/core"
	"csmabw/internal/experiments"
	"csmabw/internal/probe"
	"csmabw/internal/scenario"
	"csmabw/internal/sim"
	"csmabw/internal/stats"
)

// trainSpec names one train cell: a scenario file and, when n > 0, the
// train that overrides the file's own probing plan. ks marks the cells
// whose figure tests each leading packet index against the steady
// pool (Figs 8 and 9); every cell's reduction has the rest.
type trainSpec struct {
	path string
	n    int
	rate float64
	ks   bool
}

// paperCells are the paper's Figure 6, 8 and 9 cells.
var paperCells = []trainSpec{
	{path: "scenarios/paper-baseline.json"},
	{path: "bench/testdata/fig08-cell.json", ks: true},
	{path: "bench/testdata/fig09-cell.json", ks: true},
}

// imperfectCells send one train shape (300 packets at 6 Mb/s) through
// three library cells whose mac work is not the single-domain path:
// hidden stations with RTS and capture, a 13-station cell, and 5% FER.
var imperfectCells = []trainSpec{
	{path: "scenarios/hidden-warehouse.json", n: 300, rate: 6e6},
	{path: "scenarios/dense-stadium.json", n: 300, rate: 6e6},
	{path: "scenarios/lossy-fer-cell.json", n: 300, rate: 6e6},
}

// trainCell is one compiled cell with its plan and latest generation.
type trainCell struct {
	replayCell
	link    probe.Link
	ks      bool
	plan    *probe.TrainPlan
	durs    []time.Duration
	samples []probe.TrainSample
	gen     genSummary
}

// trainWorkload runs, every round, one generation of train
// replications per cell, each followed by the figure reductions.
type trainWorkload struct {
	e      *env
	specs  []trainSpec
	tcells []*trainCell
	// pool holds one meter per cell for each worker.
	pool workerPool[[]*probe.TrainMeter]
	det  map[string]float64
}

// compileTrainCell compiles spec i, reseeds its link from the run's
// seed and sets its probing plan to the train the cell sends.
func compileTrainCell(e *env, i int, s trainSpec) (replayCell, error) {
	comp, err := scenario.CompileFile(filepath.Join(e.root, s.path))
	if err != nil {
		return replayCell{}, err
	}
	if s.n > 0 {
		comp.Probing = scenario.Probing{Plan: scenario.PlanTrain, TrainLen: s.n, RateBps: s.rate}
	}
	if comp.Probing.Plan != scenario.PlanTrain || comp.Probing.RateBps <= 0 {
		return replayCell{}, fmt.Errorf("%s: want a train plan with a positive rate, got %+v", s.path, comp.Probing)
	}
	comp.Link.Seed = sim.NewStream(e.seed).Child(uint64(i)).Seed()
	comp.Link.Workers = 1
	return replayCell{name: comp.Name, path: s.path, comp: comp}, nil
}

func (w *trainWorkload) setup() error {
	w.tcells = nil
	for i, s := range w.specs {
		rc, err := compileTrainCell(w.e, i, s)
		if err != nil {
			return err
		}
		c := &trainCell{replayCell: rc, link: rc.comp.Link, ks: s.ks}
		if c.plan, err = probe.PlanTrain(c.link, rc.comp.Probing.TrainLen, rc.comp.Probing.RateBps); err != nil {
			return fmt.Errorf("%s: %w", s.path, err)
		}
		w.tcells = append(w.tcells, c)
	}
	w.pool.states = make([][]*probe.TrainMeter, w.e.workers)
	for k := range w.pool.states {
		for _, c := range w.tcells {
			m := &probe.TrainMeter{}
			if _, err := c.plan.MeasureOne(m, 0); err != nil {
				return fmt.Errorf("%s: warm-up: %w", c.name, err)
			}
			w.pool.states[k] = append(w.pool.states[k], m)
		}
	}
	return nil
}

func (w *trainWorkload) round(r, parent int) (roundStats, error) {
	var rs roundStats
	reps := w.e.size.Reps
	for ci, c := range w.tcells {
		samples, durs, b, err := mapUnits(w.e, &w.pool, parent, "probe.MeasureOne", "probe", reps, 0,
			func(ms []*probe.TrainMeter, i int) (probe.TrainSample, error) {
				return c.plan.MeasureOne(ms[ci], r*reps+i)
			})
		if err != nil {
			return rs, fmt.Errorf("%s: %w", c.name, err)
		}
		rs.batches = append(rs.batches, b)
		c.samples, c.durs = samples, durs
		if c.gen, _, err = reduceGen(w.e.tr, parent, samples, c.comp.Probing.TrainLen, c.link.WithDefaults().ProbeSize, c.ks); err != nil {
			return rs, fmt.Errorf("%s: %w", c.name, err)
		}
		for _, s := range samples {
			rs.units++
			rs.pkts += s.Injected
			if s.Truncated || s.Delivered < 2 {
				rs.failed++
			}
		}
	}
	return rs, nil
}

func (w *trainWorkload) check(r int, h io.Writer) error {
	reps := w.e.size.Reps
	for _, c := range w.tcells {
		n, rate := c.comp.Probing.TrainLen, c.comp.Probing.RateBps
		for i, s := range c.samples {
			rep := r*reps + i
			if err := trainInvariants(s, n); err != nil {
				return fmt.Errorf("%s rep %d: %w", c.name, rep, err)
			}
			if rep%recheckEvery == 0 {
				if err := recheckTrain(c.link, n, rate, rep, s); err != nil {
					return fmt.Errorf("%s: %w", c.name, err)
				}
			}
		}
		if h != nil {
			for _, s := range c.samples {
				hashTrain(h, s)
			}
			hashFloats(h, c.gen.means, c.gen.ks, []float64{c.gen.meanGO, c.gen.rate, c.gen.mser})
			if w.det == nil {
				w.det = map[string]float64{}
			}
			w.det[c.name+".mean_go_ms"] = c.gen.meanGO * 1e3
			w.det[c.name+".rate_mbps"] = c.gen.rate / 1e6
			w.det[c.name+".mser_gap_ms"] = c.gen.mser * 1e3
		}
	}
	return nil
}

func (w *trainWorkload) latency() []cellLatency {
	out := make([]cellLatency, len(w.tcells))
	for i, c := range w.tcells {
		out[i] = cellLatency{name: c.name, durs: c.durs}
	}
	return out
}

func (w *trainWorkload) deterministic() map[string]float64 { return w.det }

func (w *trainWorkload) cells() []replayCell {
	out := make([]replayCell, len(w.tcells))
	for i, c := range w.tcells {
		out[i] = c.replayCell
	}
	return out
}

func (w *trainWorkload) campaignFile() (string, error) { return writeCellCampaign(w.e, w.cells()) }

// trainInvariants checks what every train sample must satisfy whatever
// the cell: delivered departures in index order, positive finite access
// delays, dropped packets marked consistently, and Delivered <=
// Injected <= n.
func trainInvariants(s probe.TrainSample, n int) error {
	if len(s.Departures) != n || len(s.AccessDelays) != n {
		return fmt.Errorf("sample has %d departures and %d delays for a %d-packet train", len(s.Departures), len(s.AccessDelays), n)
	}
	if s.Delivered > s.Injected || s.Injected > n || s.Delivered < 0 {
		return fmt.Errorf("delivered %d, injected %d of %d", s.Delivered, s.Injected, n)
	}
	delivered := 0
	last := sim.Time(-1)
	for i, d := range s.Departures {
		a := s.AccessDelays[i]
		if d < 0 {
			if d != -1 || a != -1 {
				return fmt.Errorf("packet %d: dropped with departure %v and delay %g", i, d, a)
			}
			continue
		}
		if d < last {
			return fmt.Errorf("packet %d departs at %v, before packet earlier in the train at %v", i, d, last)
		}
		if !(a > 0) || math.IsInf(a, 0) {
			return fmt.Errorf("packet %d: access delay %g", i, a)
		}
		last = d
		delivered++
	}
	if delivered != s.Delivered {
		return fmt.Errorf("%d departures recorded, sample says %d delivered", delivered, s.Delivered)
	}
	return nil
}

// recheckTrain recomputes replication rep on a fresh engine and
// requires the reused-engine sample to equal it.
func recheckTrain(l probe.Link, n int, rate float64, rep int, got probe.TrainSample) error {
	want, err := probe.MeasureTrainOne(l, n, rate, rep)
	if err != nil {
		return fmt.Errorf("rep %d on a fresh engine: %w", rep, err)
	}
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("rep %d differs from the same replication on a fresh engine", rep)
	}
	return nil
}

// genSummary is one generation's figure reductions.
type genSummary struct {
	// means is the mean access delay per packet index, seconds (Fig 6).
	means []float64
	// ks is the KS statistic of each leading index against the steady
	// pool (Figs 8 and 9).
	ks []float64
	// meanGO is E[gO] in seconds and rate is L/E[gO] in bit/s.
	meanGO, rate float64
	// mser is the MSER-2 corrected mean output gap, seconds (Fig 17).
	mser float64
}

// genTimes is how long each layer's share of a reduction took.
type genTimes struct {
	probe, means, ks, mser time.Duration
}

// reduceGen runs the figure reductions over one generation of n-packet
// trains of size-byte probes, the per-index KS tests only when ks is
// set, timing each layer's part and, when tr is set, recording it as a
// span under parent.
func reduceGen(tr *tracer, parent int, samples []probe.TrainSample, n, size int, ks bool) (genSummary, genTimes, error) {
	var g genSummary
	var t genTimes
	var err error
	step := func(name, layer string, d *time.Duration, fn func()) {
		id := tr.open(name, layer, parent)
		t0 := time.Now()
		fn()
		*d = time.Since(t0)
		tr.close(id)
	}
	var delays, queues, gaps [][]float64
	step("probe.TrainStats", "probe", &t.probe, func() {
		ts := &probe.TrainStats{N: n, L: size, Reps: len(samples), Samples: samples}
		delays, queues, gaps = ts.DelaysByIndex(), ts.QueueByIndex(), ts.InterDepartureGaps()
		g.meanGO = ts.MeanGO()
		g.rate, err = ts.RateEstimate()
	})
	if err != nil {
		return g, t, err
	}
	step("stats.RunningMeans", "stats", &t.means, func() {
		g.means = stats.RunningMeans(delays)
		if len(queues) > 0 && len(queues[0]) > 0 {
			g.means = append(g.means, stats.RunningMeans(queues)...)
		}
	})
	if ks {
		step("stats.KSTwoSampleInterpECDF", "stats", &t.ks, func() {
			opt := experiments.DefaultKSOptions(n)
			opt.Packets = min(opt.Packets, n)
			tail := stats.Tail(delays, opt.TailFrom)
			if len(tail) == 0 {
				err = fmt.Errorf("empty steady-state pool")
				return
			}
			ecdf := stats.NewECDF(tail)
			for i := 0; i < opt.Packets; i++ {
				if col := stats.Column(delays, i); len(col) > 0 {
					g.ks = append(g.ks, stats.KSTwoSampleInterpECDF(col, ecdf, opt.Alpha).D)
				}
			}
		})
		if err != nil {
			return g, t, err
		}
	}
	step("core.CorrectedGapByPosition", "core", &t.mser, func() {
		usable := gaps[:0]
		for _, row := range gaps {
			if len(row) >= 2 {
				usable = append(usable, row)
			}
		}
		if len(usable) == 0 {
			err = fmt.Errorf("no train delivered two gaps")
			return
		}
		g.mser = core.CorrectedGapByPosition(usable, 2)
	})
	return g, t, err
}

// hashTrain writes a sample's every field to h.
func hashTrain(h io.Writer, s probe.TrainSample) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, d := range s.Departures {
		put(uint64(d))
	}
	hashFloats(h, s.AccessDelays, s.QueueAtDepart)
	put(uint64(s.GO))
	put(uint64(s.Injected))
	put(uint64(s.Delivered))
	if s.Truncated {
		put(1)
	} else {
		put(0)
	}
}

// hashFloats writes each slice's length and bit patterns to h.
func hashFloats(h io.Writer, xss ...[]float64) {
	var buf [8]byte
	for _, xs := range xss {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(xs)))
		h.Write(buf[:])
		for _, x := range xs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
}
