package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"time"

	"csmabw/internal/experiments"
	"csmabw/internal/pathsel"
	"csmabw/internal/sim"
)

// pathselFiles are the selection-regret fixture's three upstreams, in
// the fixture's path order: degrading, backup, decoy.
var pathselFiles = []string{
	"bench/testdata/pathsel-degrading.json",
	"bench/testdata/pathsel-backup.json",
	"bench/testdata/pathsel-decoy.json",
}

// pathselWorkload runs, every round, one generation of the
// selection-regret figure: every policy for Reps replications, then the
// cumulative-regret reduction.
type pathselWorkload struct {
	e      *env
	params experiments.PathselParams
	rcells []replayCell
	cfgs   []pathsel.Config // one per policy
	durs   []time.Duration  // unit times of the latest round
	pool   workerPool[*pathsel.Meter]
	// results holds the latest generation, unit u = policy*Reps + rep.
	results []*pathsel.Result
	regret  [][]float64 // per policy, mean cumulative regret per epoch
	det     map[string]float64
}

// pathselFixture returns the registry fixture rooted at seed, with its
// upstreams compiled from the benchmark's spec files: path p carries
// seed + p*977, as experiments.DefaultPathsel's built-in paths do.
func pathselFixture(e *env, seed int64) (experiments.PathselParams, []replayCell, error) {
	p := experiments.DefaultPathsel()
	p.Seed = seed
	var cells []replayCell
	for i, f := range pathselFiles {
		rc, err := compileTrainCell(e, i, trainSpec{path: f, n: p.TrainLen, rate: p.RateBps})
		if err != nil {
			return p, nil, err
		}
		rc.comp.Link.Seed = seed + int64(i)*977
		rc.comp.Link.Workers = 0
		p.Upstreams = append(p.Upstreams, rc.comp.Link)
		cells = append(cells, rc)
	}
	return p, cells, nil
}

// pathselConfig is the run configuration SelectionRegret uses for a
// policy.
func pathselConfig(p experiments.PathselParams, pol pathsel.Policy) pathsel.Config {
	return pathsel.Config{
		Paths:        p.Upstreams,
		Epochs:       p.Epochs,
		EpochSeconds: p.EpochSeconds,
		TrainLen:     p.TrainLen,
		RateBps:      p.RateBps,
		Policy:       pol,
		Alpha:        p.Alpha,
		Hysteresis:   p.Hysteresis,
		Explore:      p.Explore,
	}
}

func (w *pathselWorkload) setup() error {
	var err error
	w.params, w.rcells, err = pathselFixture(w.e, sim.NewStream(w.e.seed).Child(0).Seed())
	if err != nil {
		return err
	}
	w.cfgs = nil
	for _, pol := range w.params.Policies {
		w.cfgs = append(w.cfgs, pathselConfig(w.params, pol))
	}
	w.pool.states = make([]*pathsel.Meter, w.e.workers)
	for k := range w.pool.states {
		m := &pathsel.Meter{}
		for _, cfg := range w.cfgs {
			if _, err := pathsel.Run(cfg, 0, m); err != nil {
				return fmt.Errorf("pathsel warm-up: %w", err)
			}
		}
		w.pool.states[k] = m
	}
	return nil
}

func (w *pathselWorkload) round(r, parent int) (roundStats, error) {
	reps := w.e.size.Reps
	res, durs, b, err := mapUnits(w.e, &w.pool, parent, "pathsel.Run", "pathsel", len(w.cfgs)*reps, 0,
		func(m *pathsel.Meter, u int) (*pathsel.Result, error) {
			return pathsel.Run(w.cfgs[u/reps], r*reps+u%reps, m)
		})
	if err != nil {
		return roundStats{}, err
	}
	w.results, w.durs = res, durs
	w.e.tr.phase("regret", "bench", parent, func() { w.regret = cumulativeRegret(res, len(w.cfgs), w.params.Epochs) })
	p := w.params
	return roundStats{
		units:   len(res),
		pkts:    len(res) * p.Epochs * len(p.Upstreams) * p.TrainLen,
		batches: []batch{b},
	}, nil
}

// cumulativeRegret is SelectionRegret's reduction: per policy, the mean
// over replications of the regret accumulated up to each epoch, in
// Mb/s·epochs. Unit u belongs to policy u / (len(res)/policies).
func cumulativeRegret(res []*pathsel.Result, policies, epochs int) [][]float64 {
	reps := len(res) / policies
	out := make([][]float64, policies)
	for pol := range out {
		cum := make([]float64, epochs)
		for _, rr := range res[pol*reps : (pol+1)*reps] {
			run := 0.0
			for k, ep := range rr.Epochs {
				run += ep.RegretBps / 1e6
				cum[k] += run
			}
		}
		for k := range cum {
			cum[k] /= float64(reps)
		}
		out[pol] = cum
	}
	return out
}

func (w *pathselWorkload) check(r int, h io.Writer) error {
	reps := w.e.size.Reps
	for u, got := range w.results {
		rep := r*reps + u%reps
		if len(got.Epochs) != w.params.Epochs {
			return fmt.Errorf("pathsel unit %d: %d epochs, want %d", u, len(got.Epochs), w.params.Epochs)
		}
		if rep%recheckEvery != 0 {
			continue
		}
		want, err := pathsel.Run(w.cfgs[u/reps], rep, nil)
		if err != nil {
			return fmt.Errorf("pathsel rep %d on fresh engines: %w", rep, err)
		}
		if !reflect.DeepEqual(want, got) {
			return fmt.Errorf("pathsel policy %d rep %d differs from the same run on fresh engines", u/reps, rep)
		}
	}
	if h != nil {
		var buf [8]byte
		for _, rr := range w.results {
			for _, ep := range rr.Epochs {
				binary.LittleEndian.PutUint64(buf[:], uint64(ep.Selected))
				h.Write(buf[:])
				hashFloats(h, ep.Scores, []float64{ep.DeliveredBps, ep.BestBps, ep.RegretBps})
			}
		}
		final, switches := 0.0, 0
		for _, cum := range w.regret {
			hashFloats(h, cum)
			final += cum[len(cum)-1] / float64(len(w.regret))
		}
		for _, rr := range w.results {
			switches += rr.Switches
		}
		w.det = map[string]float64{
			"regret_mbps_epochs": final,
			"switches_per_run":   float64(switches) / float64(len(w.results)),
		}
	}
	return nil
}

func (w *pathselWorkload) latency() []cellLatency {
	reps := w.e.size.Reps
	out := make([]cellLatency, len(w.cfgs))
	for i, pol := range w.params.Policies {
		out[i] = cellLatency{name: string(pol), durs: w.durs[i*reps : (i+1)*reps]}
	}
	return out
}

func (w *pathselWorkload) deterministic() map[string]float64 { return w.det }

func (w *pathselWorkload) cells() []replayCell { return w.rcells }

func (w *pathselWorkload) campaignFile() (string, error) { return writeCellCampaign(w.e, w.rcells) }
