package experiments

import (
	"errors"
	"fmt"

	"csmabw/internal/core"
	"csmabw/internal/probe"
	"csmabw/internal/sim"
)

// TrainRRCParams configures the short-train rate response experiments
// (Figures 13 and 15): dispersion-based curves L/E[gO] vs ri for trains
// of a few packets, compared with the steady-state response.
type TrainRRCParams struct {
	TrainLens   []int // paper: 3, 10, 50
	MaxProbeBps float64
	// Cell is the measured link — channel, topology, EDCA, contending
	// and FIFO cross flows — and Cell.Seed is the figure seed. Every
	// unit measures a copy with its own seed and Workers pinned to 1.
	Cell probe.Link
}

// DefaultFig13 matches the paper's Figure 13: one 4 Mb/s contender and
// no FIFO cross-traffic.
func DefaultFig13() TrainRRCParams {
	return TrainRRCParams{
		TrainLens:   []int{3, 10, 50},
		MaxProbeBps: 10e6,
		Cell: probe.Link{
			ProbeSize:  1500,
			Contenders: []probe.Flow{{RateBps: 4e6, Size: 1500}},
			Seed:       13,
		},
	}
}

// DefaultFig15 matches Figure 15: the complete system with FIFO
// cross-traffic present.
func DefaultFig15() TrainRRCParams {
	p := DefaultFig13()
	p.Cell.Contenders = []probe.Flow{{RateBps: 2.5e6, Size: 1500}}
	p.Cell.FIFOCross = []probe.Flow{{RateBps: 1e6, Size: 1500}}
	p.Cell.Seed = 15
	return p
}

// TrainRRC produces the dispersion-inferred rate response L/E[gO] for
// each configured train length, plus the steady-state curve measured
// with long constant-rate probing. The units of work are the (curve,
// rate point) pairs: unit u measures point u%P of curve u/P, where
// curve 0 is the steady-state sweep and curve k>0 is the k-th train
// length.
func TrainRRC(id string, p TrainRRCParams, sc Scale) (*Figure, error) {
	rates := sweep(0.5e6, p.MaxProbeBps, sc.SweepPoints)
	nPoints := len(rates)
	dur := sim.FromSeconds(sc.SteadySeconds)
	type pt struct {
		ok   bool
		x, y float64
	}
	return Run(Scenario[pt]{
		Seed:  p.Cell.Seed,
		Units: nPoints * (1 + len(p.TrainLens)),
		RunOne: func(u int, _ sim.Stream) (pt, error) {
			curve, i := u/nPoints, u%nPoints
			ri := rates[i]
			if curve == 0 {
				ss, err := probe.MeasureSteadyState(unitLink(&p.Cell, p.Cell.Seed+int64(i)*37), ri, dur)
				if err != nil {
					return pt{}, err
				}
				return pt{ok: true, x: ri / 1e6, y: ss.ProbeRate / 1e6}, nil
			}
			n := p.TrainLens[curve-1]
			ts, err := probe.MeasureTrain(unitLink(&p.Cell, p.Cell.Seed+int64(n*1000+i)), n, ri, sc.Reps)
			if err != nil {
				return pt{}, err
			}
			est, err := ts.RateEstimate()
			if errors.Is(err, probe.ErrNoEstimate) {
				// No usable dispersion at this operating point: leave the
				// point out of the curve instead of plotting a bogus 0.
				return pt{}, nil
			}
			if err != nil {
				return pt{}, err
			}
			return pt{ok: true, x: ri / 1e6, y: est / 1e6}, nil
		},
		Reduce: func(pts []pt) (*Figure, error) {
			fig := &Figure{
				ID:     id,
				Title:  "Dispersion-inferred rate response of short trains vs steady state",
				XLabel: "ri (Mb/s)",
				YLabel: "L/E[gO] (Mb/s)",
			}
			for curve := 0; curve <= len(p.TrainLens); curve++ {
				s := Series{Name: "steady state"}
				if curve > 0 {
					s.Name = fmt.Sprintf("train of %d packets", p.TrainLens[curve-1])
				}
				for _, pt := range pts[curve*nPoints : (curve+1)*nPoints] {
					if !pt.ok {
						continue
					}
					s.X = append(s.X, pt.x)
					s.Y = append(s.Y, pt.y)
				}
				fig.Series = append(fig.Series, s)
			}
			return fig, nil
		},
	}, sc)
}

// Fig16Params configures the packet-pair experiment of Figure 16.
type Fig16Params struct {
	CrossRates  []float64 // swept contending cross-traffic rates, bit/s
	SaturateBps float64   // probing rate used to measure the actual response
	// Cell is the measured link the sweep runs over, and Cell.Seed is
	// the figure seed. Each level sets the first contender's rate to
	// the swept one and keeps the other contenders; at the zero level
	// that station stays in the cell as an idle flow, so a hearing graph
	// and station-targeted events still fit. A cell without contenders
	// gets a probe-sized one per nonzero level.
	Cell probe.Link
}

// DefaultFig16 sweeps cross-traffic 0..10 Mb/s as in the paper.
func DefaultFig16() Fig16Params {
	var rates []float64
	for r := 0.0; r <= 10e6; r += 1e6 {
		rates = append(rates, r)
	}
	return Fig16Params{CrossRates: rates, SaturateBps: 12e6, Cell: probe.Link{ProbeSize: 1500, Seed: 16}}
}

// levelLink is the cell of sweep level i, on its own seed.
func (p Fig16Params) levelLink(i int) probe.Link {
	cr := p.CrossRates[i]
	l := unitLink(&p.Cell, p.Cell.Seed+int64(i)*61)
	switch {
	case len(l.Contenders) > 0:
		l.Contenders[0].RateBps = cr
	case cr > 0:
		l.Contenders = []probe.Flow{sweptContender(&p.Cell, cr)}
	}
	return l
}

// Fig16PacketPair compares, for each cross-traffic level, the actual
// achievable throughput (fluid response, measured with a saturating
// long flow) against the packet-pair dispersion inference. The pair
// overestimates everywhere except at zero cross-traffic (Section 7.3).
// Each cross-traffic level is an independent unit on the worker pool.
func Fig16PacketPair(p Fig16Params, sc Scale) (*Figure, error) {
	dur := sim.FromSeconds(sc.SteadySeconds)
	type pt struct {
		x, fluid, pair float64
		pairOK         bool
	}
	return Run(Scenario[pt]{
		Seed:  p.Cell.Seed,
		Units: len(p.CrossRates),
		RunOne: func(i int, _ sim.Stream) (pt, error) {
			cr := p.CrossRates[i]
			l := p.levelLink(i)
			ss, err := probe.MeasureSteadyState(l, p.SaturateBps, dur)
			if err != nil {
				return pt{}, err
			}
			out := pt{x: cr / 1e6, fluid: ss.ProbeRate / 1e6}
			est, err := probe.MeasurePair(l, sc.Reps)
			switch {
			case errors.Is(err, probe.ErrNoEstimate):
				// The fluid point stands; the pair curve skips this level
				// instead of plotting a bogus 0 bit/s inference.
			case err != nil:
				return pt{}, err
			default:
				out.pair, out.pairOK = est/1e6, true
			}
			return out, nil
		},
		Reduce: func(pts []pt) (*Figure, error) {
			fluid := Series{Name: "fluid response (actual)"}
			pair := Series{Name: "packet pair inference"}
			for _, pt := range pts {
				fluid.X = append(fluid.X, pt.x)
				fluid.Y = append(fluid.Y, pt.fluid)
				if !pt.pairOK {
					continue
				}
				pair.X = append(pair.X, pt.x)
				pair.Y = append(pair.Y, pt.pair)
			}
			return &Figure{
				ID:     "fig16",
				Title:  "Packet-pair inference vs actual achievable throughput",
				XLabel: "cross-traffic rate (Mb/s)",
				YLabel: "achievable throughput (Mb/s)",
				Series: []Series{fluid, pair},
			}, nil
		},
	}, sc)
}

// Fig17Params configures the MSER-corrected measurement of Figure 17.
type Fig17Params struct {
	TrainLen    int // paper: 20
	MSERBatch   int // paper: MSER-2
	MaxProbeBps float64
	// Cell is the measured link, and Cell.Seed is the figure seed.
	Cell probe.Link
}

// DefaultFig17 matches the paper's 20-packet trains with MSER-2
// against one 4 Mb/s contender.
func DefaultFig17() Fig17Params {
	return Fig17Params{
		TrainLen:    20,
		MSERBatch:   2,
		MaxProbeBps: 10e6,
		Cell: probe.Link{
			ProbeSize:  1500,
			Contenders: []probe.Flow{{RateBps: 4e6, Size: 1500}},
			Seed:       17,
		},
	}
}

// Fig17MSER compares the raw 20-packet-train rate response against the
// MSER-m corrected one and the steady-state curve (Section 7.4: the
// corrected curve approaches steady state without longer trains). Each
// rate point is an independent unit on the worker pool; points whose
// trains were entirely dropped are skipped, as in the paper's ensembles.
func Fig17MSER(p Fig17Params, sc Scale) (*Figure, error) {
	rates := sweep(1e6, p.MaxProbeBps, sc.SweepPoints)
	dur := sim.FromSeconds(sc.SteadySeconds)
	type pt struct {
		ok                        bool
		x, steady, raw, corrected float64
	}
	return Run(Scenario[pt]{
		Seed:  p.Cell.Seed,
		Units: len(rates),
		RunOne: func(i int, _ sim.Stream) (pt, error) {
			ri := rates[i]
			l := unitLink(&p.Cell, p.Cell.Seed+int64(i)*41)
			ss, err := probe.MeasureSteadyState(l, ri, dur)
			if err != nil {
				return pt{}, err
			}
			ts, err := probe.MeasureTrain(l, p.TrainLen, ri, sc.Reps)
			if err != nil {
				return pt{}, err
			}
			// MSER correction applied to the ensemble: the per-position mean
			// gap series locates the transient, every train is truncated
			// there, and the remainder averaged (Section 7.4).
			raw, corrected, ok := core.TrainRates(ts.InterDepartureGaps(), ts.L, p.MSERBatch)
			if !ok {
				return pt{}, nil
			}
			return pt{ok: true, x: ri / 1e6, steady: ss.ProbeRate / 1e6, raw: raw / 1e6, corrected: corrected / 1e6}, nil
		},
		Reduce: func(pts []pt) (*Figure, error) {
			steady := Series{Name: "steady state"}
			raw := Series{Name: fmt.Sprintf("train of %d packets", p.TrainLen)}
			corrected := Series{Name: fmt.Sprintf("train of %d packets (MSER-%d)", p.TrainLen, p.MSERBatch)}
			for _, pt := range pts {
				if !pt.ok {
					continue
				}
				steady.X = append(steady.X, pt.x)
				steady.Y = append(steady.Y, pt.steady)
				raw.X = append(raw.X, pt.x)
				raw.Y = append(raw.Y, pt.raw)
				corrected.X = append(corrected.X, pt.x)
				corrected.Y = append(corrected.Y, pt.corrected)
			}
			return &Figure{
				ID:     "fig17",
				Title:  "MSER-corrected short-train measurement vs raw and steady state",
				XLabel: "ri (Mb/s)",
				YLabel: "L/E[gO] (Mb/s)",
				Series: []Series{steady, raw, corrected},
			}, nil
		},
	}, sc)
}
