package experiments

import (
	"fmt"

	"csmabw/internal/core"
	"csmabw/internal/probe"
)

// TrainRRCParams configures the short-train rate response experiments
// (Figures 13 and 15): dispersion-based curves L/E[gO] vs ri for trains
// of a few packets, compared with the steady-state response.
type TrainRRCParams struct {
	TrainLens []int // paper: 3, 10, 50
	// Cell is the measured link — channel, topology, EDCA, contending
	// and FIFO cross flows — and Cell.Seed is the figure seed. Every
	// point measures a copy on its own seed.
	Cell probe.Link
}

// DefaultFig13 matches the paper's Figure 13: one 4 Mb/s contender and
// no FIFO cross-traffic.
func DefaultFig13() TrainRRCParams {
	return TrainRRCParams{
		TrainLens: []int{3, 10, 50},
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
// with long constant-rate probing, as the probing rate sweeps from
// 0.5 to 10 Mb/s. Steady point i runs on seed Cell.Seed+37i, and point
// i of the n-packet trains on Cell.Seed+1000n+i.
func TrainRRC(id string, p TrainRRCParams, sc Scale) (*Figure, error) {
	rates := sweep(0.5e6, 10e6, sc.SweepPoints)
	x := mbps(rates)
	ss, err := steady(sweepPoints(&p.Cell, rates, 0, 37), sc)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     id,
		Title:  "Dispersion-inferred rate response of short trains vs steady state",
		XLabel: "ri (Mb/s)",
		YLabel: "L/E[gO] (Mb/s)",
		Series: []Series{curve("steady state", x, ss, probeRate)},
	}
	for _, n := range p.TrainLens {
		ts, err := trains(sweepPoints(&p.Cell, rates, int64(n)*1000, 1), n, sc)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, rateCurve(fmt.Sprintf("train of %d packets", n), x, ts))
	}
	return fig, nil
}

// rateCurve is the dispersion-inferred rate L/E[gO] of each point's
// trains, in Mb/s, at x. A point with no usable dispersion is left out
// of the curve instead of plotted as a bogus 0.
func rateCurve(name string, x []float64, byPoint []probe.TrainStats) Series {
	s := Series{Name: name}
	for i := range byPoint {
		if est, err := byPoint[i].RateEstimate(); err == nil {
			s.X = append(s.X, x[i])
			s.Y = append(s.Y, est/1e6)
		}
	}
	return s
}

// Fig16Params configures the packet-pair experiment of Figure 16.
type Fig16Params struct {
	CrossRates []float64 // swept contending cross-traffic rates, bit/s
	// Cell is the measured link the sweep runs over, and Cell.Seed is
	// the figure seed. Level i is crossCell(Cell, Cell.Seed+61i, the
	// level's rate): the first contender sweeps and the others stay.
	Cell probe.Link
}

// DefaultFig16 sweeps cross-traffic 0..10 Mb/s as in the paper.
func DefaultFig16() Fig16Params {
	var rates []float64
	for r := 0.0; r <= 10e6; r += 1e6 {
		rates = append(rates, r)
	}
	return Fig16Params{CrossRates: rates, Cell: probe.Link{ProbeSize: 1500, Seed: 16}}
}

// Fig16PacketPair compares, for each cross-traffic level, the actual
// achievable throughput (fluid response, measured with a 12 Mb/s
// saturating long flow) against the packet-pair dispersion inference:
// a 2-packet train sent back to back on the same cell. The pair
// overestimates everywhere except at zero cross-traffic (Section 7.3).
func Fig16PacketPair(p Fig16Params, sc Scale) (*Figure, error) {
	saturate := make([]point, len(p.CrossRates))
	pair := make([]point, len(p.CrossRates))
	for i, cr := range p.CrossRates {
		l := crossCell(&p.Cell, p.Cell.Seed+int64(i)*61, cr)
		saturate[i], pair[i] = point{l, 12e6}, point{l, 0}
	}
	ss, err := steady(saturate, sc)
	if err != nil {
		return nil, err
	}
	pairs, err := trains(pair, 2, sc)
	if err != nil {
		return nil, err
	}
	x := mbps(p.CrossRates)
	return &Figure{
		ID:     "fig16",
		Title:  "Packet-pair inference vs actual achievable throughput",
		XLabel: "cross-traffic rate (Mb/s)",
		YLabel: "achievable throughput (Mb/s)",
		Series: []Series{
			curve("fluid response (actual)", x, ss, probeRate),
			rateCurve("packet pair inference", x, pairs),
		},
	}, nil
}

// Fig17Params configures the MSER-corrected measurement of Figure 17.
type Fig17Params struct {
	TrainLen int // paper: 20
	// Cell is the measured link, and Cell.Seed is the figure seed.
	Cell probe.Link
}

// DefaultFig17 matches the paper's 20-packet trains against one 4 Mb/s
// contender.
func DefaultFig17() Fig17Params {
	return Fig17Params{
		TrainLen: 20,
		Cell: probe.Link{
			ProbeSize:  1500,
			Contenders: []probe.Flow{{RateBps: 4e6, Size: 1500}},
			Seed:       17,
		},
	}
}

// Fig17MSER compares the raw 20-packet-train rate response against the
// MSER-2 corrected one and the steady-state curve (Section 7.4: the
// corrected curve approaches steady state without longer trains), as
// the probing rate sweeps from 1 to 10 Mb/s. Point i measures both on
// seed Cell.Seed+41i; points whose trains were entirely dropped are
// skipped, as in the paper's ensembles.
func Fig17MSER(p Fig17Params, sc Scale) (*Figure, error) {
	const mserBatch = 2 // the paper's MSER-2
	rates := sweep(1e6, 10e6, sc.SweepPoints)
	points := sweepPoints(&p.Cell, rates, 0, 41)
	ss, err := steady(points, sc)
	if err != nil {
		return nil, err
	}
	ts, err := trains(points, p.TrainLen, sc)
	if err != nil {
		return nil, err
	}
	steadyS := Series{Name: "steady state"}
	raw := Series{Name: fmt.Sprintf("train of %d packets", p.TrainLen)}
	corrected := Series{Name: fmt.Sprintf("train of %d packets (MSER-%d)", p.TrainLen, mserBatch)}
	for i, r := range rates {
		// MSER correction applied to the ensemble: the per-position mean
		// gap series locates the transient, every train is truncated
		// there, and the remainder averaged (Section 7.4).
		rawBps, corrBps, ok := core.TrainRates(ts[i].InterDepartureGaps(), ts[i].L, mserBatch)
		if !ok {
			continue
		}
		x := r / 1e6
		steadyS.X, steadyS.Y = append(steadyS.X, x), append(steadyS.Y, ss[i].ProbeRate/1e6)
		raw.X, raw.Y = append(raw.X, x), append(raw.Y, rawBps/1e6)
		corrected.X, corrected.Y = append(corrected.X, x), append(corrected.Y, corrBps/1e6)
	}
	return &Figure{
		ID:     "fig17",
		Title:  "MSER-corrected short-train measurement vs raw and steady state",
		XLabel: "ri (Mb/s)",
		YLabel: "L/E[gO] (Mb/s)",
		Series: []Series{steadyS, raw, corrected},
	}, nil
}
