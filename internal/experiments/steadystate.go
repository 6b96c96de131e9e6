package experiments

import (
	"csmabw/internal/probe"
	"csmabw/internal/sim"
)

// steady measures each point's steady state over sc.SteadySeconds, one
// unit per point, and returns them in point order.
func steady(points []point, sc Scale) ([]*probe.SteadyState, error) {
	dur := sim.FromSeconds(sc.SteadySeconds)
	return mapUnits(len(points), sc, nil, func(_ struct{}, i int) (*probe.SteadyState, error) {
		return probe.MeasureSteadyState(points[i].cell, points[i].rateBps, dur)
	})
}

// rateResponse measures each cell's steady state at every rate of the
// paper sweep, 0.25 Mb/s to maxBps in sc.SweepPoints steps, and returns
// the sweep's rates in Mb/s and each cell's points in sweep order.
// Point u = cell·points + i runs on seed cell.Seed+101u.
func rateResponse(cells []probe.Link, maxBps float64, sc Scale) (x []float64, byCell [][]*probe.SteadyState, err error) {
	rates := sweep(0.25e6, maxBps, sc.SweepPoints)
	var points []point
	for c := range cells {
		points = append(points, sweepPoints(&cells[c], rates, int64(c*len(rates))*101, 101)...)
	}
	pts, err := steady(points, sc)
	if err != nil {
		return nil, nil, err
	}
	for c := range cells {
		byCell = append(byCell, pts[c*len(rates):(c+1)*len(rates)])
	}
	return mbps(rates), byCell, nil
}

// mbps converts rates in bit/s to Mb/s.
func mbps(rates []float64) []float64 {
	x := make([]float64, len(rates))
	for i, r := range rates {
		x[i] = r / 1e6
	}
	return x
}

// curve is one rate-response series: y of each point, in Mb/s, at the
// sweep's rates x.
func curve(name string, x []float64, pts []*probe.SteadyState, y func(*probe.SteadyState) float64) Series {
	s := Series{Name: name, X: x, Y: make([]float64, len(pts))}
	for i, ss := range pts {
		s.Y[i] = y(ss) / 1e6
	}
	return s
}

// probeRate, fifoRate, aggregateRate (probe plus first contender) and
// crossRate(ci) pick a carried rate out of a steady-state point for
// curve.
func probeRate(ss *probe.SteadyState) float64     { return ss.ProbeRate }
func fifoRate(ss *probe.SteadyState) float64      { return ss.FIFORate }
func aggregateRate(ss *probe.SteadyState) float64 { return ss.ProbeRate + ss.CrossRates[0] }
func crossRate(ci int) func(*probe.SteadyState) float64 {
	return func(ss *probe.SteadyState) float64 { return ss.CrossRates[ci] }
}

// DefaultFig1 is the cell of the paper's Figure 1: one 4.5 Mb/s Poisson
// contender, so C ≈ 6.5 Mb/s, A ≈ 2 Mb/s and B ≈ 3.4 Mb/s.
func DefaultFig1() probe.Link {
	return probe.Link{ProbeSize: 1500, Contenders: []probe.Flow{{RateBps: 4.5e6, Size: 1500}}, Seed: 1}
}

// Fig1SteadyStateRRC reproduces Figure 1: the probe output rate and the
// first contender's carried rate, in steady state, as the probing rate
// sweeps to 10 Mb/s. The probe's curve flattens at its fair share (the
// achievable throughput B), not at the available bandwidth A.
func Fig1SteadyStateRRC(cell probe.Link, sc Scale) (*Figure, error) {
	x, pts, err := rateResponse([]probe.Link{cell}, 10e6, sc)
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:     "fig01",
		Title:  "Steady-state rate response with contending cross-traffic",
		XLabel: "ri (Mb/s)",
		YLabel: "throughput (Mb/s)",
		Series: []Series{
			curve("probe ro (Mb/s)", x, pts[0], probeRate),
			curve("cross throughput (Mb/s)", x, pts[0], crossRate(0)),
		},
	}, nil
}

// DefaultFig4 is the cell of the paper's Figure 4 at moderate loads, so
// all three curves are visible: 1.5 Mb/s of FIFO cross-traffic in the
// probe's queue and a 2 Mb/s contender.
func DefaultFig4() probe.Link {
	return probe.Link{
		ProbeSize:  1500,
		FIFOCross:  []probe.Flow{{RateBps: 1.5e6, Size: 1500}},
		Contenders: []probe.Flow{{RateBps: 2e6, Size: 1500}},
		Seed:       4,
	}
}

// Fig4CompleteRRC reproduces Figure 4, the complete model: the probe,
// first contender and FIFO cross-traffic carried rates as the probing
// rate sweeps to 10 Mb/s.
func Fig4CompleteRRC(cell probe.Link, sc Scale) (*Figure, error) {
	x, pts, err := rateResponse([]probe.Link{cell}, 10e6, sc)
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:     "fig04",
		Title:  "Complete steady-state rate response (FIFO + contending cross-traffic)",
		XLabel: "ri (Mb/s)",
		YLabel: "throughput (Mb/s)",
		Series: []Series{
			curve("probe ro (Mb/s)", x, pts[0], probeRate),
			curve("contending cross (Mb/s)", x, pts[0], crossRate(0)),
			curve("FIFO cross (Mb/s)", x, pts[0], fifoRate),
		},
	}, nil
}
