package experiments

import (
	"csmabw/internal/probe"
	"csmabw/internal/sim"
)

// Fig1Params configures the steady-state rate response experiment of
// Figure 1: one probing flow contending with one Poisson cross-traffic
// flow; the rate response curve flattens at the fair share (the
// achievable throughput B), not at the available bandwidth A.
type Fig1Params struct {
	CrossRateBps float64 // contending cross-traffic rate (paper: ~4.5 Mb/s)
	PacketSize   int
	MaxProbeBps  float64 // sweep upper end (paper: 10 Mb/s)
	Seed         int64
}

// DefaultFig1 mirrors the paper's Figure 1 operating point:
// C ≈ 6.5 Mb/s, A ≈ 2 Mb/s, B ≈ 3.4 Mb/s.
func DefaultFig1() Fig1Params {
	return Fig1Params{CrossRateBps: 4.5e6, PacketSize: 1500, MaxProbeBps: 10e6, Seed: 1}
}

// ssPoint is one measured operating point of a steady-state sweep.
type ssPoint struct {
	x                  float64
	probe, cross, fifo float64
}

// Fig1SteadyStateRRC sweeps the probing rate and measures, in steady
// state, the probe output rate and the cross-traffic carried rate. Each
// sweep point is an independent unit on the worker pool.
func Fig1SteadyStateRRC(p Fig1Params, sc Scale) (*Figure, error) {
	rates := sweep(0.25e6, p.MaxProbeBps, sc.SweepPoints)
	dur := sim.FromSeconds(sc.SteadySeconds)
	return Run(Scenario[ssPoint]{
		Seed:  p.Seed,
		Units: len(rates),
		RunOne: func(i int, _ sim.Stream) (ssPoint, error) {
			l := probe.Link{
				ProbeSize:  p.PacketSize,
				Contenders: []probe.Flow{{RateBps: p.CrossRateBps, Size: p.PacketSize}},
				Seed:       p.Seed + int64(i)*101,
			}
			ss, err := probe.MeasureSteadyState(l, rates[i], dur)
			if err != nil {
				return ssPoint{}, err
			}
			return ssPoint{x: rates[i] / 1e6, probe: ss.ProbeRate / 1e6, cross: ss.CrossRates[0] / 1e6}, nil
		},
		Reduce: func(pts []ssPoint) (*Figure, error) {
			probeS := Series{Name: "probe ro (Mb/s)"}
			crossS := Series{Name: "cross throughput (Mb/s)"}
			for _, pt := range pts {
				probeS.X = append(probeS.X, pt.x)
				probeS.Y = append(probeS.Y, pt.probe)
				crossS.X = append(crossS.X, pt.x)
				crossS.Y = append(crossS.Y, pt.cross)
			}
			return &Figure{
				ID:     "fig01",
				Title:  "Steady-state rate response with contending cross-traffic",
				XLabel: "ri (Mb/s)",
				YLabel: "throughput (Mb/s)",
				Series: []Series{probeS, crossS},
			}, nil
		},
	}, sc)
}

// Fig4Params configures the complete-picture experiment of Figure 4:
// probing traffic shares its FIFO queue with cross-traffic *and*
// contends with another station.
type Fig4Params struct {
	FIFOCrossBps  float64 // cross-traffic sharing the probe queue
	ContendingBps float64 // cross-traffic contending for access
	PacketSize    int
	MaxProbeBps   float64
	Seed          int64
}

// DefaultFig4 uses moderate loads so all three curves are visible, as
// in the paper's Figure 4.
func DefaultFig4() Fig4Params {
	return Fig4Params{FIFOCrossBps: 1.5e6, ContendingBps: 2e6, PacketSize: 1500, MaxProbeBps: 10e6, Seed: 4}
}

// Fig4CompleteRRC sweeps the probing rate in the complete model and
// reports probe, contending-cross and FIFO-cross carried rates.
func Fig4CompleteRRC(p Fig4Params, sc Scale) (*Figure, error) {
	rates := sweep(0.25e6, p.MaxProbeBps, sc.SweepPoints)
	dur := sim.FromSeconds(sc.SteadySeconds)
	return Run(Scenario[ssPoint]{
		Seed:  p.Seed,
		Units: len(rates),
		RunOne: func(i int, _ sim.Stream) (ssPoint, error) {
			l := probe.Link{
				ProbeSize:  p.PacketSize,
				FIFOCross:  []probe.Flow{{RateBps: p.FIFOCrossBps, Size: p.PacketSize}},
				Contenders: []probe.Flow{{RateBps: p.ContendingBps, Size: p.PacketSize}},
				Seed:       p.Seed + int64(i)*101,
			}
			ss, err := probe.MeasureSteadyState(l, rates[i], dur)
			if err != nil {
				return ssPoint{}, err
			}
			return ssPoint{
				x:     rates[i] / 1e6,
				probe: ss.ProbeRate / 1e6,
				cross: ss.CrossRates[0] / 1e6,
				fifo:  ss.FIFORate / 1e6,
			}, nil
		},
		Reduce: func(pts []ssPoint) (*Figure, error) {
			probeS := Series{Name: "probe ro (Mb/s)"}
			contS := Series{Name: "contending cross (Mb/s)"}
			fifoS := Series{Name: "FIFO cross (Mb/s)"}
			for _, pt := range pts {
				probeS.X = append(probeS.X, pt.x)
				probeS.Y = append(probeS.Y, pt.probe)
				contS.X = append(contS.X, pt.x)
				contS.Y = append(contS.Y, pt.cross)
				fifoS.X = append(fifoS.X, pt.x)
				fifoS.Y = append(fifoS.Y, pt.fifo)
			}
			return &Figure{
				ID:     "fig04",
				Title:  "Complete steady-state rate response (FIFO + contending cross-traffic)",
				XLabel: "ri (Mb/s)",
				YLabel: "throughput (Mb/s)",
				Series: []Series{probeS, contS, fifoS},
			}, nil
		},
	}, sc)
}
