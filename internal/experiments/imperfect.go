package experiments

import (
	"fmt"

	"csmabw/internal/mac"
	"csmabw/internal/probe"
)

// This file holds the imperfect-channel experiments: the scenarios the
// paper's NS2 validation idealizes away (perfect channel, one collision
// domain) but that real CSMA/CA deployments — the measurement targets
// of the paper — live with. Frame loss stretches the output gaps the
// dispersion estimator reads, and hidden terminals both collapse the
// achievable throughput the rate response flattens at and lengthen the
// access-delay transient.

// ferCells is base at 0%, 1% and 5% FER, curve c on seed
// base.Seed+stride·c.
func ferCells(base probe.Link, stride int64) []probe.Link {
	cells := make([]probe.Link, 3)
	for c, fer := range []float64{0, 0.01, 0.05} {
		cells[c] = base
		cells[c].Loss.FER = fer
		cells[c].Seed = base.Seed + int64(c)*stride
	}
	return cells
}

// ferCurve labels a curve by its cell's frame-error rate.
func ferCurve(l probe.Link) string { return fmt.Sprintf("FER %g%%", l.Loss.FER*100) }

// DefaultFERRRC is the Figure-1 cell at 0%, 1% and 5% FER, all three on
// seed 21.
func DefaultFERRRC() []probe.Link {
	base := DefaultFig1()
	base.Seed = 21
	return ferCells(base, 0)
}

// FERRateResponse measures the steady-state probe output rate on each
// cell, one curve per cell, as the probing rate sweeps to 10 Mb/s. Loss
// eats into both the achievable throughput and the dispersion the
// estimator reads, so the curves flatten lower as FER grows.
func FERRateResponse(cells []probe.Link, sc Scale) (*Figure, error) {
	x, byCell, err := rateResponse(cells, 10e6, sc)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "fer-rrc",
		Title:  "Steady-state rate response under frame loss",
		XLabel: "ri (Mb/s)",
		YLabel: "probe ro (Mb/s)",
	}
	for c, pts := range byCell {
		fig.Series = append(fig.Series, curve(ferCurve(cells[c]), x, pts, probeRate))
	}
	return fig, nil
}

// DefaultFERTransient is the Figure-6 cell at 0%, 1% and 5% FER, curve
// c on seed 22+977c.
func DefaultFERTransient() []probe.Link {
	base := DefaultFig6().link()
	base.Seed = 22
	return ferCells(base, 977)
}

// FERTransient reproduces the mean access-delay transient of Figure 6,
// on its 1000-packet trains at 5 Mb/s, on each cell, one curve per
// cell: retransmissions both raise the steady-state access delay and
// stretch the transient the paper's probing sequences must outlast.
func FERTransient(cells []probe.Link, sc Scale) (*Figure, error) {
	p := DefaultFig6()
	return meanDelays("fer-transient", "Mean access delay vs probe packet number under frame loss", cells, p.TrainLen, p.ProbeRateBps, 150, ferCurve, sc)
}

// DefaultHidden is the cell of the classic hidden-terminal experiment:
// 1500-byte probes and no contender of its own, on seed 23.
func DefaultHidden() probe.Link { return probe.Link{ProbeSize: 1500, Seed: 23} }

// HiddenTerminal measures the aggregate carried rate (probe plus
// contender) of the probe at 5 Mb/s against the contender's offered
// rate, swept from 0.5 to 6 Mb/s, for a single collision domain, a
// hidden pair, and a hidden pair using RTS/CTS for payloads of 256
// bytes or more. Hidden terminals collide without ever sensing each
// other, collapsing the aggregate as load grows; RTS/CTS shortens the
// vulnerable window to the handshake and recovers part of the loss.
// Each variant imposes its hearing graph and RTS threshold on the
// cell. Point u = variant·points + i is crossCell(cell, cell.Seed+131u,
// rate i).
func HiddenTerminal(cell probe.Link, sc Scale) (*Figure, error) {
	rates := sweep(0.5e6, 6e6, sc.SweepPoints)
	variants := []struct {
		name string
		topo *mac.Topology // shared read-only by the variant's points
		rts  int
	}{
		{"single collision domain", nil, 0},
		{"hidden terminals", mac.HiddenPair(), 0},
		{"hidden terminals + RTS/CTS", mac.HiddenPair(), 256},
	}
	var points []point
	for _, v := range variants {
		for _, r := range rates {
			l := crossCell(&cell, cell.Seed+int64(len(points))*131, r)
			l.Topology, l.RTSThreshold = v.topo, v.rts
			points = append(points, point{l, 5e6})
		}
	}
	pts, err := steady(points, sc)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "hidden",
		Title:  "Aggregate carried rate with and without hidden terminals",
		XLabel: "contender offered rate (Mb/s)",
		YLabel: "aggregate throughput (Mb/s)",
	}
	x := mbps(rates)
	for v, variant := range variants {
		fig.Series = append(fig.Series, curve(variant.name, x, pts[v*len(rates):(v+1)*len(rates)], aggregateRate))
	}
	return fig, nil
}
