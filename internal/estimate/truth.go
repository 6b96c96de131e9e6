package estimate

import (
	"fmt"

	"csmabw/internal/probe"
	"csmabw/internal/sim"
)

// Truth is the measured ground truth an estimator is scored against.
type Truth struct {
	// AvailableBps is the long-run rate the probing flow can actually
	// carry: the paper's achievable throughput B, which is what every
	// dispersion-based tool tracks on a CSMA/CA link (Section 7).
	AvailableBps float64
	// CrossBps is the carried cross-traffic share (contending stations
	// plus FIFO cross flows) during the saturated measurement.
	CrossBps float64
	// CarriedBps is the total long-run carried rate on the channel —
	// AvailableBps is CarriedBps minus the cross share by construction.
	CarriedBps float64
}

// TruthConfig tunes the ground-truth measurement.
type TruthConfig struct {
	// Duration is the steady-state measurement length (default 4s).
	Duration sim.Time
}

// GroundTruth measures the available bandwidth the link actually
// offers the probing flow: one long saturating constant-rate run, with
// the probe's carried rate read off the steady-state window; the
// probing rate is twice the PHY's saturation throughput bound. The
// measurement is the operational sup{ri : ro(ri)} definition (paper
// Eq. 2) — the carried total minus the cross-traffic share — and for a
// saturated homogeneous cell it cross-checks against the
// bianchi.Solution fair share (see the package tests).
func GroundTruth(l probe.Link, cfg TruthConfig) (Truth, error) {
	ld := l.WithDefaults()
	saturate := 2 * ld.Phy.MaxThroughput(ld.ProbeSize)
	if cfg.Duration == 0 {
		cfg.Duration = 4 * sim.Second
	}
	if cfg.Duration < 0 {
		return Truth{}, fmt.Errorf("estimate: invalid truth config %+v", cfg)
	}
	ss, err := probe.MeasureSteadyState(l, saturate, cfg.Duration)
	if err != nil {
		return Truth{}, err
	}
	t := Truth{AvailableBps: ss.ProbeRate, CrossBps: ss.FIFORate}
	for _, cr := range ss.CrossRates {
		t.CrossBps += cr
	}
	t.CarriedBps = t.AvailableBps + t.CrossBps
	return t, nil
}
