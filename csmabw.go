// Package csmabw is a library for studying and performing active
// bandwidth measurements over CSMA/CA (IEEE 802.11 DCF) links. It
// reproduces the system of Portoles-Comeras et al., "Impact of
// Transient CSMA/CA Access Delays on Active Bandwidth Measurements"
// (ACM IMC 2009):
//
//   - a discrete-event DCF/EDCA simulator with per-packet access-delay
//     tracing (the paper's NS2 substitute), whose channel ranges from
//     the paper's perfect single collision domain to lossy links
//     (FER/BER error models), hidden-terminal topologies, receiver
//     capture and RTS/CTS, and whose stations range from the paper's
//     homogeneous DCF cell to 802.11e access categories and
//     heterogeneous per-station data rates (internal/mac,
//     internal/phy);
//   - dispersion-based probing (trains, packet pairs, long steady-state
//     flows) over the simulated link;
//   - the paper's analytical models — steady-state rate response
//     curves, achievable throughput, and transient-aware bounds on the
//     expected output dispersion of short trains;
//   - the MSER-based correction that removes the access-delay transient
//     from short-train measurements;
//   - a real-network UDP probing tool (internal/netprobe, surfaced via
//     cmd/bwprobe) implementing the same measurements on live paths.
//
// This package is the stable facade: it re-exports the measurement
// entry points and adds the high-level achievable-throughput workflow
// the paper motivates. The experiment drivers that regenerate every
// figure of the paper live in internal/experiments; each one is a
// declarative Scenario executed by the shared worker-pool replication
// engine (internal/runner), which fans independent replications out
// across GOMAXPROCS workers with per-replication RNG substreams
// (sim.Stream) — so every figure is byte-identical at any worker count
// and the full suite scales near-linearly with cores.
//
// The cmd/ tools surface the drivers behind a common CLI harness
// (internal/clikit) with shared knobs:
//
//   - cmd/figures regenerates the whole evaluation, or -only a subset;
//     with -scenario it runs a figure on a spec-described cell instead
//     of the paper's (figures -only fig13 -scenario FILE);
//   - cmd/dcfsim is the general-purpose DCF/EDCA scenario front end,
//     with -reps for replicated runs, -fer/-ber/-topology/-capture for
//     the imperfect-channel scenario space, and -ac/-rates for
//     per-station access categories and data rates;
//   - cmd/rrc and cmd/bwprobe cover rate-response fitting and
//     live-network probing;
//   - cmd/abest, cmd/campaign and cmd/pathsel run the closed-loop
//     estimators, resumable estimation campaigns and multi-upstream
//     path selection.
//
// Every experiment tool accepts -scale tiny|default|paper (with -reps,
// -points and -seconds fine-tuning), -seed (cmd/figures: only with
// -scenario, since its registry figures run their paper seeds),
// -workers (0 = all cores) and -format table|csv|json. The benchmark
// is the bench/ module, run with bash bench/run.sh.
package csmabw

import (
	"fmt"

	"csmabw/internal/bianchi"
	"csmabw/internal/core"
	"csmabw/internal/phy"
	"csmabw/internal/probe"
	"csmabw/internal/sim"
)

// Link describes the measured WLAN scenario: the probing station's PHY,
// FIFO cross-traffic sharing its transmission queue, and contending
// cross-traffic stations.
type Link = probe.Link

// Flow is a Poisson cross-traffic flow (rate in bit/s, packet size in
// bytes).
type Flow = probe.Flow

// TrainStats aggregates the replications of a probing-train measurement.
type TrainStats = probe.TrainStats

// SteadyState is a steady-state operating-point measurement.
type SteadyState = probe.SteadyState

// PHY profiles for constructing links.
var (
	// PHY80211b is the paper's testbed profile: 11 Mb/s, long preamble.
	PHY80211b = phy.B11
	// PHY80211bShort is 802.11b with short preamble.
	PHY80211bShort = phy.B11Short
	// PHY80211g is a 54 Mb/s OFDM profile.
	PHY80211g = phy.G54
)

// MeasureTrain sends reps replications of an n-packet probing train at
// the given rate and returns the dispersion statistics.
func MeasureTrain(l Link, n int, rateBps float64, reps int) (*TrainStats, error) {
	return probe.MeasureTrain(l, n, rateBps, reps)
}

// MeasurePacketPair estimates bandwidth with back-to-back packet pairs
// (mean over reps). Note the paper's Section 7.3 finding: on CSMA/CA
// links this measures (and overestimates) achievable throughput, not
// capacity.
func MeasurePacketPair(l Link, reps int) (float64, error) {
	return probe.MeasurePair(l, reps)
}

// MeasureSteadyState measures the steady-state operating point when
// probing at rateBps for the given duration.
func MeasureSteadyState(l Link, rateBps float64, duration sim.Time) (*SteadyState, error) {
	return probe.MeasureSteadyState(l, rateBps, duration)
}

// AchievableOptions tunes MeasureAchievableThroughput.
type AchievableOptions struct {
	// MinBps/MaxBps bound the search (defaults 0.25 and 12 Mb/s).
	MinBps, MaxBps float64
	// Points is the number of sweep points (default 16).
	Points int
	// Duration per steady-state point (default 1s).
	Duration sim.Time
	// Tol is the relative slack on ro/ri == 1 (default 0.05).
	Tol float64
}

func (o AchievableOptions) withDefaults() AchievableOptions {
	if o.MinBps == 0 {
		o.MinBps = 0.25e6
	}
	if o.MaxBps == 0 {
		o.MaxBps = 12e6
	}
	if o.Points == 0 {
		o.Points = 16
	}
	if o.Duration == 0 {
		o.Duration = sim.Second
	}
	if o.Tol == 0 {
		o.Tol = 0.05
	}
	return o
}

// MeasureAchievableThroughput implements the paper's defining Eq. 2,
// B = sup{ri : ro/ri = 1}, by sweeping steady-state probing rates over
// the link and locating the largest rate still carried losslessly.
func MeasureAchievableThroughput(l Link, o AchievableOptions) (float64, error) {
	c, err := MeasureRateResponseCurve(l, o)
	if err != nil {
		return 0, err
	}
	return core.AchievableFromCurve(c.RI, c.RO, o.withDefaults().Tol), nil
}

// CorrectedTrainRate measures an n-packet train and returns both the
// raw dispersion rate estimate and the MSER-m corrected one
// (Section 7.4). The corrected estimate discards the leading packets
// the MSER heuristic identifies as the access-delay transient.
func CorrectedTrainRate(l Link, n int, rateBps float64, reps, mserBatch int) (raw, corrected float64, err error) {
	ts, err := probe.MeasureTrain(l, n, rateBps, reps)
	if err != nil {
		return 0, 0, err
	}
	rows := ts.InterDepartureGaps()
	usable := rows[:0]
	for _, gaps := range rows {
		if len(gaps) >= 2 {
			usable = append(usable, gaps)
		}
	}
	if len(usable) == 0 {
		return 0, 0, fmt.Errorf("csmabw: no usable trains (all dropped?)")
	}
	l0 := l.WithDefaults()
	raw = core.RateFromGap(l0.ProbeSize, core.RawGapRows(usable))
	corrected = core.RateFromGap(l0.ProbeSize, core.CorrectedGapByPosition(usable, mserBatch))
	return raw, corrected, nil
}

// RateResponseCurve is a measured steady-state rate response: parallel
// input and output rates in bit/s.
type RateResponseCurve struct {
	RI, RO []float64
}

// FIFOFit re-exports the fluid-model fit result.
type FIFOFit = core.FIFOFit

// CSMAFit re-exports the CSMA-model fit result.
type CSMAFit = core.CSMAFit

// MeasureRateResponseCurve sweeps steady-state probing rates over the
// link and returns the measured curve, ready for model fitting.
func MeasureRateResponseCurve(l Link, o AchievableOptions) (*RateResponseCurve, error) {
	o = o.withDefaults()
	if o.MaxBps <= o.MinBps || o.Points < 2 {
		return nil, fmt.Errorf("csmabw: invalid sweep [%g, %g] x%d", o.MinBps, o.MaxBps, o.Points)
	}
	c := &RateResponseCurve{}
	for i := 0; i < o.Points; i++ {
		ri := o.MinBps + (o.MaxBps-o.MinBps)*float64(i)/float64(o.Points-1)
		ss, err := probe.MeasureSteadyState(l, ri, o.Duration)
		if err != nil {
			return nil, err
		}
		c.RI = append(c.RI, ri)
		c.RO = append(c.RO, ss.ProbeRate)
	}
	return c, nil
}

// FitFIFO fits the wired fluid model (Eq. 1) to the curve, estimating
// capacity C and available bandwidth A. On CSMA/CA links the estimate
// of A chases B instead — the Section 7.2 failure mode, made
// measurable.
func (c *RateResponseCurve) FitFIFO(tol float64) (FIFOFit, error) {
	return core.FitFIFO(c.RI, c.RO, tol)
}

// FitCSMA fits the contention model (Eq. 3), estimating the achievable
// throughput B.
func (c *RateResponseCurve) FitCSMA(tol float64) (CSMAFit, error) {
	return core.FitCSMA(c.RI, c.RO, tol)
}

// CompareModels returns the RMSE of the fitted FIFO and CSMA models on
// the measured curve; the smaller error identifies which access scheme
// the path behaves like.
func (c *RateResponseCurve) CompareModels(tol float64) (fifoRMSE, csmaRMSE float64, err error) {
	ff, err := c.FitFIFO(tol)
	if err != nil {
		return 0, 0, err
	}
	cf, err := c.FitCSMA(tol)
	if err != nil {
		return 0, 0, err
	}
	fifoRMSE = core.ModelRMSE(c.RI, c.RO, func(x float64) float64 {
		return core.RateResponseFIFO(x, ff.C, ff.A)
	})
	csmaRMSE = core.ModelRMSE(c.RI, c.RO, func(x float64) float64 {
		return core.RateResponseCSMA(x, cf.B)
	})
	return fifoRMSE, csmaRMSE, nil
}

// PredictRateResponse evaluates the paper's complete steady-state model
// (Eq. 4) at input rate ri given the probing station's fair share bf
// and the FIFO cross-traffic utilisation ufifo.
func PredictRateResponse(ri, bf, ufifo float64) float64 {
	return core.RateResponseComplete(ri, bf, ufifo)
}

// PredictAchievable evaluates Eq. 5: B = Bf(1 - ufifo).
func PredictAchievable(bf, ufifo float64) float64 {
	return core.AchievableComplete(bf, ufifo)
}

// PredictFairShare estimates the fair share Bf analytically: Bianchi's
// DCF saturation model for n contending stations (the measured station
// plus its contenders), divided equally. It is the model-side
// counterpart of MeasureAchievableThroughput for saturated contention,
// useful for sizing experiments without running them.
func PredictFairShare(p phy.Params, stations int, payload int) (float64, error) {
	sol, err := bianchi.Solve(stations, p.CWMin, p.CWMax)
	if err != nil {
		return 0, err
	}
	return sol.Throughput(p, payload) / float64(stations), nil
}
