package estimate

import (
	"errors"
	"fmt"

	"csmabw/internal/core"
	"csmabw/internal/probe"
	"csmabw/internal/sim"
	"csmabw/internal/stats"
)

// toppTol is the relative deviation |ro-ri|/ri below which a sweep
// point counts as unsaturated.
const toppTol = 0.08

// TOPPConfig tunes the rate-sweep estimator.
type TOPPConfig struct {
	// Points is the number of sweep rates, spread evenly over the
	// probing-rate bracket (see bracket; default 10).
	Points int
	// TrainLen is the packets per train (default 50).
	TrainLen int
	// Reps is the train replications per sweep rate (default 10).
	Reps int
	// Budget caps the sweep's probing effort; the zero value is
	// uncapped. A truncated sweep regresses whatever points it bought
	// and reports the cap in Estimate.Truncated.
	Budget Budget
}

// withDefaults fills the zero-value knobs.
func (c TOPPConfig) withDefaults() TOPPConfig {
	if c.Points == 0 {
		c.Points = 10
	}
	if c.TrainLen == 0 {
		c.TrainLen = 50
	}
	if c.Reps == 0 {
		c.Reps = 10
	}
	return c
}

// TOPP runs the probing-rate sweep estimator: trains at increasing
// rates ri trace the rate-response curve ro(ri), and the saturated region is inverted by the TOPP
// regression ri/ro = ri/C + (C-A)/C (core.FitFIFO). On a CSMA/CA link
// the measured curve is the paper's Eq. 3 shape — flat at the
// achievable throughput B — so the regression's A lands near B rather
// than the fluid available bandwidth; TOPP also reports the plateau
// mean (core.FitCSMA) and returns whichever model fits the measured
// curve with smaller RMSE, which on contended CSMA/CA links is the
// plateau.
//
// Sweep point i derives its randomness from sim.NewStream(l.Seed).
// Child(i), so the result is identical at any l.Workers setting.
func TOPP(l probe.Link, cfg TOPPConfig) (Estimate, error) {
	ld := l.WithDefaults()
	cfg = cfg.withDefaults()
	lo, hi, err := bracket(ld)
	if err != nil {
		return Estimate{}, err
	}
	if cfg.Points < 3 {
		return Estimate{}, fmt.Errorf("estimate: TOPP needs >= 3 sweep points, got %d", cfg.Points)
	}
	if err := cfg.Budget.validate(); err != nil {
		return Estimate{}, err
	}

	root := sim.NewStream(l.Seed)
	est := Estimate{}
	tracker := budgetTracker{budget: cfg.Budget}
	var ri, ro []float64
	for i := 0; i < cfg.Points; i++ {
		rate := lo + (hi-lo)*float64(i)/float64(cfg.Points-1)
		li := l
		li.Seed = root.Child(uint64(i)).Seed()
		gI := sim.FromSeconds(float64(ld.ProbeSize*8) / rate)
		reps, reason := tracker.allow(est.Cost, cfg.Reps, 1, cfg.TrainLen, gI)
		if reps == 0 {
			est.Truncated = reason
			break
		}
		if reason != TruncatedNone {
			// A shrunk round still runs — a partial replication set at
			// this rate is a usable sweep point — but the cap constrained
			// the campaign's evidence, which the verdict must disclose.
			est.Truncated = reason
		}
		ts, err := probe.MeasureTrain(li, cfg.TrainLen, rate, reps)
		if err != nil {
			return est, err
		}
		est.Rounds++
		for _, s := range ts.Samples {
			est.Cost.add(s, ts.GI)
			tracker.note(s, ts.GI)
		}
		out, err := ts.RateEstimate()
		switch {
		case errors.Is(err, probe.ErrNoEstimate):
			// No usable dispersion at this rate: skip the point.
		case err != nil:
			return est, err
		default:
			ri = append(ri, rate)
			ro = append(ro, out)
		}
	}
	return toppRegress(est, ri, ro, inflation(cfg.Budget, &tracker))
}

// inflation is the loss-aware sigma inflation factor a budgeted
// campaign applies to its reported confidence half-width. It only
// engages with a Budget set — the honest-effective-error regime is what
// Budget opts into — so unbudgeted campaigns report byte-identical CIs
// to the pre-budget estimators.
func inflation(b Budget, t *budgetTracker) float64 {
	if !b.Enabled() {
		return 1
	}
	return stats.SigmaInflation(t.lossFrac())
}

// toppRegress inverts the measured rate-response curve: the FIFO-model
// regression and the CSMA plateau mean are both fitted, and the model
// with the smaller RMSE against the curve wins. The confidence
// half-width is the CI95 of the saturated points' output rates — the
// spread of the plateau the estimate is read from — scaled by the
// campaign's loss-aware sigma inflation (1 when unbudgeted). A failed
// fit still returns the partial Estimate so the caller's budget ledger
// survives the failure.
func toppRegress(est Estimate, ri, ro []float64, inflate float64) (Estimate, error) {
	csma, errCSMA := core.FitCSMA(ri, ro, toppTol)
	if errCSMA != nil {
		return est, fmt.Errorf("%w (TOPP: %v)", ErrEstimateFailed, errCSMA)
	}
	est.Value = csma.B
	if fifo, err := core.FitFIFO(ri, ro, toppTol); err == nil {
		fifoRMSE := core.ModelRMSE(ri, ro, func(r float64) float64 {
			if r <= fifo.A {
				return r
			}
			return r * fifo.C / (r + fifo.C - fifo.A)
		})
		// The FIFO inversion only takes over when it fits decisively
		// better: on noisy sweeps the two models' RMSEs are close, and
		// near a toss-up the plateau mean is the far lower-variance
		// estimator (the FIFO intercept leverages the sweep's extremes).
		if fifoRMSE < 0.8*csma.RMSE {
			est.Value = fifo.A
		}
	}
	var plateau []float64
	for i := range ri {
		if ri[i] > 0 && ro[i] > 0 && ro[i] < ri[i]*(1-toppTol) {
			plateau = append(plateau, ro[i])
		}
	}
	// A one-point plateau has no spread to report; CI stays 0 rather
	// than the +Inf a single-sample confidence interval would give.
	if s := stats.Summarize(plateau); s.N >= 2 {
		est.CI = s.CI95HalfWidth() * inflate
	}
	return est, nil
}
