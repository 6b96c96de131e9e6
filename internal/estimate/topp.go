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

// toppPoints is the number of sweep rates, spread evenly over the
// probing-rate bracket (see bracket).
const toppPoints = 10

// TOPPConfig tunes the rate-sweep estimator.
type TOPPConfig struct {
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
// Sweep point i is one round: its replications derive their randomness
// from sim.NewStream(l.Seed).Child(i) and run in order on the call's
// one engine.
func TOPP(l probe.Link, cfg TOPPConfig) (Estimate, error) {
	ld := l.WithDefaults()
	cfg = cfg.withDefaults()
	lo, hi, err := bracket(ld)
	if err != nil {
		return Estimate{}, err
	}
	if err := cfg.Budget.validate(); err != nil {
		return Estimate{}, err
	}

	root := sim.NewStream(l.Seed)
	g := ledger{budget: cfg.Budget}
	var ri, ro []float64
	var samples []probe.TrainSample
	for i := 0; i < toppPoints; i++ {
		rate := lo + (hi-lo)*float64(i)/float64(toppPoints-1)
		li := l
		li.Seed = root.Child(uint64(i)).Seed()
		if err := g.plan.Init(li, cfg.TrainLen, rate); err != nil {
			return g.est, err
		}
		reps, reason := g.allow(cfg.Reps, 1, cfg.TrainLen, g.plan.GI())
		if reps == 0 {
			g.est.Truncated = reason
			break
		}
		if reason != TruncatedNone {
			// A shrunk round still runs — a partial replication set at
			// this rate is a usable sweep point — but the cap constrained
			// the campaign's evidence, which the verdict must disclose.
			g.est.Truncated = reason
		}
		if samples, err = g.round(0, reps, samples[:0]); err != nil {
			return g.est, err
		}
		ts := probe.TrainStats{L: ld.ProbeSize, Samples: samples}
		out, err := ts.RateEstimate()
		switch {
		case errors.Is(err, probe.ErrNoEstimate):
			// No usable dispersion at this rate: skip the point.
		case err != nil:
			return g.est, err
		default:
			ri = append(ri, rate)
			ro = append(ro, out)
		}
	}
	return toppRegress(g.est, ri, ro, g.inflation())
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
