package estimate

import (
	"fmt"
	"math"

	"csmabw/internal/probe"
	"csmabw/internal/stats"
)

// AdaptiveConfig tunes the sequential replication controller.
type AdaptiveConfig struct {
	// RateBps is the probing rate of each train; 0 sends back-to-back
	// trains (the dispersion-maximizing choice, like packet pairs).
	RateBps float64
	// TrainLen is the packets per train (default 50).
	TrainLen int
	// TargetRel is the stopping target: the 95% confidence half-width
	// of the estimate must fall below TargetRel times the estimate
	// (default 0.05).
	TargetRel float64
	// BatchReps is how many replications each round adds (default 8).
	// The batch schedule is fixed — rounds always grow the sample by
	// the same amount — so the controller's cost is monotone in the
	// target: a looser target can only stop at an earlier checkpoint.
	BatchReps int
	// MaxReps bounds the total replication budget (default 512).
	MaxReps int
	// Budget caps the campaign's probing effort; the zero value is
	// uncapped. Batches shrink to the remaining allowance (replication
	// k is a pure function of (Seed, k), so a shrunk batch is an exact
	// prefix of the unbudgeted sample sequence), and a campaign a cap
	// stops before its confidence target reports the effective CI it
	// actually achieved plus the cap in Estimate.Truncated. With a
	// Budget set the confidence half-width — both the stopping rule and
	// the reported CI — carries the loss-aware sigma inflation, so
	// lossy links lengthen the campaign instead of stopping early on an
	// optimistic interval.
	Budget Budget
}

// withDefaults fills the zero-value knobs.
func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	if c.TrainLen == 0 {
		c.TrainLen = 50
	}
	if c.TargetRel == 0 {
		c.TargetRel = 0.05
	}
	if c.BatchReps == 0 {
		c.BatchReps = 8
	}
	if c.MaxReps == 0 {
		c.MaxReps = 512
	}
	return c
}

// Adaptive runs the sequential train controller on the link: batches
// of train replications accumulate until the dispersion-based rate
// estimate's 95% confidence half-width falls under the target — the
// classical n = ceil((z·sigma/eps)^2) sample-size rule applied
// sequentially, so quiet links stop after a couple of batches while
// bursty ones keep probing. The estimate is L/E[gO] over all usable
// replications, with the half-width propagated from the gap
// statistics to first order.
//
// Replication k's randomness is a pure function of (l.Seed, k), so the
// k-th train is the same train no matter how the batches fall. The
// train is planned once, and every batch runs in order on the call's
// one engine.
func Adaptive(l probe.Link, cfg AdaptiveConfig) (Estimate, error) {
	cfg = cfg.withDefaults()
	if cfg.TrainLen < 2 {
		return Estimate{}, fmt.Errorf("estimate: train length %d", cfg.TrainLen)
	}
	if !(cfg.RateBps >= 0) || math.IsInf(cfg.RateBps, 0) {
		return Estimate{}, fmt.Errorf("estimate: probing rate %g must be finite and >= 0", cfg.RateBps)
	}
	if err := checkFrac("adaptive CI target", cfg.TargetRel, 0, 1); err != nil {
		return Estimate{}, err
	}
	if cfg.BatchReps < 1 || cfg.MaxReps < cfg.BatchReps {
		return Estimate{}, fmt.Errorf("estimate: invalid adaptive config %+v", cfg)
	}
	if err := cfg.Budget.validate(); err != nil {
		return Estimate{}, err
	}
	g := ledger{budget: cfg.Budget}
	err := g.plan.Init(l, cfg.TrainLen, cfg.RateBps)
	if err != nil {
		return Estimate{}, err
	}
	ld := l.WithDefaults()
	gI := g.plan.GI()

	var samples []probe.TrainSample
	for len(samples) < cfg.MaxReps {
		batch := min(cfg.BatchReps, cfg.MaxReps-len(samples))
		// A shrunk batch is not terminal: the first batch's time forecast
		// is the pessimistic drain envelope, and real observed spans may
		// show the budget affords much more. The campaign only stops when
		// the ledger can no longer buy a single train.
		var capped Truncation
		if batch, capped = g.allow(batch, 1, cfg.TrainLen, gI); batch == 0 {
			g.est.Truncated = capped
			break
		}
		if samples, err = g.round(len(samples), batch, samples); err != nil {
			return g.est, err
		}

		gs := gaps(samples)
		if len(gs) < 2 {
			continue
		}
		sum := stats.Summarize(gs)
		g.est.Value = float64(ld.ProbeSize*8) / sum.Mean
		// First-order propagation: a relative error on E[gO] is the same
		// relative error on L/E[gO]. A budgeted campaign widens the
		// half-width by the loss-aware sigma inflation — lossy links must
		// buy more evidence for the same confidence — which governs both
		// the stopping rule and the reported CI.
		g.est.CI = g.est.Value * sum.CI95HalfWidth() * g.inflation() / sum.Mean
		if g.est.CI <= cfg.TargetRel*g.est.Value {
			return g.est, nil
		}
	}
	if g.est.Value == 0 {
		// The partial Estimate still carries the Cost and Rounds spent,
		// so budget accounting survives the failed campaign.
		return g.est, fmt.Errorf("%w (adaptive: %d replications, none usable)", ErrEstimateFailed, g.est.Cost.Trains)
	}
	if g.est.Truncated != TruncatedNone {
		return g.est, nil
	}
	return g.est, ErrTargetNotReached
}
