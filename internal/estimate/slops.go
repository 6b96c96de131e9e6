package estimate

import (
	"fmt"
	"math"

	"csmabw/internal/probe"
	"csmabw/internal/sim"
	"csmabw/internal/stats"
)

// The SLoPS search constants.
const (
	// slopsTrendT is the t-statistic above which a rate's delay trend
	// counts as increasing: each train contributes the difference
	// between its second-half and first-half mean one-way delay, and
	// the rate is classified as self-loading when the mean of those
	// differences exceeds slopsTrendT standard errors — a one-sided
	// location test that is robust to the per-packet contention noise
	// a pairwise-comparison metric drowns in.
	slopsTrendT = 2
	// slopsMaxRounds bounds the bisection; the search also stops at
	// ceil(log2(bracket/resolution)) naturally.
	slopsMaxRounds = 20
)

// SLoPSConfig tunes the self-loading binary search over the
// probing-rate bracket (see bracket).
type SLoPSConfig struct {
	// ResolutionBps stops the bisection once the bracket is narrower
	// than this (default 250 kb/s).
	ResolutionBps float64
	// TrainLen is the packets per train (default 60); longer trains
	// separate a building queue from contention noise more reliably.
	TrainLen int
	// Reps is the trains sent per probing rate (default 8); the trend
	// verdict at a rate aggregates all replications.
	Reps int
	// Budget caps the search's probing effort; the zero value is
	// uncapped. The budgeted search only runs whole rounds — a round
	// that no longer fits is not started — so a budgeted campaign is an
	// exact prefix of the unbudgeted one and its bracket (hence its
	// reported CI) is monotone non-increasing in the budget. Because a
	// whole round is the search's minimum unit of work, the first round
	// of a time-capped campaign is admitted on the remaining time alone
	// and is the only point a time cap can be overshot. A truncated
	// search reports the bracket it reached and the cap in
	// Estimate.Truncated.
	Budget Budget
}

// withDefaults fills the zero-value knobs.
func (c SLoPSConfig) withDefaults() SLoPSConfig {
	if c.ResolutionBps == 0 {
		c.ResolutionBps = 250e3
	}
	if c.TrainLen == 0 {
		c.TrainLen = 60
	}
	if c.Reps == 0 {
		c.Reps = 8
	}
	return c
}

// SLoPS runs the pathload-style estimator: probing at a rate above the
// available share makes the probing station's queue build for the
// train's whole duration, so the per-packet one-way delays trend
// upward; probing below it leaves them stationary. The estimator
// bisects on the probing rate, classifying each rate by a one-sided
// location test on its trains' delay trends (see slopsTrendT), until
// the bracket is narrower than the resolution. The bracket midpoint is
// the estimate and the bracket half-width its confidence bound; the
// round count is bounded by ceil(log2(bracket/resolution)), so the
// search always terminates in a known number of rate probings.
//
// Round r's replications derive their randomness from
// sim.NewStream(l.Seed).Child(r) and run in order on the call's one
// engine.
func SLoPS(l probe.Link, cfg SLoPSConfig) (Estimate, error) {
	ld := l.WithDefaults()
	cfg = cfg.withDefaults()
	lo, hi, err := bracket(ld)
	if err != nil {
		return Estimate{}, err
	}
	if err := checkRate("SLoPS resolution", cfg.ResolutionBps); err != nil {
		return Estimate{}, err
	}
	if cfg.ResolutionBps >= hi-lo {
		// A resolution wider than the bracket would end the search before
		// a single train is sent; reject it rather than return a
		// zero-evidence "estimate".
		return Estimate{}, fmt.Errorf("estimate: SLoPS resolution %g not below the bracket width %g",
			cfg.ResolutionBps, hi-lo)
	}
	if cfg.TrainLen < 8 {
		return Estimate{}, fmt.Errorf("estimate: SLoPS train length %d too short for a trend", cfg.TrainLen)
	}
	if err := cfg.Budget.validate(); err != nil {
		return Estimate{}, err
	}

	root := sim.NewStream(l.Seed)
	g := ledger{budget: cfg.Budget}
	var samples []probe.TrainSample
	classified := false
	for round := 0; round < slopsMaxRounds && hi-lo > cfg.ResolutionBps; round++ {
		mid := (lo + hi) / 2
		li := l
		li.Seed = root.Child(uint64(round)).Seed()
		if err := g.plan.Init(li, cfg.TrainLen, mid); err != nil {
			return g.est, err
		}
		gI := g.plan.GI()
		if reps, reason := g.allow(cfg.Reps, cfg.Reps, cfg.TrainLen, gI); reps < cfg.Reps {
			// Whole rounds only: a bisection step classified on a partial
			// replication set could flip the search's direction relative
			// to the unbudgeted campaign, breaking the prefix property
			// the CI-monotonicity contract rests on.
			g.est.Truncated = reason
			break
		}
		if samples, err = g.round(0, cfg.Reps, samples[:0]); err != nil {
			return g.est, err
		}
		truncated := 0
		var deltas []float64
		for _, s := range samples {
			if s.Truncated {
				// A train the horizon cut short is overload evidence in
				// itself: the queue never drained.
				truncated++
				continue
			}
			if d, ok := owdTrendDelta(s.Departures, gI); ok {
				deltas = append(deltas, d)
			}
		}
		switch {
		case truncated*2 >= len(samples):
			// Half the trains never resolved: unambiguous overload.
			classified = true
			hi = mid
		case len(deltas) == 0:
			// Nothing delivered a readable trend — treat as overload and
			// search lower.
			hi = mid
		case trendIncreasing(deltas, slopsTrendT):
			classified = true
			hi = mid // delays trend upward: probing above the available share
		default:
			classified = true
			lo = mid
		}
	}
	if !classified {
		// The partial Estimate still carries the Cost and Rounds the
		// failed campaign spent, so budget accounting survives.
		return g.est, fmt.Errorf("%w (SLoPS: no train produced a delay trend)", ErrEstimateFailed)
	}
	g.est.Value = (lo + hi) / 2
	g.est.CI = (hi - lo) / 2
	return g.est, nil
}

// owdTrendDelta summarizes one train's delay trend as the difference
// between its second-half and first-half mean one-way delay (seconds).
// The one-way delay of packet i is its departure minus its nominal
// send instant i·gI — the unknown common offset cancels in the
// difference — which is the full queueing-plus-access delay a
// self-loading stream inflates, not just the contention share that
// TrainSample.AccessDelays records. Dropped packets (-1) are skipped;
// the verdict needs a minimum of delivered packets per half; ok
// reports whether enough survived.
func owdTrendDelta(departures []sim.Time, gI sim.Time) (delta float64, ok bool) {
	half := len(departures) / 2
	var sum [2]float64
	var n [2]int
	for i, dep := range departures {
		if dep < 0 {
			continue
		}
		side := 0
		if i >= half {
			side = 1
		}
		sum[side] += (dep - sim.Time(i)*gI).Seconds()
		n[side]++
	}
	if n[0] < 4 || n[1] < 4 {
		return 0, false
	}
	return sum[1]/float64(n[1]) - sum[0]/float64(n[0]), true
}

// trendIncreasing applies the one-sided location test: the mean of the
// per-train deltas must exceed trendT standard errors of their spread.
// A single usable train falls back to its sign; zero spread (identical
// deltas, e.g. a deterministic idle link) to the sign of the mean.
func trendIncreasing(deltas []float64, trendT float64) bool {
	sum := stats.Summarize(deltas)
	if sum.N == 1 {
		return sum.Mean > 0
	}
	sem := sum.StdDev() / math.Sqrt(float64(sum.N))
	if sem == 0 {
		return sum.Mean > 0
	}
	return sum.Mean/sem >= trendT
}
