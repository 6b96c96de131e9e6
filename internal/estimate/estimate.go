// Package estimate implements closed-loop available-bandwidth
// estimators on top of the probe layer — the estimation *tools* whose
// distortion on CSMA/CA links the reproduced paper (Sections 5.3 and
// 7.3–7.4) is about. Where package probe measures raw dispersions,
// this package drives whole measurement campaigns: it decides which
// rates to probe, how many trains to send, and when the answer is good
// enough, exactly as deployed tools do.
//
// Three estimator families are provided:
//
//   - TOPP: a probing-rate sweep whose rate-response curve is inverted
//     by linear regression (the Trains of Packet Pairs idea the paper's
//     reference [13] builds on).
//   - SLoPS: a pathload-style binary search on the one-way-delay trend
//     of probing trains (Self-Loading Periodic Streams).
//   - Adaptive: a sequential controller that keeps replicating trains
//     at a fixed rate until the estimate's 95% confidence half-width
//     falls under a target — the statistical stopping rule
//     n = ceil((z·sigma/eps)^2) realized one batch at a time.
//
// Every estimator returns an Estimate carrying the value, its
// confidence half-width, and the probing Cost that bought it, so
// accuracy can be traded against intrusiveness explicitly. On a
// CSMA/CA link all of them converge not to the available bandwidth A
// of the fluid model but to (a biased version of) the achievable
// throughput B — the paper's central point — which is what GroundTruth
// measures for scoring.
//
// An estimator call is one serial loop: each round is priced against
// the budget, planned, and measured on the call's one engine, and each
// train is charged once to the cost ledger. Parallelism lives with the
// callers — the campaign fleet and the experiments figures run many
// calls at once. Every replication's randomness derives from
// (Link.Seed, round, replication index) through sim.Stream, so a
// result does not depend on which goroutine ran it.
package estimate

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"csmabw/internal/probe"
	"csmabw/internal/sim"
	"csmabw/internal/stats"
)

// Cost is the probing effort an estimate consumed, the currency of the
// accuracy/intrusiveness frontier.
type Cost struct {
	// Trains is the number of probing trains (or long CBR runs) sent.
	Trains int
	// Packets is the number of probe packets injected.
	Packets int
	// ProbeSeconds is the cumulative wall-clock time the probing flow
	// was on the wire.
	ProbeSeconds float64
}

// trainSpan estimates how long one train occupied the path: the span
// of its delivered departures, floored by the nominal input spacing of
// the probes actually injected. A degenerate train — back-to-back
// (gI = 0) with at most one delivered departure — has neither a
// departure span nor a nominal one, yet its packets did contend for
// the channel; the access delays of the delivered probes are the floor
// then, so such a train never reports zero probe-seconds while having
// measurably occupied the medium.
func trainSpan(s probe.TrainSample, gI sim.Time) float64 {
	first, last := sim.Time(-1), sim.Time(-1)
	for _, d := range s.Departures {
		if d < 0 {
			continue
		}
		if first < 0 {
			first = d
		}
		last = d
	}
	span := (last - first).Seconds()
	if n := s.Injected; n > 1 {
		if nominal := (sim.Time(n-1) * gI).Seconds(); span < nominal {
			span = nominal
		}
	}
	if span <= 0 {
		span = 0
		for _, d := range s.AccessDelays {
			if d > 0 {
				span += d
			}
		}
	}
	return span
}

// Estimate is a closed-loop estimator's verdict.
type Estimate struct {
	// Value is the estimated available bandwidth in bit/s.
	Value float64
	// CI is the 95% confidence half-width of Value in bit/s. For the
	// bisection estimator it is the final search bracket's half-width.
	// When a Budget truncated the campaign this is the *effective*
	// half-width the collected evidence actually supports
	// (epsilon_eff), never the target the campaign was aiming for.
	CI float64
	// Cost is the probing effort spent.
	Cost Cost
	// Rounds is how many closed-loop rounds the estimator ran: sweep
	// points for TOPP, bisection rounds for SLoPS, batches for the
	// adaptive controller.
	Rounds int
	// Truncated names the budget cap that cut the campaign short, or
	// TruncatedNone for a campaign that ran to its own stopping rule.
	Truncated Truncation
}

// Truncation names the Budget cap that ended a campaign early.
type Truncation string

// The truncation reasons a budgeted campaign can report.
const (
	// TruncatedNone: no cap fired; the campaign stopped on its own rule.
	TruncatedNone Truncation = ""
	// TruncatedTime: the MaxProbeSeconds cap ended the campaign.
	TruncatedTime Truncation = "time"
	// TruncatedPackets: the MaxPackets cap ended the campaign.
	TruncatedPackets Truncation = "packets"
)

// Budget is a hard cap on a campaign's probing effort — the
// bwprobe-style max-duration/max-bytes allocation applied to the
// simulated estimators. The zero value is unlimited and leaves every
// estimator byte-identical to its unbudgeted behavior. With a cap set,
// the estimator checks the ledger between rounds and sizes each round
// to the remaining allowance; when a cap truncates the campaign the
// best estimate so far is still returned, carrying the effective
// confidence half-width actually achieved and the Truncation reason.
//
// Enforcement semantics: MaxPackets is exact — rounds are shrunk so
// the nominal packets planned never exceed the remainder, and injected
// counts never exceed nominal. MaxProbeSeconds is enforced by
// forecasting each round's wire time from the campaign's own observed
// per-train spans (with a safety margin, and a pessimistic envelope
// before the first observation); a campaign therefore stops before the
// forecast crosses the cap, and only a train wildly outlier-slower
// than everything before it could overshoot.
type Budget struct {
	// MaxProbeSeconds caps Cost.ProbeSeconds, the cumulative wall-clock
	// time the probing flow occupies the wire; 0 means uncapped.
	MaxProbeSeconds float64
	// MaxPackets caps Cost.Packets, the probe packets injected;
	// 0 means uncapped.
	MaxPackets int
}

// Enabled reports whether any cap is set; the zero value is a no-op.
func (b Budget) Enabled() bool { return b.MaxProbeSeconds > 0 || b.MaxPackets > 0 }

// validate rejects non-finite or negative caps. NaN must be refused
// explicitly: it fails every comparison, so an Enabled/remaining check
// alone would silently treat it as uncapped.
func (b Budget) validate() error {
	if math.IsNaN(b.MaxProbeSeconds) || math.IsInf(b.MaxProbeSeconds, 0) || b.MaxProbeSeconds < 0 {
		return fmt.Errorf("estimate: budget MaxProbeSeconds %g must be finite and >= 0", b.MaxProbeSeconds)
	}
	if b.MaxPackets < 0 {
		return fmt.Errorf("estimate: budget MaxPackets %d must be >= 0", b.MaxPackets)
	}
	return nil
}

// timeMargin is the safety factor applied to the observed per-train
// span when forecasting whether another train still fits the time cap:
// the next train may run somewhat slower than the slowest seen so far
// without overshooting the budget.
const timeMargin = 1.5

// ledger is one estimator call's probing state: the one TrainPlan each
// round plans into with Init and the one TrainMeter it measures on, the
// Estimate the rounds are charged to, and the budget accounting that
// prices the next round.
type ledger struct {
	plan  probe.TrainPlan
	meter probe.TrainMeter
	// est is the verdict so far; round charges its Cost and Rounds.
	est    Estimate
	budget Budget
	// maxSpan is the largest per-train wire time observed so far — the
	// campaign's own forecast of what the next train may cost.
	maxSpan float64
	// injected/delivered accumulate probe-packet counts across the
	// campaign; their ratio is the loss fraction sigma inflation reads.
	injected, delivered int
}

// round measures replications first..first+reps-1 of the ledger's
// plan, in order, on its meter and appends their samples to into,
// measuring into the samples past len(into) that into's storage still
// holds: an estimator that passes back samples[:0] reuses the last
// round's samples instead of allocating new ones. Only a round measured
// in full is charged: it counts in Estimate.Rounds, and each of its
// trains is charged once.
func (g *ledger) round(first, reps int, into []probe.TrainSample) ([]probe.TrainSample, error) {
	if reps < 1 {
		return into, fmt.Errorf("estimate: %d replications in a round", reps)
	}
	n := len(into)
	into = slices.Grow(into, reps)[:n+reps]
	for i := range into[n:] {
		if err := g.plan.MeasureInto(&g.meter, first+i, &into[n+i]); err != nil {
			return into[:n+i], err
		}
	}
	g.est.Rounds++
	for _, s := range into[n:] {
		g.charge(s, g.plan.GI())
	}
	return into, nil
}

// charge bills one measured train to the cost ledger and the budget
// accounting. Packets are charged as probes actually injected on the
// air — a replication the horizon truncated is only billed for what it
// sent, never the nominal train length.
func (g *ledger) charge(s probe.TrainSample, gI sim.Time) {
	span := trainSpan(s, gI)
	g.est.Cost.Trains++
	g.est.Cost.Packets += s.Injected
	g.est.Cost.ProbeSeconds += span
	if span > g.maxSpan {
		g.maxSpan = span
	}
	g.injected += s.Injected
	g.delivered += s.Delivered
}

// inflation is the loss-aware sigma inflation factor a budgeted
// campaign applies to its reported confidence half-width, at the
// campaign's probe loss fraction (packets injected but never
// delivered, over packets injected). It only engages with a Budget
// set — the honest-effective-error regime is what Budget opts into —
// so unbudgeted campaigns report byte-identical CIs to the pre-budget
// estimators.
func (g *ledger) inflation() float64 {
	if !g.budget.Enabled() {
		return 1
	}
	loss := 0.0
	if g.injected > 0 {
		loss = float64(g.injected-g.delivered) / float64(g.injected)
	}
	return stats.SigmaInflation(loss)
}

// pessimisticSpan bounds one train's wire time before any train has
// been observed: the probe layer's own drain envelope (40ms of service
// headroom per packet plus a 200ms tail), which a train cannot exceed
// because the simulation horizon itself is set from it.
func pessimisticSpan(trainLen int, gI sim.Time) float64 {
	return (sim.Time(trainLen)*gI + sim.Time(trainLen)*40*sim.Millisecond + 200*sim.Millisecond).Seconds()
}

// allow prices a round of `want` trains of `trainLen` packets against
// the remaining budget and returns how many may start, with the cap
// that shrank the round when fewer than `want` fit. Zero allowed means
// the campaign must stop, reporting the Truncation. With no budget
// enabled every round passes through untouched.
//
// pilot is the estimator's minimum unit of work — the admission when no
// train has been observed yet and the time forecast is only the
// pessimistic drain envelope: one train for the estimators that can act
// on a partial round (TOPP, adaptive), a whole round for SLoPS, whose
// whole-rounds-only rule would otherwise turn the envelope's pessimism
// into an immediate empty campaign. The pilot bypasses only the time
// forecast, never the exact packet cap.
func (g *ledger) allow(want, pilot, trainLen int, gI sim.Time) (int, Truncation) {
	if !g.budget.Enabled() || want < 1 {
		return want, TruncatedNone
	}
	c := g.est.Cost
	n, reason := want, TruncatedNone
	if max := g.budget.MaxPackets; max > 0 {
		if byPackets := (max - c.Packets) / trainLen; byPackets < n {
			n, reason = byPackets, TruncatedPackets
		}
	}
	if max := g.budget.MaxProbeSeconds; max > 0 {
		remaining := max - c.ProbeSeconds
		// Forecast per-train wire time: the campaign's own slowest train
		// with a safety margin, floored by the nominal input span. Before
		// the first observation the drain envelope stands in — wildly
		// conservative, so the first unit of a time-capped campaign is
		// admitted on the remaining time alone (a campaign that sends
		// nothing can estimate nothing).
		per := timeMargin * g.maxSpan
		if nominal := (sim.Time(trainLen-1) * gI).Seconds(); per < nominal {
			per = nominal
		}
		if g.maxSpan == 0 {
			per = pessimisticSpan(trainLen, gI)
		}
		byTime := n
		if per > 0 {
			byTime = int(remaining / per)
			if byTime < pilot && g.maxSpan == 0 && c.Trains == 0 && remaining > 0 {
				byTime = pilot // first-unit admission under the envelope
			}
		}
		if byTime < n {
			n, reason = byTime, TruncatedTime
		}
	}
	if n < 0 {
		n = 0
	}
	if n >= want {
		return want, TruncatedNone
	}
	return n, reason
}

// ErrEstimateFailed reports that an estimator could not produce a
// usable value at all — every probing round came back without a
// dispersion or trend to act on.
var ErrEstimateFailed = errors.New("estimate: no usable probing round")

// ErrTargetNotReached reports that the adaptive controller exhausted
// its replication budget before the confidence target was met; the
// returned Estimate still carries the best value and its (too-wide)
// confidence interval.
var ErrTargetNotReached = errors.New("estimate: confidence target not reached within the replication budget")

// gaps collects the usable per-replication output gaps (seconds) of a
// train measurement: truncated replications and trains with fewer than
// two delivered probes carry no dispersion and are excluded.
func gaps(samples []probe.TrainSample) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.Truncated || s.GO <= 0 {
			continue
		}
		out = append(out, s.GO.Seconds())
	}
	return out
}

// checkRate validates a probing-rate bracket. NaN must be rejected
// explicitly: it fails every comparison, so `v <= 0` alone would let
// it through.
func checkRate(name string, v float64) error {
	if !(v > 0) || math.IsInf(v, 0) {
		return fmt.Errorf("estimate: %s %g must be positive and finite", name, v)
	}
	return nil
}

// bracket is the probing-rate range TOPP sweeps and SLoPS bisects on
// the link l (defaults applied): from 0.25 Mb/s to 1.2 times the PHY's
// saturation throughput bound for the probe size. An empty or
// non-finite bracket is an error.
func bracket(l probe.Link) (lo, hi float64, err error) {
	lo, hi = 0.25e6, 1.2*l.Phy.MaxThroughput(l.ProbeSize)
	if !(hi > lo) || math.IsInf(hi, 0) {
		return 0, 0, fmt.Errorf("estimate: probing-rate bracket [%g, %g] empty", lo, hi)
	}
	return lo, hi, nil
}

// checkFrac validates a fraction-like knob (the relative CI targets)
// against NaN as well as its (lo, hi) range; zero is allowed as the
// "use the default" sentinel.
func checkFrac(name string, v, lo, hi float64) error {
	if v == 0 {
		return nil
	}
	if math.IsNaN(v) || v <= lo || v >= hi {
		return fmt.Errorf("estimate: %s %g outside (%g, %g)", name, v, lo, hi)
	}
	return nil
}
