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
// Determinism: estimators derive every replication's randomness from
// (Link.Seed, round, replication index) through sim.Stream, so results
// are byte-identical at any Link.Workers setting.
package estimate

import (
	"errors"
	"fmt"
	"math"

	"csmabw/internal/probe"
	"csmabw/internal/sim"
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

// add accumulates the cost of one probing train replication. Packets
// are charged as probes actually injected on the air — a replication
// the horizon truncated is only billed for what it sent, never the
// nominal train length.
func (c *Cost) add(s probe.TrainSample, gI sim.Time) {
	c.Trains++
	c.Packets += s.Injected
	c.ProbeSeconds += trainSpan(s, gI)
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

// budgetTracker enforces a Budget across a campaign: it observes every
// train's cost and loss, and prices prospective rounds against the
// remaining allowance.
type budgetTracker struct {
	budget Budget
	// maxSpan is the largest per-train wire time observed so far — the
	// campaign's own forecast of what the next train may cost.
	maxSpan float64
	// injected/delivered accumulate probe-packet counts across the
	// campaign; their ratio is the loss fraction sigma inflation reads.
	injected, delivered int
}

// note records one train's observed cost and delivery counts.
func (t *budgetTracker) note(s probe.TrainSample, gI sim.Time) {
	if span := trainSpan(s, gI); span > t.maxSpan {
		t.maxSpan = span
	}
	t.injected += s.Injected
	t.delivered += s.Delivered
}

// lossFrac is the campaign's probe loss fraction p — packets injected
// but never delivered, over packets injected.
func (t *budgetTracker) lossFrac() float64 {
	if t.injected == 0 {
		return 0
	}
	return float64(t.injected-t.delivered) / float64(t.injected)
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
func (t *budgetTracker) allow(c Cost, want, pilot, trainLen int, gI sim.Time) (int, Truncation) {
	if !t.budget.Enabled() || want < 1 {
		return want, TruncatedNone
	}
	n, reason := want, TruncatedNone
	if max := t.budget.MaxPackets; max > 0 {
		if byPackets := (max - c.Packets) / trainLen; byPackets < n {
			n, reason = byPackets, TruncatedPackets
		}
	}
	if max := t.budget.MaxProbeSeconds; max > 0 {
		remaining := max - c.ProbeSeconds
		// Forecast per-train wire time: the campaign's own slowest train
		// with a safety margin, floored by the nominal input span. Before
		// the first observation the drain envelope stands in — wildly
		// conservative, so the first unit of a time-capped campaign is
		// admitted on the remaining time alone (a campaign that sends
		// nothing can estimate nothing).
		per := timeMargin * t.maxSpan
		if nominal := (sim.Time(trainLen-1) * gI).Seconds(); per < nominal {
			per = nominal
		}
		if t.maxSpan == 0 {
			per = pessimisticSpan(trainLen, gI)
		}
		byTime := n
		if per > 0 {
			byTime = int(remaining / per)
			if byTime < pilot && t.maxSpan == 0 && c.Trains == 0 && remaining > 0 {
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
