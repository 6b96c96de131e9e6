// Package pathsel simulates multi-upstream path selection over the
// probe layer's measured cells: a forwarder with several candidate
// WLAN upstreams probes each one every epoch, scores them on
// rate/delay/jitter/loss, and routes its traffic over the best — the
// bwprobe-as-a-service workload that available-bandwidth estimation
// feeds in practice. Each upstream is a probe.Link, so the cells carry
// everything the simulator models — contention, hidden stations,
// capture, and (the reason this package exists) scheduled mid-run
// channel changes: a path that degrades at a known instant lets the
// experiments measure how fast each selection policy walks away from
// it and how much throughput the decision lag costs.
//
// The scoring follows the multiplicative-subscore shape of deployed
// path scorers: each metric maps to a subscore in (0, 1] and the
// combined score is 100 · s_del · s_jit · s_los, so one bad dimension
// drags the product down regardless of the others. Selection is
// hysteretic — an incumbent is only abandoned for a challenger whose
// score clears a relative margin.
package pathsel

import (
	"fmt"
	"math"

	"csmabw/internal/mac"
	"csmabw/internal/probe"
	"csmabw/internal/sim"
)

// Policy names a selection policy.
type Policy string

// The selection policies a Config can pick.
const (
	// PolicyEMA scores each path's EMA-smoothed metrics and selects
	// the best (with hysteresis) — the deployed-scorer default.
	PolicyEMA Policy = "ema"
	// PolicyLast scores each path's raw last sample, no smoothing —
	// reactive but noise-chasing.
	PolicyLast Policy = "last"
	// PolicyUCB adds an exploration bonus shrinking with each path's
	// selection count to the EMA score — optimism under uncertainty.
	PolicyUCB Policy = "ucb"
)

// Config describes a path-selection experiment: the candidate
// upstreams, the probing plan each epoch runs, and the policy knobs.
type Config struct {
	// Paths are the candidate upstream cells. Each path's Schedule is
	// laid out on the experiment's timeline: epoch k measures the path
	// with every event at or before k·EpochSeconds already applied and
	// later events rebased into the epoch's run.
	Paths []probe.Link
	// Epochs is the number of decision rounds.
	Epochs int
	// EpochSeconds is the timeline spacing between decision rounds,
	// used to rebase each path's schedule (default 1).
	EpochSeconds float64
	// TrainLen is the probe packets per per-path measurement
	// (default 50).
	TrainLen int
	// RateBps is the probing rate of each measurement train
	// (default 6 Mb/s).
	RateBps float64
	// Policy selects the scoring policy (default PolicyEMA).
	Policy Policy
	// Alpha is the EMA smoothing factor in (0, 1]; 1 disables memory
	// (default 0.3).
	Alpha float64
	// Hysteresis is the relative score margin a challenger must clear
	// over the incumbent before a failover (default 0.1).
	Hysteresis float64
	// Explore is the UCB exploration coefficient, in score points
	// (PolicyUCB only; default 10).
	Explore float64
}

// WithDefaults returns the config with zero-valued knobs resolved.
func (c Config) WithDefaults() Config {
	if c.EpochSeconds == 0 {
		c.EpochSeconds = 1
	}
	if c.TrainLen == 0 {
		c.TrainLen = 50
	}
	if c.RateBps == 0 {
		c.RateBps = 6e6
	}
	if c.Policy == "" {
		c.Policy = PolicyEMA
	}
	if c.Alpha == 0 {
		c.Alpha = 0.3
	}
	if c.Explore == 0 {
		c.Explore = 10
	}
	return c
}

// Validate screens the config (after WithDefaults) for the selection
// loop: at least one path, each path a valid cell, positive epochs and
// plan, knobs finite and in range.
func (c Config) Validate() error {
	if len(c.Paths) == 0 {
		return fmt.Errorf("pathsel: no paths")
	}
	for i, l := range c.Paths {
		if err := l.Validate(); err != nil {
			return fmt.Errorf("pathsel: path %d: %w", i, err)
		}
	}
	if c.Epochs < 1 {
		return fmt.Errorf("pathsel: %d epochs", c.Epochs)
	}
	if !(c.EpochSeconds > 0) || math.IsInf(c.EpochSeconds, 0) {
		return fmt.Errorf("pathsel: epoch duration %g s", c.EpochSeconds)
	}
	if c.TrainLen < 2 {
		return fmt.Errorf("pathsel: train length %d", c.TrainLen)
	}
	if !(c.RateBps > 0) || math.IsInf(c.RateBps, 0) {
		return fmt.Errorf("pathsel: probing rate %g", c.RateBps)
	}
	switch c.Policy {
	case PolicyEMA, PolicyLast, PolicyUCB:
	default:
		return fmt.Errorf("pathsel: unknown policy %q (ema|last|ucb)", c.Policy)
	}
	if !(c.Alpha > 0 && c.Alpha <= 1) {
		return fmt.Errorf("pathsel: EMA alpha %g outside (0, 1]", c.Alpha)
	}
	if math.IsNaN(c.Hysteresis) || math.IsInf(c.Hysteresis, 0) || c.Hysteresis < 0 {
		return fmt.Errorf("pathsel: hysteresis %g", c.Hysteresis)
	}
	if math.IsNaN(c.Explore) || math.IsInf(c.Explore, 0) || c.Explore < 0 {
		return fmt.Errorf("pathsel: exploration coefficient %g", c.Explore)
	}
	return nil
}

// Meas is one epoch's measurement of one path.
type Meas struct {
	// RateBps is the dispersion rate estimate — probe size over the
	// measured output gap; 0 when the train yielded no dispersion.
	RateBps float64
	// Delay is the mean probe access delay in seconds.
	Delay float64
	// Jitter is the access-delay standard deviation in seconds.
	Jitter float64
	// Loss is the probe loss fraction in [0, 1].
	Loss float64
}

// scoreRef is the reference scale, in seconds, that maps access delay
// and jitter into subscores s = 1/(1 + x/scoreRef).
const scoreRef = 0.005

// Score maps a measurement to the combined selection score
// 100 · s_del · s_jit · s_los with s_del = 1/(1+delay/5ms),
// s_jit = 1/(1+jitter/5ms), s_los = 1−loss: each subscore lives in
// (0, 1], so one bad dimension caps the product no matter how good
// the others are.
func Score(m Meas) float64 {
	sDel := 1 / (1 + math.Max(m.Delay, 0)/scoreRef)
	sJit := 1 / (1 + math.Max(m.Jitter, 0)/scoreRef)
	sLos := 1 - math.Min(math.Max(m.Loss, 0), 1)
	return 100 * sDel * sJit * sLos
}

// Epoch is one decision round's record.
type Epoch struct {
	// Meas holds each path's measurement this round.
	Meas []Meas
	// Scores holds each path's policy score this round.
	Scores []float64
	// Selected is the decision standing after this round: the path that
	// will route the migratable traffic through the NEXT round. The
	// traffic during this round rode the previous round's decision —
	// selection acts on past measurements, so a sluggish policy pays
	// for its lag in DeliveredBps.
	Selected int
	// Switched marks a failover: Selected differs from last round.
	Switched bool
	// Routed is the path that actually carried the migratable traffic
	// this round — the previous round's Selected (round 0 bootstraps
	// on its own decision).
	Routed int
	// DeliveredBps is the delivered throughput: the routed path's
	// measured rate.
	DeliveredBps float64
	// BestBps is the best single path's rate this round — the oracle.
	BestBps float64
	// RegretBps is BestBps − DeliveredBps, the price of the decision.
	RegretBps float64
}

// Result is one replication of the selection experiment.
type Result struct {
	// Epochs holds every decision round in order.
	Epochs []Epoch
	// MeanDeliveredBps averages DeliveredBps over the rounds.
	MeanDeliveredBps float64
	// MeanRegretBps averages RegretBps over the rounds.
	MeanRegretBps float64
	// Switches counts the failovers.
	Switches int
}

// SwitchLag returns the number of epochs after the from-epoch until
// the selection first moves away from the path selected at from — the
// failover lag when a path is known to degrade at from. It returns
// Epochs−from when the selection never moves (the experiment's
// censoring bound), and 0 when from is out of range.
func (r *Result) SwitchLag(from int) int {
	if from < 0 || from >= len(r.Epochs) {
		return 0
	}
	at := r.Epochs[from].Selected
	for k := from + 1; k < len(r.Epochs); k++ {
		if r.Epochs[k].Selected != at {
			return k - from
		}
	}
	return len(r.Epochs) - from
}

// Meter is the per-worker measurement arena: one simulation engine, and
// the plan, rebased schedule and sample of a path probe, reused across
// every probe a worker executes, so a warm meter's Run allocates only
// its Result, whatever the number of epochs. The zero value is ready; a
// nil meter runs each probe on a fresh engine.
type Meter struct {
	tm     probe.TrainMeter
	plan   probe.TrainPlan
	sched  []mac.ScheduledEvent
	sample probe.TrainSample
}

// rebase appends to dst the path's schedule shifted onto an epoch's
// local timeline: events at or before the epoch's start collapse to
// instant 0 (applied, in order, before the first transmission — the
// cumulative channel state), later ones keep their offset into the
// epoch.
func rebase(dst, sched []mac.ScheduledEvent, start sim.Time) []mac.ScheduledEvent {
	for _, ev := range sched {
		ev.At = max(ev.At-start, 0)
		dst = append(dst, ev)
	}
	return dst
}

// measOf reduces a train sample to the selection metrics.
func measOf(s probe.TrainSample, probeBits float64) Meas {
	var m Meas
	if s.GO > 0 {
		m.RateBps = probeBits / s.GO.Seconds()
	}
	nDel := 0
	var sum, sumSq float64
	for _, d := range s.AccessDelays {
		if d < 0 {
			continue
		}
		nDel++
		sum += d
		sumSq += d * d
	}
	if nDel > 0 {
		m.Delay = sum / float64(nDel)
		if v := sumSq/float64(nDel) - m.Delay*m.Delay; v > 0 {
			m.Jitter = math.Sqrt(v)
		}
	}
	if s.Injected > 0 {
		m.Loss = 1 - float64(s.Delivered)/float64(s.Injected)
	}
	return m
}

// Run executes one replication of the selection experiment: every
// epoch it measures every path (rebasing the path schedules onto the
// epoch timeline), scores them under the configured policy, applies
// hysteretic selection, and accounts delivered throughput against the
// per-epoch oracle. Selection acts on past information: the traffic of
// epoch k rides the decision made at epoch k−1, so even an instantly
// reactive policy pays one epoch of regret when a path collapses — and
// a sluggish one pays its full decision lag. The result is a pure
// function of (cfg, rep) — all
// randomness derives from the path seeds, the epoch and the
// replication index — so any worker pool reproduces it bit for bit.
func Run(cfg Config, rep int, m *Meter) (*Result, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nP := len(cfg.Paths)
	epochDur := sim.FromSeconds(cfg.EpochSeconds)
	var tm *probe.TrainMeter
	if m == nil {
		m = &Meter{} // storage for the probes; tm stays nil
	} else {
		tm = &m.tm
	}

	ema := make([]Meas, nP)
	uses := make([]int, nP)
	meas := make([]Meas, cfg.Epochs*nP)
	scores := make([]float64, cfg.Epochs*nP)
	sel := -1
	res := &Result{Epochs: make([]Epoch, 0, cfg.Epochs)}
	for k := 0; k < cfg.Epochs; k++ {
		start := sim.Time(k) * epochDur
		lo, hi := k*nP, (k+1)*nP
		ep := Epoch{Meas: meas[lo:hi:hi], Scores: scores[lo:hi:hi]}
		for p := 0; p < nP; p++ {
			l := cfg.Paths[p]
			m.sched = rebase(m.sched[:0], l.Schedule, start)
			l.Schedule = m.sched
			// Independent randomness per (path, epoch, replication):
			// the probing trains sample each epoch's channel afresh.
			l.Seed += int64(k)*1_000_003 + int64(p)*7919
			if err := m.plan.Init(l, cfg.TrainLen, cfg.RateBps); err != nil {
				return nil, fmt.Errorf("pathsel: path %d epoch %d: %w", p, k, err)
			}
			size := l.ProbeSize
			if size == 0 {
				size = 1500
			}
			if err := m.plan.MeasureInto(tm, rep, &m.sample); err != nil {
				return nil, fmt.Errorf("pathsel: path %d epoch %d: %w", p, k, err)
			}
			ep.Meas[p] = measOf(m.sample, float64(size*8))
			if k == 0 {
				ema[p] = ep.Meas[p]
			} else {
				a := cfg.Alpha
				ema[p] = Meas{
					RateBps: a*ep.Meas[p].RateBps + (1-a)*ema[p].RateBps,
					Delay:   a*ep.Meas[p].Delay + (1-a)*ema[p].Delay,
					Jitter:  a*ep.Meas[p].Jitter + (1-a)*ema[p].Jitter,
					Loss:    a*ep.Meas[p].Loss + (1-a)*ema[p].Loss,
				}
			}
			switch cfg.Policy {
			case PolicyLast:
				ep.Scores[p] = Score(ep.Meas[p])
			case PolicyEMA:
				ep.Scores[p] = Score(ema[p])
			case PolicyUCB:
				ep.Scores[p] = Score(ema[p]) +
					cfg.Explore*math.Sqrt(math.Log(float64(k+2))/float64(1+uses[p]))
			}
		}

		best := 0
		for p := 1; p < nP; p++ {
			if ep.Scores[p] > ep.Scores[best] {
				best = p
			}
		}
		routed := sel // last round's decision carries this round's traffic
		switch {
		case sel < 0:
			sel = best
			routed = best // round 0 bootstraps on its own decision
		case best != sel && ep.Scores[best] > ep.Scores[sel]*(1+cfg.Hysteresis):
			sel = best
			ep.Switched = true
			res.Switches++
		}
		uses[sel]++
		ep.Selected = sel
		ep.Routed = routed

		ep.DeliveredBps = ep.Meas[routed].RateBps
		for p := 0; p < nP; p++ {
			if ep.Meas[p].RateBps > ep.BestBps {
				ep.BestBps = ep.Meas[p].RateBps
			}
		}
		ep.RegretBps = ep.BestBps - ep.DeliveredBps
		if ep.RegretBps < 0 {
			ep.RegretBps = 0
		}
		res.Epochs = append(res.Epochs, ep)
		res.MeanDeliveredBps += ep.DeliveredBps
		res.MeanRegretBps += ep.RegretBps
	}
	res.MeanDeliveredBps /= float64(cfg.Epochs)
	res.MeanRegretBps /= float64(cfg.Epochs)
	return res, nil
}
