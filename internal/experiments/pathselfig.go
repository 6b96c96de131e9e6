package experiments

import (
	"fmt"

	"csmabw/internal/mac"
	"csmabw/internal/pathsel"
	"csmabw/internal/probe"
	"csmabw/internal/sim"
)

// PathselParams configures the multi-upstream path-selection
// experiments. The fixture is a forwarder with three candidate
// upstream cells of 1500-byte probes: a clean path whose probing
// station's frame-error rate jumps to 70% at a scheduled instant (the
// time-varying channel under test), a backup against a 0.5 Mb/s
// contender that becomes the best choice after the event, and a decoy
// against a saturating 6 Mb/s contender that is never worth selecting.
type PathselParams struct {
	// Policies are the selection policies compared, in plotting order.
	Policies []pathsel.Policy
	// Epochs is the number of decision rounds per replication.
	Epochs int
	// EpochSeconds is the decision-grid spacing on the experiment
	// timeline.
	EpochSeconds float64
	// TrainLen and RateBps shape each per-path probing train.
	TrainLen int
	RateBps  float64
	// Alpha is the EMA smoothing factor shared by the smoothing
	// policies.
	Alpha float64
	// Hysteresis is the failover margin used by the regret figure; the
	// lag figure sweeps HystSweep instead.
	Hysteresis float64
	// HystSweep are the failover margins the lag figure sweeps.
	HystSweep []float64
	// Explore is the UCB exploration coefficient.
	Explore float64
	// DegradeEpoch is the decision round at whose start the clean
	// path's scheduled degradation fires.
	DegradeEpoch int
	// Seed roots all randomness.
	Seed int64
	// Upstreams, when non-empty, replaces the built-in three-path
	// fixture — cmd/pathsel fills it from compiled scenario specs, one
	// candidate cell per file, each free to carry its own event
	// schedule. DegradeEpoch then names the decision round at which the
	// caller expects the scheduled degradation to become visible.
	Upstreams []probe.Link
}

// DefaultPathsel is the registry fixture: three policies on a 12-epoch
// half-second grid with the clean path collapsing at epoch 6.
func DefaultPathsel() PathselParams {
	return PathselParams{
		Policies:     []pathsel.Policy{pathsel.PolicyEMA, pathsel.PolicyLast, pathsel.PolicyUCB},
		Epochs:       12,
		EpochSeconds: 0.5,
		TrainLen:     16,
		RateBps:      6e6,
		Alpha:        0.4,
		Hysteresis:   0.1,
		HystSweep:    []float64{0, 0.1, 0.25, 0.5, 1},
		Explore:      5,
		DegradeEpoch: 6,
		Seed:         29,
	}
}

// paths builds the three-upstream fixture. Path seeds follow the
// fig10 spacing so replication substreams never collide across paths.
// The warm-up is kept well under the epoch grid so each epoch's
// probing window samples the channel state at its own grid instant:
// with the default 500 ms warm-up the rebased degradation would land
// inside the previous epoch's window and fire one decision early.
func (p PathselParams) paths() []probe.Link {
	if len(p.Upstreams) > 0 {
		return p.Upstreams
	}
	warm := 50 * sim.Millisecond
	fer := 0.7
	degrading := probe.Link{
		ProbeSize: 1500,
		WarmUp:    warm,
		Seed:      p.Seed,
		Schedule: []mac.ScheduledEvent{{
			At:     sim.FromSeconds(float64(p.DegradeEpoch) * p.EpochSeconds),
			Target: 0,
			SetFER: &fer,
		}},
	}
	backup := probe.Link{
		ProbeSize:  1500,
		WarmUp:     warm,
		Seed:       p.Seed + 977,
		Contenders: []probe.Flow{{RateBps: 5e5, Size: 1500}},
	}
	decoy := probe.Link{
		ProbeSize:  1500,
		WarmUp:     warm,
		Seed:       p.Seed + 2*977,
		Contenders: []probe.Flow{{RateBps: 6e6, Size: 1500}},
	}
	return []probe.Link{degrading, backup, decoy}
}

// config assembles the pathsel run for one policy at one margin.
func (p PathselParams) config(pol pathsel.Policy, hysteresis float64) pathsel.Config {
	return pathsel.Config{
		Paths:        p.paths(),
		Epochs:       p.Epochs,
		EpochSeconds: p.EpochSeconds,
		TrainLen:     p.TrainLen,
		RateBps:      p.RateBps,
		Policy:       pol,
		Alpha:        p.Alpha,
		Hysteresis:   hysteresis,
		Explore:      p.Explore,
	}
}

// validate screens the sweep-shaping parameters the pathsel layer
// cannot see.
func (p PathselParams) validate() error {
	if len(p.Policies) == 0 {
		return fmt.Errorf("experiments: pathsel: no policies")
	}
	if p.DegradeEpoch < 1 || p.DegradeEpoch >= p.Epochs {
		return fmt.Errorf("experiments: pathsel: degrade epoch %d outside (0, %d)", p.DegradeEpoch, p.Epochs)
	}
	return nil
}

// newPathselMeter is the per-worker state of the path-selection
// figures.
func newPathselMeter() *pathsel.Meter { return &pathsel.Meter{} }

// SelectionRegret compares the selection policies on a time-varying
// three-upstream cell: every epoch each policy's delivered throughput
// is scored against the per-epoch oracle (the best single path), and
// the figure plots the mean cumulative regret over the decision
// rounds. A policy that reacts slowly to the scheduled degradation —
// or chases noise before it — accumulates regret visibly. Unit
// u = policy·reps + rep.
func SelectionRegret(p PathselParams, sc Scale) (*Figure, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	runs, err := mapUnits(len(p.Policies)*sc.Reps, sc, newPathselMeter, func(m *pathsel.Meter, u int) (*pathsel.Result, error) {
		return pathsel.Run(p.config(p.Policies[u/sc.Reps], p.Hysteresis), u%sc.Reps, m)
	})
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "selection-regret",
		Title:  "Cumulative selection regret on a degrading upstream",
		XLabel: "decision epoch",
		YLabel: "cumulative regret (Mb/s · epochs)",
	}
	for pol, name := range p.Policies {
		cum := make([]float64, p.Epochs)
		for _, res := range runs[pol*sc.Reps : (pol+1)*sc.Reps] {
			run := 0.0
			for k, ep := range res.Epochs {
				run += ep.RegretBps / 1e6
				cum[k] += run
			}
		}
		s := Series{Name: string(name)}
		for k := range cum {
			s.X = append(s.X, float64(k+1))
			s.Y = append(s.Y, cum[k]/float64(sc.Reps))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// FailoverLag sweeps the hysteresis margin and plots how many decision
// rounds each policy needs to abandon the degrading path once its
// scheduled collapse fires — the stability-vs-reactivity trade the
// margin buys. A lag of 1 is the immediate next decision; runs whose
// selection never moves are censored at the remaining round count.
// Unit u = (policy·margins + margin)·reps + rep.
func FailoverLag(p PathselParams, sc Scale) (*Figure, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if len(p.HystSweep) == 0 {
		return nil, fmt.Errorf("experiments: pathsel: empty hysteresis sweep")
	}
	nH := len(p.HystSweep)
	lags, err := mapUnits(len(p.Policies)*nH*sc.Reps, sc, newPathselMeter, func(m *pathsel.Meter, u int) (float64, error) {
		pol, hy := u/(nH*sc.Reps), u/sc.Reps%nH
		res, err := pathsel.Run(p.config(p.Policies[pol], p.HystSweep[hy]), u%sc.Reps, m)
		if err != nil {
			return 0, err
		}
		return float64(res.SwitchLag(p.DegradeEpoch - 1)), nil
	})
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "failover-lag",
		Title:  "Failover lag vs hysteresis margin after a scheduled degradation",
		XLabel: "hysteresis margin",
		YLabel: "mean lag (epochs)",
	}
	for pol, name := range p.Policies {
		s := Series{Name: string(name)}
		for h, margin := range p.HystSweep {
			sum := 0.0
			for _, lag := range lags[(pol*nH+h)*sc.Reps : (pol*nH+h+1)*sc.Reps] {
				sum += lag
			}
			s.X = append(s.X, margin)
			s.Y = append(s.Y, sum/float64(sc.Reps))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
