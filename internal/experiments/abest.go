package experiments

// This file holds the closed-loop estimator evaluation: where the
// paper's figures measure raw dispersions, these figures run whole
// estimation campaigns (internal/estimate) against measured ground
// truth — the end-to-end scoring of the tools whose distortion the
// paper predicts. Three questions, one figure each: how accurate are
// the estimators as cross-load grows (abest-accuracy), what does
// accuracy cost in probing effort (abest-frontier), and how do the
// estimators hold up across the scenario matrix the simulator has
// accumulated — frame loss, hidden terminals, EDCA priorities, mixed
// rates (abest-robust).

import (
	"errors"
	"fmt"

	"csmabw/internal/estimate"
	"csmabw/internal/mac"
	"csmabw/internal/phy"
	"csmabw/internal/probe"
	"csmabw/internal/sim"
)

// DefaultAbest is the estimator figures' cell: 1500-byte probes and no
// contender of its own, on seed 51. Figure k of accuracy, frontier,
// robust and budget draws its units from sim.NewStream(Seed+k).
func DefaultAbest() probe.Link { return probe.Link{ProbeSize: 1500, Seed: 51} }

// abCrossBps is the fixed moderate cross-load of the frontier,
// robustness and budget figures, around the paper's Fig. 2/3 operating
// points.
const abCrossBps = 2.5e6

// estimatorSet indexes the estimators the abest figures dispatch
// through abRun. Index 0 is the ground-truth measurement.
const (
	abTruth = iota
	abTOPP
	abSLoPS
	abAdaptive
	abEstimators // count
)

// abName is the series name per estimator index.
func abName(k int) string {
	switch k {
	case abTruth:
		return "ground truth"
	case abTOPP:
		return "TOPP"
	case abSLoPS:
		return "SLoPS"
	case abAdaptive:
		return "adaptive train"
	}
	panic(fmt.Sprintf("experiments: estimator index %d", k))
}

// abestEffort is the estimators' effort knobs as derived from an
// experiment Scale.
type abestEffort struct {
	// TOPP configures the rate-sweep estimator.
	TOPP estimate.TOPPConfig
	// SLoPS configures the self-loading bisection.
	SLoPS estimate.SLoPSConfig
	// Adaptive configures the sequential train controller.
	Adaptive estimate.AdaptiveConfig
	// Truth configures the ground-truth measurement.
	Truth estimate.TruthConfig
}

// scaledAbestEffort maps the experiment Scale onto the estimators'
// effort knobs, so tiny test runs stay fast while default and paper
// scales buy statistical weight.
func scaledAbestEffort(sc Scale) abestEffort {
	reps := func(div, floor int) int {
		r := sc.Reps / div
		if r < floor {
			r = floor
		}
		return r
	}
	return abestEffort{
		TOPP:     estimate.TOPPConfig{TrainLen: 50, Reps: reps(20, 3)},
		SLoPS:    estimate.SLoPSConfig{TrainLen: 60, Reps: reps(25, 3)},
		Adaptive: estimate.AdaptiveConfig{RateBps: 12e6, TrainLen: 100, BatchReps: reps(25, 4), MaxReps: 4 * reps(1, 64)},
		Truth:    estimate.TruthConfig{Duration: 4 * sim.FromSeconds(sc.SteadySeconds)},
	}
}

// abOutcome is one estimator run: its estimate, and whether it produced
// a value the figure can plot.
type abOutcome struct {
	estimate.Estimate
	ok bool
}

// abRun dispatches one estimator on the link. The outcome is not ok
// when the estimator could not produce a value (estimate.
// ErrEstimateFailed) — the figure then skips the point instead of
// plotting a bogus number.
func abRun(k int, l probe.Link, cfg abestEffort) (abOutcome, error) {
	var e estimate.Estimate
	var err error
	switch k {
	case abTruth:
		tr, err := estimate.GroundTruth(l, cfg.Truth)
		return abOutcome{estimate.Estimate{Value: tr.AvailableBps}, err == nil}, err
	case abTOPP:
		e, err = estimate.TOPP(l, cfg.TOPP)
	case abSLoPS:
		e, err = estimate.SLoPS(l, cfg.SLoPS)
	case abAdaptive:
		e, err = estimate.Adaptive(l, cfg.Adaptive)
	default:
		return abOutcome{}, fmt.Errorf("experiments: estimator index %d", k)
	}
	switch {
	case errors.Is(err, estimate.ErrEstimateFailed):
		// No usable value, but the partial Estimate still carries the
		// Cost and Rounds the failed campaign spent — budget accounting
		// survives even when the figure skips the point.
		return abOutcome{e, false}, nil
	case errors.Is(err, estimate.ErrTargetNotReached):
		// The budget ran out: the best-effort value still plots, its
		// (wide) CI tells the story.
		return abOutcome{e, true}, nil
	case err != nil:
		return abOutcome{}, err
	}
	return abOutcome{e, true}, nil
}

// relErr is |v-truth| as a percentage of truth.
func relErr(v, truth float64) float64 {
	rel := 100 * (v - truth) / truth
	if rel < 0 {
		rel = -rel
	}
	return rel
}

// AbestAccuracy sweeps the contending cross-load from idle to past the
// saturation knee (0 to 5 Mb/s) and scores every estimator against the
// measured ground truth at that load — the estimator-layer rendering
// of the paper's Fig. 16 comparison, with whole closed-loop tools in
// place of single dispersion measurements. Unit u runs estimator
// u%abEstimators at cross level u/abEstimators.
func AbestAccuracy(cell probe.Link, sc Scale) (*Figure, error) {
	crossRates := []float64{0, 1e6, 2e6, 3e6, 4e6, 5e6}
	cfg := scaledAbestEffort(sc)
	root := sim.NewStream(cell.Seed)
	outs, err := mapUnits(len(crossRates)*abEstimators, sc, nil, func(_ struct{}, u int) (abOutcome, error) {
		return abRun(u%abEstimators, crossCell(&cell, root.Child(uint64(u)).Seed(), crossRates[u/abEstimators]), cfg)
	})
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "abest-accuracy",
		Title:  "Closed-loop estimator accuracy vs contending cross-load",
		XLabel: "cross-traffic rate (Mb/s)",
		YLabel: "estimated available bandwidth (Mb/s)",
	}
	for k := 0; k < abEstimators; k++ {
		s := Series{Name: abName(k)}
		for i, cr := range crossRates {
			if o := outs[i*abEstimators+k]; o.ok {
				s.X = append(s.X, cr/1e6)
				s.Y = append(s.Y, o.Value/1e6)
			}
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// AbestFrontier sweeps the adaptive controller's confidence target
// from sloppy to tight (20% to 2.5%) and plots the probing cost it pays
// against the accuracy it delivers — the cost/accuracy frontier a
// deployed tool navigates when choosing how long to keep probing. Unit
// 0 measures ground truth; unit i+1 runs the controller at target i.
func AbestFrontier(cell probe.Link, sc Scale) (*Figure, error) {
	targets := []float64{0.20, 0.10, 0.05, 0.025}
	cfg := scaledAbestEffort(sc)
	root := sim.NewStream(cell.Seed + 1)
	outs, err := mapUnits(1+len(targets), sc, nil, func(_ struct{}, u int) (abOutcome, error) {
		l := crossCell(&cell, root.Child(uint64(u)).Seed(), abCrossBps)
		if u == 0 {
			return abRun(abTruth, l, cfg)
		}
		c := cfg
		c.Adaptive.TargetRel = targets[u-1]
		return abRun(abAdaptive, l, c)
	})
	if err != nil {
		return nil, err
	}
	truth := outs[0].Value
	if truth <= 0 {
		return nil, fmt.Errorf("experiments: abest-frontier ground truth %g", truth)
	}
	errS := Series{Name: "relative error (%)"}
	costS := Series{Name: "probe packets"}
	for i, t := range targets {
		o := outs[i+1]
		if !o.ok {
			continue
		}
		x := 100 * t
		errS.X = append(errS.X, x)
		errS.Y = append(errS.Y, relErr(o.Value, truth))
		costS.X = append(costS.X, x)
		costS.Y = append(costS.Y, float64(o.Cost.Packets))
	}
	return &Figure{
		ID:     "abest-frontier",
		Title:  "Adaptive-train probing cost vs accuracy across CI targets",
		XLabel: "CI95 target (% of estimate)",
		YLabel: "relative error (%) / probe packets",
		Series: []Series{errS, costS},
	}, nil
}

// AbestBudget sweeps a hard probe-packet cap, from starved to
// comfortable (300 to 2,400 packets), across every estimator and plots,
// against the budget, both the measured relative error and the
// effective confidence half-width (epsilon_eff) each truncated campaign
// reports — the accuracy-vs-budget frontier a deployed tool navigates
// when its probing allowance, not its confidence target, decides when
// to stop. Honest reporting is the point: the epsilon_eff curve must
// widen as the budget starves, never pretend the target was met. Unit
// 0 measures ground truth; unit 1 + b*3 + (k-1) runs estimator k under
// cap b.
func AbestBudget(cell probe.Link, sc Scale) (*Figure, error) {
	caps := []int{300, 600, 1200, 2400}
	cfg := scaledAbestEffort(sc)
	const tools = abEstimators - 1 // every estimator except ground truth
	root := sim.NewStream(cell.Seed + 3)
	outs, err := mapUnits(1+len(caps)*tools, sc, nil, func(_ struct{}, u int) (abOutcome, error) {
		l := crossCell(&cell, root.Child(uint64(u)).Seed(), abCrossBps)
		if u == 0 {
			return abRun(abTruth, l, cfg)
		}
		budget := estimate.Budget{MaxPackets: caps[(u-1)/tools]}
		c := cfg
		c.TOPP.Budget, c.SLoPS.Budget, c.Adaptive.Budget = budget, budget, budget
		return abRun(1+(u-1)%tools, l, c)
	})
	if err != nil {
		return nil, err
	}
	truth := outs[0].Value
	if truth <= 0 {
		return nil, fmt.Errorf("experiments: abest-budget ground truth %g", truth)
	}
	fig := &Figure{
		ID:     "abest-budget",
		Title:  "Estimator accuracy and reported epsilon_eff vs hard packet budget",
		XLabel: "probe-packet budget",
		YLabel: "relative error / epsilon_eff vs ground truth (%)",
	}
	for k := 1; k <= tools; k++ {
		errS := Series{Name: abName(k) + " error (%)"}
		epsS := Series{Name: abName(k) + " eps_eff (%)"}
		for b, cap := range caps {
			o := outs[1+b*tools+(k-1)]
			if !o.ok {
				continue
			}
			errS.X = append(errS.X, float64(cap))
			errS.Y = append(errS.Y, relErr(o.Value, truth))
			epsS.X = append(epsS.X, float64(cap))
			epsS.Y = append(epsS.Y, 100*o.CI/truth)
		}
		fig.Series = append(fig.Series, errS, epsS)
	}
	return fig, nil
}

// abScenario is one row of the robustness matrix: a named channel/
// station configuration layered onto the baseline link.
type abScenario struct {
	name  string
	apply func(l probe.Link) probe.Link
}

// abScenarios is the robustness matrix: the baseline perfect channel
// plus one representative of every scenario family the simulator
// models.
func abScenarios() []abScenario {
	return []abScenario{
		{"perfect", func(l probe.Link) probe.Link { return l }},
		{"fer 3%", func(l probe.Link) probe.Link {
			l.Loss = phy.ErrorModel{FER: 0.03}
			return l
		}},
		{"hidden", func(l probe.Link) probe.Link {
			l.Topology = mac.NewTopology(2) // probe and contender mutually hidden
			return l
		}},
		{"edca VO cross", func(l probe.Link) probe.Link {
			l.Contenders[0].AC = phy.ACVoice // prioritized cross-traffic
			return l
		}},
		{"mixed rate", func(l probe.Link) probe.Link {
			l.Contenders[0].DataRateBps = 2e6 // slow sender: the rate anomaly
			return l
		}},
	}
}

// AbestRobust runs every estimator across the scenario matrix at a
// fixed moderate cross-load and reports the relative error against
// each scenario's own ground truth. Unit u runs estimator
// u%abEstimators on scenario u/abEstimators; the x-axis is the
// scenario index in abScenarios order.
func AbestRobust(cell probe.Link, sc Scale) (*Figure, error) {
	cfg := scaledAbestEffort(sc)
	scenarios := abScenarios()
	root := sim.NewStream(cell.Seed + 2)
	outs, err := mapUnits(len(scenarios)*abEstimators, sc, nil, func(_ struct{}, u int) (abOutcome, error) {
		return abRun(u%abEstimators, scenarios[u/abEstimators].apply(crossCell(&cell, root.Child(uint64(u)).Seed(), abCrossBps)), cfg)
	})
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "abest-robust",
		Title:  "Estimator relative error across the scenario matrix (0=perfect 1=fer 2=hidden 3=edca 4=mixed-rate)",
		XLabel: "scenario",
		YLabel: "relative error vs scenario ground truth (%)",
	}
	for k := 1; k < abEstimators; k++ {
		s := Series{Name: abName(k)}
		for scen := range scenarios {
			truth, o := outs[scen*abEstimators+abTruth], outs[scen*abEstimators+k]
			if !truth.ok || truth.Value <= 0 || !o.ok {
				continue
			}
			s.X = append(s.X, float64(scen))
			s.Y = append(s.Y, relErr(o.Value, truth.Value))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
