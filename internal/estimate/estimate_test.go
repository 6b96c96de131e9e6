package estimate

import (
	"errors"
	"math"
	"testing"

	"csmabw/internal/bianchi"
	"csmabw/internal/phy"
	"csmabw/internal/probe"
	"csmabw/internal/sim"
)

// testLink is the paper's Fig. 2/3 validation cell: one probing
// station against one Poisson contender.
func testLink(seed int64, crossBps float64) probe.Link {
	l := probe.Link{Seed: seed}
	if crossBps > 0 {
		l.Contenders = []probe.Flow{{RateBps: crossBps, Size: 1500}}
	}
	return l
}

// quickTOPP keeps unit tests fast; the acceptance-grade defaults run
// in the integration suite.
func quickTOPP() TOPPConfig { return TOPPConfig{TrainLen: 40, Reps: 6} }

func TestGroundTruthIdleLinkNearCapacity(t *testing.T) {
	tr, err := GroundTruth(testLink(1, 0), TruthConfig{Duration: 2 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	c := phy.B11().MaxThroughput(1500)
	if math.Abs(tr.AvailableBps-c) > 0.1*c {
		t.Errorf("idle-link truth %.2f Mb/s, want ~%.2f", tr.AvailableBps/1e6, c/1e6)
	}
	if tr.CrossBps != 0 || tr.CarriedBps != tr.AvailableBps {
		t.Errorf("idle link reported cross share: %+v", tr)
	}
}

// TestGroundTruthBianchiCrossCheck pins the harness to the analytical
// yardstick: with the probe saturating against one saturated
// contender, the probe's share must sit near half of Bianchi's
// two-station saturation throughput.
func TestGroundTruthBianchiCrossCheck(t *testing.T) {
	l := testLink(2, 9e6) // contender offered well above its share: saturated
	tr, err := GroundTruth(l, TruthConfig{Duration: 3 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	p := phy.B11()
	sol, err := bianchi.Solve(2, p.CWMin, p.CWMax)
	if err != nil {
		t.Fatal(err)
	}
	fair := sol.Throughput(p, 1500) / 2
	if math.Abs(tr.AvailableBps-fair) > 0.15*fair {
		t.Errorf("saturated fair share %.2f Mb/s, Bianchi %.2f", tr.AvailableBps/1e6, fair/1e6)
	}
}

func TestTOPPTracksGroundTruth(t *testing.T) {
	l := testLink(3, 2e6)
	tr, err := GroundTruth(l, TruthConfig{Duration: 2 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	est, err := TOPP(l, quickTOPP())
	if err != nil {
		t.Fatal(err)
	}
	// The quick config trades accuracy for test speed; the 10% paper
	// acceptance bound runs at the default config in the integration
	// suite (TestEstimatorAccuracy).
	if rel := math.Abs(est.Value-tr.AvailableBps) / tr.AvailableBps; rel > 0.2 {
		t.Errorf("TOPP %.2f Mb/s vs truth %.2f (%.0f%% off)", est.Value/1e6, tr.AvailableBps/1e6, 100*rel)
	}
	if est.Cost.Trains == 0 || est.Cost.Packets == 0 || est.Cost.ProbeSeconds <= 0 {
		t.Errorf("TOPP cost not accounted: %+v", est.Cost)
	}
	if est.Rounds != toppPoints {
		t.Errorf("TOPP rounds = %d, want one per sweep point", est.Rounds)
	}
}

func TestSLoPSBoundedRoundsAndBracket(t *testing.T) {
	cfg := SLoPSConfig{Reps: 4, TrainLen: 40, ResolutionBps: 500e3}
	l := testLink(4, 2e6)
	est, err := SLoPS(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := bracket(l.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	maxRounds := int(math.Ceil(math.Log2((hi - lo) / cfg.ResolutionBps)))
	if est.Rounds > maxRounds {
		t.Errorf("SLoPS took %d rounds, bisection bound is %d", est.Rounds, maxRounds)
	}
	if est.CI > cfg.ResolutionBps/2 {
		t.Errorf("final bracket half-width %.0f above resolution/2 %.0f", est.CI, cfg.ResolutionBps/2)
	}
	if est.Value <= 0 || est.Value >= hi {
		t.Errorf("SLoPS value %.2f Mb/s outside the search bracket", est.Value/1e6)
	}
}

// TestAdaptiveMeetsTarget is the controller's contract: a successful
// return means the final CI95 half-width is under the target.
func TestAdaptiveMeetsTarget(t *testing.T) {
	for _, rel := range []float64{0.10, 0.05} {
		est, err := Adaptive(testLink(5, 2e6), AdaptiveConfig{RateBps: 12e6, TargetRel: rel})
		if err != nil {
			t.Fatalf("target %g: %v", rel, err)
		}
		if est.CI > rel*est.Value {
			t.Errorf("target %g: CI %.0f above %.0f", rel, est.CI, rel*est.Value)
		}
	}
}

// TestAdaptiveCostMonotone: tightening the confidence target can only
// cost more probing, never less — the batch checkpoints are fixed, so
// a looser target stops at the first checkpoint the tighter one would
// also have accepted.
func TestAdaptiveCostMonotone(t *testing.T) {
	targets := []float64{0.20, 0.10, 0.05, 0.025}
	prev := -1
	for _, rel := range targets {
		est, err := Adaptive(testLink(6, 2e6), AdaptiveConfig{RateBps: 12e6, TargetRel: rel, MaxReps: 256})
		if err != nil {
			t.Fatalf("target %g: %v", rel, err)
		}
		if est.Cost.Trains < prev {
			t.Errorf("target %g cost %d trains, looser target cost %d", rel, est.Cost.Trains, prev)
		}
		prev = est.Cost.Trains
	}
}

func TestAdaptiveBudgetExhausted(t *testing.T) {
	// An absurdly tight target cannot be met within a tiny budget; the
	// controller must say so while still returning its best estimate.
	est, err := Adaptive(testLink(7, 2e6), AdaptiveConfig{RateBps: 12e6, TargetRel: 1e-6, MaxReps: 8})
	if !errors.Is(err, ErrTargetNotReached) {
		t.Fatalf("err = %v, want ErrTargetNotReached", err)
	}
	if est.Value <= 0 || est.CI <= 0 {
		t.Errorf("no best-effort estimate returned: %+v", est)
	}
}

// TestEstimatorAllocBound pins the one engine per estimator call and
// the reused plan and samples: every round plans into the call's
// TrainPlan and measures on its TrainMeter, which allocates nothing per
// train beyond the sample, and TOPP and SLoPS measure each round into
// the last round's samples, so a train pays for a few allocations of
// its round (a sweep point), not for a freshly built engine (about 55
// allocations more) or a fresh sample. One train per round makes an
// engine per round as costly as an engine per train.
func TestEstimatorAllocBound(t *testing.T) {
	l := testLink(10, 1.5e6)
	l.Contenders = append(l.Contenders, probe.Flow{RateBps: 1e6, Size: 576})
	cases := []struct {
		name string
		run  func() (Estimate, error)
	}{
		{"topp", func() (Estimate, error) { return TOPP(l, TOPPConfig{TrainLen: 50, Reps: 1}) }},
		{"slops", func() (Estimate, error) {
			return SLoPS(l, SLoPSConfig{TrainLen: 50, Reps: 1, ResolutionBps: 50e3})
		}},
		// An unreachable target runs the whole replication budget.
		{"adaptive", func() (Estimate, error) {
			return Adaptive(l, AdaptiveConfig{RateBps: 12e6, TrainLen: 50, TargetRel: 1e-6, BatchReps: 1, MaxReps: 64})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var est Estimate
			allocs := testing.AllocsPerRun(1, func() { est, _ = c.run() })
			if est.Cost.Trains < 8 || est.Rounds != est.Cost.Trains {
				t.Fatalf("ran %d trains in %d rounds, want at least 8 rounds of one train", est.Cost.Trains, est.Rounds)
			}
			if per := allocs / float64(est.Cost.Trains); per > 16 {
				t.Errorf("%.1f allocations per train, want <= 16", per)
			}
		})
	}
}

func TestConfigValidation(t *testing.T) {
	l := testLink(9, 0)
	check := func(name string, fn func() (Estimate, error)) {
		if _, err := fn(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	check("TOPP negative reps", func() (Estimate, error) {
		return TOPP(l, TOPPConfig{Reps: -1})
	})
	check("SLoPS tiny train", func() (Estimate, error) {
		return SLoPS(l, SLoPSConfig{TrainLen: 4})
	})
	check("SLoPS negative reps", func() (Estimate, error) {
		return SLoPS(l, SLoPSConfig{Reps: -1})
	})
	check("adaptive negative rate", func() (Estimate, error) {
		return Adaptive(l, AdaptiveConfig{RateBps: -1})
	})
	check("adaptive bad batch", func() (Estimate, error) {
		return Adaptive(l, AdaptiveConfig{BatchReps: 16, MaxReps: 8})
	})
	check("truth negative duration", func() (Estimate, error) {
		_, err := GroundTruth(l, TruthConfig{Duration: -sim.Second})
		return Estimate{}, err
	})
	check("SLoPS resolution wider than bracket", func() (Estimate, error) {
		// Would otherwise end the bisection before any train is sent.
		return SLoPS(l, SLoPSConfig{ResolutionBps: 1e9})
	})
}

func TestOWDTrendDelta(t *testing.T) {
	gI := sim.Millisecond
	flat := make([]sim.Time, 20)
	rising := make([]sim.Time, 20)
	for i := range flat {
		flat[i] = sim.Time(i)*gI + 3*sim.Millisecond
		rising[i] = sim.Time(i)*gI + sim.Time(i+1)*2*sim.Millisecond
	}
	if d, ok := owdTrendDelta(flat, gI); !ok || d != 0 {
		t.Errorf("flat delays: delta %g ok %v, want 0 true", d, ok)
	}
	if d, ok := owdTrendDelta(rising, gI); !ok || d <= 0 {
		t.Errorf("rising delays: delta %g ok %v, want positive", d, ok)
	}
	// Too many drops: no verdict.
	dropped := append([]sim.Time(nil), flat...)
	for i := 0; i < 18; i++ {
		dropped[i] = -1
	}
	if _, ok := owdTrendDelta(dropped, gI); ok {
		t.Error("verdict from 2 delivered packets")
	}
}

func TestTrendIncreasing(t *testing.T) {
	if trendIncreasing([]float64{0.001, -0.001, 0.0005, -0.0005}, 2) {
		t.Error("noise around zero classified as increasing")
	}
	if !trendIncreasing([]float64{0.010, 0.011, 0.009, 0.012}, 2) {
		t.Error("consistent positive deltas not classified as increasing")
	}
	if !trendIncreasing([]float64{0.01}, 2) {
		t.Error("single positive delta not classified by sign")
	}
}

// TestConfigRejectsNonFinite extends the validation to NaN/Inf, which
// fail every range comparison and would otherwise slip through (a NaN
// adaptive target makes the stop condition never true, burning the
// whole replication budget).
func TestConfigRejectsNonFinite(t *testing.T) {
	l := testLink(10, 0)
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string]func() (Estimate, error){
		"adaptive NaN rate": func() (Estimate, error) { return Adaptive(l, AdaptiveConfig{RateBps: nan}) },
		"adaptive Inf rate": func() (Estimate, error) { return Adaptive(l, AdaptiveConfig{RateBps: inf}) },
		"adaptive NaN rel":  func() (Estimate, error) { return Adaptive(l, AdaptiveConfig{TargetRel: nan}) },
		"adaptive rel >= 1": func() (Estimate, error) { return Adaptive(l, AdaptiveConfig{TargetRel: 1.5}) },
	}
	for name, fn := range cases {
		if _, err := fn(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
