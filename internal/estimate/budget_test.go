package estimate

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"csmabw/internal/phy"
	"csmabw/internal/probe"
	"csmabw/internal/sim"
)

// --- cost-ledger regressions -------------------------------------------------

// TestCostChargesInjectedNotNominal: a replication the horizon cut
// short is billed for the probes it actually injected, never the
// nominal train length ("Packets = probes injected").
func TestCostChargesInjectedNotNominal(t *testing.T) {
	s := probe.TrainSample{
		Injected:   3,
		Delivered:  2,
		Departures: []sim.Time{sim.Millisecond, 3 * sim.Millisecond, -1, -1, -1},
		Truncated:  true,
	}
	var g ledger
	g.charge(s, sim.Millisecond)
	c := g.est.Cost
	if c.Packets != 3 {
		t.Errorf("truncated train charged %d packets, want its 3 injected", c.Packets)
	}
	if c.Trains != 1 {
		t.Errorf("trains = %d, want 1", c.Trains)
	}
}

// TestCostTruncatedTrainsEndToEnd drives the ledger's round through
// the probe layer: a horizon-truncated measurement must charge exactly
// the injected counts the samples report, strictly fewer packets than
// the nominal replication arithmetic claims.
func TestCostTruncatedTrainsEndToEnd(t *testing.T) {
	l := probe.Link{
		WarmUp:    10 * sim.Millisecond,
		FIFOCross: []probe.Flow{{RateBps: 50e6, Size: 1500}},
		Seed:      31,
	}
	const n, reps = 5, 3
	var g ledger
	if err := g.plan.Init(l, n, 8e6); err != nil {
		t.Fatal(err)
	}
	samples, err := g.round(0, reps, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := g.est.Cost
	if len(samples) != reps || c.Trains != reps || g.est.Rounds != 1 {
		t.Fatalf("round of %d: %d samples, %d trains charged, %d rounds", reps, len(samples), c.Trains, g.est.Rounds)
	}
	wantPackets, sawTruncated := 0, false
	for _, s := range samples {
		wantPackets += s.Injected
		if s.Truncated {
			sawTruncated = true
			if s.Injected >= n {
				t.Errorf("truncated sample injected %d of %d", s.Injected, n)
			}
		}
		if s.Delivered > s.Injected {
			t.Errorf("delivered %d > injected %d", s.Delivered, s.Injected)
		}
	}
	if !sawTruncated {
		t.Fatal("fixture no longer truncates; the regression needs a cut-short train")
	}
	if c.Packets != wantPackets {
		t.Errorf("ledger charged %d packets, want %d injected", c.Packets, wantPackets)
	}
	if c.Packets >= n*reps {
		t.Errorf("ledger charged the nominal %d despite truncation", n*reps)
	}
}

// TestTrainSpanDegenerateTrain: a back-to-back (gI=0) train with at
// most one delivered departure has neither a departure span nor a
// nominal one, but its packets did contend — the delivered probes'
// access delays must floor the span above zero.
func TestTrainSpanDegenerateTrain(t *testing.T) {
	s := probe.TrainSample{
		Injected:     1,
		Delivered:    1,
		Departures:   []sim.Time{5 * sim.Millisecond},
		AccessDelays: []float64{0.002},
	}
	if span := trainSpan(s, 0); span <= 0 {
		t.Errorf("degenerate back-to-back train reports %g probe-seconds, want > 0", span)
	}
	// Sanity: a regular train still reports its departure span.
	reg := probe.TrainSample{
		Injected:   3,
		Delivered:  3,
		Departures: []sim.Time{0, 2 * sim.Millisecond, 4 * sim.Millisecond},
	}
	if span := trainSpan(reg, sim.Millisecond); span != 0.004 {
		t.Errorf("regular span %g, want 0.004", span)
	}
	// And the nominal input spacing floors a faster-than-nominal span.
	if span := trainSpan(reg, 3*sim.Millisecond); span != 0.006 {
		t.Errorf("nominal floor %g, want 0.006", span)
	}
}

// --- failure keeps the ledger ------------------------------------------------

// lossyLink is a link whose frame-error rate is high enough that no
// estimator can read a dispersion or trend from it.
func lossyLink(seed int64, fer float64) probe.Link {
	l := testLink(seed, 2e6)
	l.Loss = phy.ErrorModel{FER: fer}
	return l
}

// TestFailedCampaignsCarryCost: ErrEstimateFailed must come with the
// partial Estimate carrying the Cost and Rounds the campaign spent —
// mirroring the ErrTargetNotReached contract — so budget accounting
// survives failed campaigns.
func TestFailedCampaignsCarryCost(t *testing.T) {
	t.Run("slops", func(t *testing.T) {
		est, err := SLoPS(lossyLink(42, 0.99), SLoPSConfig{TrainLen: 20, Reps: 3})
		if !errors.Is(err, ErrEstimateFailed) {
			t.Fatalf("err = %v, want ErrEstimateFailed", err)
		}
		if est.Cost.Packets == 0 || est.Cost.Trains == 0 || est.Rounds == 0 {
			t.Errorf("failed campaign discarded its cost: %+v", est)
		}
	})
	t.Run("topp", func(t *testing.T) {
		est, err := TOPP(lossyLink(43, 0.999), TOPPConfig{TrainLen: 20, Reps: 3})
		if !errors.Is(err, ErrEstimateFailed) {
			t.Fatalf("err = %v, want ErrEstimateFailed", err)
		}
		if est.Cost.Packets == 0 || est.Cost.Trains == 0 || est.Rounds == 0 {
			t.Errorf("failed campaign discarded its cost: %+v", est)
		}
	})
	t.Run("adaptive", func(t *testing.T) {
		est, err := Adaptive(lossyLink(44, 0.999), AdaptiveConfig{RateBps: 12e6, TrainLen: 10, BatchReps: 4, MaxReps: 8})
		if !errors.Is(err, ErrEstimateFailed) {
			t.Fatalf("err = %v, want ErrEstimateFailed", err)
		}
		if est.Cost.Packets == 0 || est.Cost.Trains == 0 || est.Rounds == 0 {
			t.Errorf("failed campaign discarded its cost: %+v", est)
		}
	})
	t.Run("adaptive budget-starved", func(t *testing.T) {
		// The packet cap stops the campaign long before MaxReps; the
		// failure reports the replications that actually ran.
		est, err := Adaptive(lossyLink(45, 0.999), AdaptiveConfig{
			RateBps: 12e6, TrainLen: 10, BatchReps: 4, MaxReps: 64, Budget: Budget{MaxPackets: 25},
		})
		if !errors.Is(err, ErrEstimateFailed) {
			t.Fatalf("err = %v, want ErrEstimateFailed", err)
		}
		want := fmt.Sprintf("adaptive: %d replications, none usable", est.Cost.Trains)
		if est.Cost.Trains == 0 || est.Cost.Trains >= 64 || !strings.Contains(err.Error(), want) {
			t.Errorf("ran %d trains, err %q: want it to say %q", est.Cost.Trains, err, want)
		}
	})
}

// --- budget properties -------------------------------------------------------

// runBudgeted runs estimator k (0=TOPP 1=SLoPS 2=adaptive) under the
// budget and returns its estimate; ErrEstimateFailed and
// ErrTargetNotReached still carry the ledger and are not failures here.
func runBudgeted(t *testing.T, k int, l probe.Link, b Budget) Estimate {
	t.Helper()
	var est Estimate
	var err error
	switch k {
	case 0:
		est, err = TOPP(l, TOPPConfig{TrainLen: 40, Reps: 4, Budget: b})
	case 1:
		est, err = SLoPS(l, SLoPSConfig{TrainLen: 40, Reps: 4, ResolutionBps: 500e3, Budget: b})
	case 2:
		est, err = Adaptive(l, AdaptiveConfig{RateBps: 12e6, TrainLen: 50, TargetRel: 0.005, MaxReps: 128, Budget: b})
	}
	if err != nil && !errors.Is(err, ErrEstimateFailed) && !errors.Is(err, ErrTargetNotReached) {
		t.Fatalf("estimator %d: %v", k, err)
	}
	return est
}

// TestCostNeverExceedsBudget is the hard-cap property: for every
// estimator and seed, the spent Cost stays within the configured caps.
// The packet cap is exact. The time cap is enforced by forecasting, so
// it is exact once a span has been observed; the first unit of work —
// one train for TOPP/adaptive, one whole round (the Reps below) for
// SLoPS — is always admitted (a campaign that sends nothing can
// estimate nothing), which a cap smaller than that unit converts into
// a single-unit campaign.
func TestCostNeverExceedsBudget(t *testing.T) {
	firstUnit := [3]int{1, 4, 1} // trains in each estimator's always-admitted first unit
	for _, seed := range []int64{11, 12, 13} {
		for k := 0; k < 3; k++ {
			for _, cap := range []int{150, 400, 900} {
				est := runBudgeted(t, k, testLink(seed, 2e6), Budget{MaxPackets: cap})
				if est.Cost.Packets > cap {
					t.Errorf("seed %d estimator %d: spent %d packets over the %d cap",
						seed, k, est.Cost.Packets, cap)
				}
			}
			for _, cap := range []float64{0.5, 2} {
				est := runBudgeted(t, k, testLink(seed, 2e6), Budget{MaxProbeSeconds: cap})
				if est.Cost.ProbeSeconds > cap && est.Cost.Trains > firstUnit[k] {
					t.Errorf("seed %d estimator %d: spent %.3f probe-seconds over the %g cap in %d trains",
						seed, k, est.Cost.ProbeSeconds, cap, est.Cost.Trains)
				}
			}
		}
	}
}

// TestSLoPSCIMonotoneInBudget: the budgeted bisection runs whole
// rounds only, so a budgeted campaign is an exact prefix of the
// unbudgeted one and the reported bracket half-width can only shrink
// as the budget grows. The final 0 is the uncapped campaign.
func TestSLoPSCIMonotoneInBudget(t *testing.T) {
	caps := []int{200, 400, 800, 1600, 3200, 0}
	prev := math.Inf(1)
	for _, cap := range caps {
		est, err := SLoPS(testLink(14, 2e6), SLoPSConfig{
			TrainLen: 40, Reps: 4, ResolutionBps: 500e3,
			Budget: Budget{MaxPackets: cap},
		})
		if err != nil {
			t.Fatalf("cap %d: %v", cap, err)
		}
		if est.CI > prev {
			t.Errorf("cap %d: CI %.0f wider than the smaller budget's %.0f", cap, est.CI, prev)
		}
		prev = est.CI
	}
}

// TestUncappedIdenticalToHugeBudget: a budget far above what any
// campaign spends must leave every estimator byte-identical to the
// zero-value (uncapped) budget — the budgeted control path only shrinks
// rounds when a cap actually binds, and on a loss-free link the sigma
// inflation factor is exactly 1.
func TestUncappedIdenticalToHugeBudget(t *testing.T) {
	huge := Budget{MaxProbeSeconds: 1e9, MaxPackets: 1 << 40}
	for k := 0; k < 3; k++ {
		free := runBudgeted(t, k, testLink(15, 2e6), Budget{})
		capped := runBudgeted(t, k, testLink(15, 2e6), huge)
		if free != capped {
			t.Errorf("estimator %d: huge budget diverged from uncapped:\nfree:   %+v\ncapped: %+v", k, free, capped)
		}
		if free.Truncated != TruncatedNone || capped.Truncated != TruncatedNone {
			t.Errorf("estimator %d: unconstrained campaign reports truncation", k)
		}
	}
}

// TestTruncatedCampaignsReportHonestly: a cap that binds yields a best
// estimate with the achieved (not target) CI and the cap's name, never
// an error that discards the value.
func TestTruncatedCampaignsReportHonestly(t *testing.T) {
	t.Run("adaptive packet cap", func(t *testing.T) {
		est, err := Adaptive(testLink(16, 2e6), AdaptiveConfig{
			RateBps: 12e6, TrainLen: 50, TargetRel: 0.001, MaxReps: 512,
			Budget: Budget{MaxPackets: 600},
		})
		if err != nil {
			t.Fatalf("truncated campaign errored: %v", err)
		}
		if est.Truncated != TruncatedPackets {
			t.Fatalf("Truncated = %q, want %q", est.Truncated, TruncatedPackets)
		}
		if est.Value <= 0 {
			t.Error("truncated campaign discarded its value")
		}
		if est.CI <= 0.001*est.Value {
			t.Errorf("truncated campaign reports CI %.0f under its unreached target %.0f",
				est.CI, 0.001*est.Value)
		}
	})
	t.Run("slops packet cap", func(t *testing.T) {
		cfg := SLoPSConfig{TrainLen: 40, Reps: 4, ResolutionBps: 250e3, Budget: Budget{MaxPackets: 400}}
		est, err := SLoPS(testLink(17, 2e6), cfg)
		if err != nil {
			t.Fatalf("truncated campaign errored: %v", err)
		}
		if est.Truncated != TruncatedPackets {
			t.Fatalf("Truncated = %q, want %q", est.Truncated, TruncatedPackets)
		}
		if est.CI <= cfg.ResolutionBps/2 {
			t.Errorf("truncated bisection reports CI %.0f at or under the unreached resolution %.0f",
				est.CI, cfg.ResolutionBps/2)
		}
	})
	t.Run("adaptive time cap", func(t *testing.T) {
		est, err := Adaptive(testLink(18, 2e6), AdaptiveConfig{
			RateBps: 12e6, TrainLen: 50, TargetRel: 0.001, MaxReps: 512,
			Budget: Budget{MaxProbeSeconds: 0.5},
		})
		if err != nil {
			t.Fatalf("truncated campaign errored: %v", err)
		}
		if est.Truncated != TruncatedTime {
			t.Fatalf("Truncated = %q, want %q", est.Truncated, TruncatedTime)
		}
		if est.Value <= 0 || est.CI <= 0 {
			t.Errorf("truncated campaign lost value or CI: %+v", est)
		}
	})
}

// TestSLoPSTimeCapFirstRound: the whole-rounds-only rule must not turn
// the pre-observation drain envelope's pessimism into an empty
// campaign — a time cap that cannot pay the envelope for a full round
// but has time remaining still admits the first round, after which real
// observed spans price the rest.
func TestSLoPSTimeCapFirstRound(t *testing.T) {
	est, err := SLoPS(testLink(21, 2e6), SLoPSConfig{
		TrainLen: 40, Reps: 4, ResolutionBps: 500e3,
		Budget: Budget{MaxProbeSeconds: 1},
	})
	if err != nil {
		t.Fatalf("time-capped SLoPS produced no estimate: %v", err)
	}
	if est.Rounds < 1 || est.Value <= 0 {
		t.Errorf("first round not admitted under the envelope: %+v", est)
	}
}

// TestBudgetValidation: NaN, Inf and negative caps are rejected by
// every estimator before any probing starts.
func TestBudgetValidation(t *testing.T) {
	l := testLink(19, 0)
	bads := []Budget{
		{MaxProbeSeconds: math.NaN()},
		{MaxProbeSeconds: math.Inf(1)},
		{MaxProbeSeconds: -1},
		{MaxPackets: -5},
	}
	for _, b := range bads {
		if _, err := TOPP(l, TOPPConfig{Budget: b}); err == nil {
			t.Errorf("TOPP accepted budget %+v", b)
		}
		if _, err := SLoPS(l, SLoPSConfig{Budget: b}); err == nil {
			t.Errorf("SLoPS accepted budget %+v", b)
		}
		if _, err := Adaptive(l, AdaptiveConfig{Budget: b}); err == nil {
			t.Errorf("Adaptive accepted budget %+v", b)
		}
	}
	if (Budget{}).Enabled() {
		t.Error("zero budget reports enabled")
	}
	if !(Budget{MaxPackets: 1}).Enabled() || !(Budget{MaxProbeSeconds: 0.1}).Enabled() {
		t.Error("set cap reports disabled")
	}
}
