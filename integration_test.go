package csmabw

// Integration tests: the qualitative shape of the paper's figures (the
// README figure table), asserted at a replication count high enough to
// be statistically stable. These are the executable form of "the
// paper's qualitative results hold": each test corresponds to one
// figure's headline claim.
//
// They are skipped under -short.

import (
	"math"
	"testing"

	"csmabw/internal/estimate"
	"csmabw/internal/experiments"
	"csmabw/internal/phy"
	"csmabw/internal/probe"
	"csmabw/internal/queuesim"
	"csmabw/internal/sim"
	"csmabw/internal/stats"
)

func integScale() experiments.Scale {
	return experiments.Scale{Reps: 150, SweepPoints: 12, SteadySeconds: 1.5}
}

func skipShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("integration shape test skipped in -short mode")
	}
}

// Figure 1: the steady-state rate response follows ri, then flattens at
// the achievable throughput B — while the cross-traffic only starts
// losing throughput once ri exceeds the available bandwidth A < B's
// saturation point.
func TestShapeFig1(t *testing.T) {
	skipShort(t)
	fig, err := experiments.Fig1SteadyStateRRC(experiments.DefaultFig1(), integScale())
	if err != nil {
		t.Fatal(err)
	}
	pr, cross := fig.Series[0], fig.Series[1]

	// Identity region: the first third of the sweep tracks ri closely.
	for i := 0; i < len(pr.X)/3; i++ {
		if rel := (pr.Y[i] - pr.X[i]) / pr.X[i]; rel < -0.15 || rel > 0.15 {
			t.Errorf("identity region broken at ri=%.2f: ro=%.2f", pr.X[i], pr.Y[i])
		}
	}
	// Plateau: the top three points vary little and sit well below ri.
	n := len(pr.X)
	plateau := (pr.Y[n-1] + pr.Y[n-2] + pr.Y[n-3]) / 3
	if plateau > 0.6*pr.X[n-1] {
		t.Errorf("no saturation: plateau %.2f at ri=%.2f", plateau, pr.X[n-1])
	}
	// The plateau is the fair share (paper: ~3.4 Mb/s), NOT the
	// available bandwidth (~2 Mb/s with 4.5 Mb/s cross on a ~6 Mb/s link).
	if plateau < 2.4 || plateau > 4.5 {
		t.Errorf("plateau %.2f Mb/s outside the fair-share band [2.4, 4.5]", plateau)
	}
	// Cross-traffic throughput declines from its uncontended level as
	// the probe claims its share.
	if cross.Y[n-1] >= cross.Y[0]*0.95 {
		t.Errorf("cross-traffic did not decline: %.2f -> %.2f", cross.Y[0], cross.Y[n-1])
	}
}

// Figure 4: with FIFO cross-traffic in the probe's queue, the probe
// gains throughput at the FIFO cross-traffic's expense after the
// aggregate reaches the station's fair share.
func TestShapeFig4(t *testing.T) {
	skipShort(t)
	fig, err := experiments.Fig4CompleteRRC(experiments.DefaultFig4(), integScale())
	if err != nil {
		t.Fatal(err)
	}
	pr, fifo := fig.Series[0], fig.Series[2]
	n := len(pr.X)
	// FIFO cross-traffic ends lower than it starts.
	if fifo.Y[n-1] >= fifo.Y[0]*0.8 {
		t.Errorf("FIFO cross kept its throughput: %.2f -> %.2f", fifo.Y[0], fifo.Y[n-1])
	}
	// Probe keeps growing past the point where FIFO cross starts losing:
	// its final throughput exceeds the (shared-queue) fair portion it
	// would get under plain Eq. 3.
	if pr.Y[n-1] <= pr.Y[n/2] {
		t.Errorf("probe throughput not increasing in the contention region")
	}
}

// Figure 6: the mean access delay of the first packets is visibly below
// the steady-state mean — the transient acceleration.
func TestShapeFig6(t *testing.T) {
	skipShort(t)
	p := experiments.DefaultFig6()
	p.TrainLen = 400
	sc := integScale()
	sc.Reps = 400
	fig, err := experiments.Fig6MeanAccessDelay(p, sc, 150)
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	first := s.Y[0]
	late := stats.Mean(s.Y[100:])
	if first >= late {
		t.Errorf("no transient: first-packet mean %.3f ms >= late mean %.3f ms", first, late)
	}
	if (late-first)/late < 0.03 {
		t.Errorf("transient too small: first %.3f ms vs late %.3f ms", first, late)
	}
	// And the early means increase (roughly) toward the plateau.
	early := stats.Mean(s.Y[:5])
	mid := stats.Mean(s.Y[20:40])
	if early >= mid {
		t.Errorf("early means %.3f not below mid means %.3f", early, mid)
	}
}

// Figure 8: the KS statistic of the first packets exceeds the 95%
// threshold (different distribution), then falls below it once the
// interaction reaches steady state.
func TestShapeFig8(t *testing.T) {
	skipShort(t)
	p := experiments.DefaultFig8()
	p.TrainLen = 400
	sc := integScale()
	sc.Reps = 400
	opt := experiments.DefaultKSOptions(p.TrainLen)
	fig, err := experiments.FigKS("fig08", p, sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	ks, thr := fig.Series[0], fig.Series[1]
	if ks.Y[0] <= thr.Y[0] {
		t.Errorf("first packet KS %.3f not above threshold %.3f", ks.Y[0], thr.Y[0])
	}
	// Late packets: below threshold (averaged to be robust).
	lateKS := stats.Mean(ks.Y[len(ks.Y)-20:])
	lateThr := stats.Mean(thr.Y[len(thr.Y)-20:])
	if lateKS >= lateThr {
		t.Errorf("late KS %.3f not below threshold %.3f", lateKS, lateThr)
	}
	// Queue series exists and grows from its initial value.
	q := fig.Series[2]
	if stats.Mean(q.Y[len(q.Y)-10:]) <= q.Y[0] {
		t.Errorf("contender queue did not grow after probing started")
	}
}

// Figure 10: the transient is longer under the stricter tolerance, at
// every cross load.
func TestShapeFig10(t *testing.T) {
	skipShort(t)
	p := experiments.DefaultFig10()
	p.CrossLoads = []float64{0.2, 0.5, 0.8}
	p.TrainLen = 300
	sc := integScale()
	sc.Reps = 300
	fig, err := experiments.Fig10TransientDuration(p, sc)
	if err != nil {
		t.Fatal(err)
	}
	tol01, tol001 := fig.Series[0], fig.Series[1]
	for i := range tol01.X {
		if tol001.Y[i] < tol01.Y[i] {
			t.Errorf("load %.1f: tol 0.01 length %g < tol 0.1 length %g",
				tol01.X[i], tol001.Y[i], tol01.Y[i])
		}
	}
	// With 0.1 tolerance the transient stays within the paper's
	// "never exceeds 150 packets" bound.
	for i, y := range tol01.Y {
		if y > 150 {
			t.Errorf("load %.1f: tol 0.1 transient %g exceeds 150 packets", tol01.X[i], y)
		}
	}
}

// Figure 13: short trains probing fast overestimate the steady-state
// achievable throughput, and shorter trains deviate more.
func TestShapeFig13(t *testing.T) {
	skipShort(t)
	l := probe.Link{
		Contenders: []probe.Flow{{RateBps: 4e6, Size: 1500}},
		Seed:       131,
	}
	const probeRate = 10e6
	reps := 250
	t3, err := probe.MeasureTrain(l, 3, probeRate, reps)
	if err != nil {
		t.Fatal(err)
	}
	t50, err := probe.MeasureTrain(l, 50, probeRate, reps/2)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := probe.MeasureSteadyState(l, probeRate, 3*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	steady := ss.ProbeRate
	est3, err := t3.RateEstimate()
	if err != nil {
		t.Fatal(err)
	}
	est50, err := t50.RateEstimate()
	if err != nil {
		t.Fatal(err)
	}
	if est3 <= steady {
		t.Errorf("3-packet train %.2f Mb/s did not overestimate steady %.2f",
			est3/1e6, steady/1e6)
	}
	d3 := est3 - steady
	d50 := est50 - steady
	if d50 >= d3 {
		t.Errorf("50-packet deviation %.2f not below 3-packet deviation %.2f",
			d50/1e6, d3/1e6)
	}
}

// Figure 16: the packet-pair estimate exceeds the fluid response at
// every non-zero cross-traffic level, and roughly matches it with no
// cross-traffic.
func TestShapeFig16(t *testing.T) {
	skipShort(t)
	p := experiments.DefaultFig16()
	p.CrossRates = []float64{0, 2e6, 4e6, 6e6}
	sc := integScale()
	sc.Reps = 200
	fig, err := experiments.Fig16PacketPair(p, sc)
	if err != nil {
		t.Fatal(err)
	}
	fluid, pair := fig.Series[0], fig.Series[1]
	for i := range fluid.X {
		if fluid.X[i] == 0 {
			if rel := (pair.Y[i] - fluid.Y[i]) / fluid.Y[i]; rel < -0.25 || rel > 0.35 {
				t.Errorf("no-cross pair %.2f vs fluid %.2f: relative gap %.2f",
					pair.Y[i], fluid.Y[i], rel)
			}
			continue
		}
		if pair.Y[i] <= fluid.Y[i] {
			t.Errorf("cross %.1f Mb/s: pair %.2f did not exceed fluid %.2f",
				fluid.X[i], pair.Y[i], fluid.Y[i])
		}
	}
}

// Appendix A cross-validation: the Matlab-substitute queueing
// simulator, fed with the MAC engine's measured per-index access-delay
// distributions, reproduces the MAC engine's dispersion for the same
// train. This is the paper's three-way validation (testbed / NS2 /
// Matlab) with the two in-repo simulators.
func TestQueueSimCrossValidation(t *testing.T) {
	skipShort(t)
	l := probe.Link{
		Contenders: []probe.Flow{{RateBps: 4e6, Size: 1500}},
		Seed:       555,
	}
	const n, rate = 20, 8e6
	ts, err := probe.MeasureTrain(l, n, rate, 300)
	if err != nil {
		t.Fatal(err)
	}
	macGO := ts.MeanGO()

	model, err := queuesim.NewServiceModel(ts.DelaysByIndex())
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRand(556)
	qGO, err := model.ReplayDispersion(r, n, ts.GI, 600)
	if err != nil {
		t.Fatal(err)
	}
	// The replay treats per-packet services as independent draws, so a
	// modest gap is expected; the two estimates must agree within 20%.
	if rel := math.Abs(qGO-macGO) / macGO; rel > 0.20 {
		t.Errorf("queuesim gO %.6f vs MAC gO %.6f: relative gap %.1f%%",
			qGO, macGO, rel*100)
	}
}

// Figure 17: the MSER-2 corrected curve tracks the steady state at
// least as well as the raw short-train curve overall.
func TestShapeFig17(t *testing.T) {
	skipShort(t)
	p := experiments.DefaultFig17()
	sc := integScale()
	sc.Reps = 200
	sc.SweepPoints = 8
	fig, err := experiments.Fig17MSER(p, sc)
	if err != nil {
		t.Fatal(err)
	}
	steady, raw, corr := fig.Series[0], fig.Series[1], fig.Series[2]
	var rawErr, corrErr float64
	for i := range steady.Y {
		d1 := raw.Y[i] - steady.Y[i]
		d2 := corr.Y[i] - steady.Y[i]
		rawErr += d1 * d1
		corrErr += d2 * d2
	}
	// Allow a small margin: MSER is a heuristic.
	if corrErr > rawErr*1.15 {
		t.Errorf("MSER-corrected error %.4f worse than raw %.4f", corrErr, rawErr)
	}
}

// Acceptance criterion of the estimator layer: on the paper's perfect-
// channel Fig. 2/3 scenario at moderate cross-load, the closed-loop
// TOPP and adaptive-train estimators land within 10% of the measured
// ground-truth available bandwidth, and the SLoPS bisection converges
// within its log2(bracket/resolution) round bound.
func TestEstimatorAccuracy(t *testing.T) {
	skipShort(t)
	l := probe.Link{
		Contenders: []probe.Flow{{RateBps: 2.5e6, Size: 1500}},
		Seed:       2025,
	}
	truth, err := estimate.GroundTruth(l, estimate.TruthConfig{Duration: 6 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	relErr := func(v float64) float64 {
		return math.Abs(v-truth.AvailableBps) / truth.AvailableBps
	}

	topp, err := estimate.TOPP(l, estimate.TOPPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rel := relErr(topp.Value); rel > 0.10 {
		t.Errorf("TOPP %.2f Mb/s vs truth %.2f Mb/s: %.1f%% off, want <= 10%%",
			topp.Value/1e6, truth.AvailableBps/1e6, 100*rel)
	}

	ad, err := estimate.Adaptive(l, estimate.AdaptiveConfig{RateBps: 12e6, TrainLen: 100})
	if err != nil {
		t.Fatal(err)
	}
	if rel := relErr(ad.Value); rel > 0.10 {
		t.Errorf("adaptive %.2f Mb/s vs truth %.2f Mb/s: %.1f%% off, want <= 10%%",
			ad.Value/1e6, truth.AvailableBps/1e6, 100*rel)
	}

	slCfg := estimate.SLoPSConfig{}
	sl, err := estimate.SLoPS(l, slCfg)
	if err != nil {
		t.Fatal(err)
	}
	// The bisection's round bound: halving from the default bracket to
	// the default resolution.
	hi := 1.2 * phy.B11().MaxThroughput(1500)
	bound := int(math.Ceil(math.Log2((hi - 0.25e6) / 250e3)))
	if sl.Rounds > bound {
		t.Errorf("SLoPS took %d rounds, bisection bound is %d", sl.Rounds, bound)
	}
	// SLoPS is the noisier estimator (the paper's Section 5.3 point is
	// precisely that self-loading trends are distorted by access
	// delays); hold it to a looser band so a regression that breaks the
	// trend test outright still fails loudly.
	if rel := relErr(sl.Value); rel > 0.25 {
		t.Errorf("SLoPS %.2f Mb/s vs truth %.2f Mb/s: %.1f%% off, want <= 25%%",
			sl.Value/1e6, truth.AvailableBps/1e6, 100*rel)
	}
}
