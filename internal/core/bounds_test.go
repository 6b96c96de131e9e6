package core

import (
	"math"
	"testing"
	"testing/quick"

	"csmabw/internal/sim"
)

// increasingMu builds a transient-shaped access delay profile: rising
// from lo to hi over the first w indices, then flat at hi.
func increasingMu(n, w int, lo, hi float64) []float64 {
	mu := make([]float64, n)
	for i := range mu {
		if i < w {
			mu[i] = lo + (hi-lo)*float64(i)/float64(w)
		} else {
			mu[i] = hi
		}
	}
	return mu
}

func TestBoundsNoFIFOSlowProbing(t *testing.T) {
	mu := increasingMu(50, 10, 0.001, 0.002)
	gI := 0.010 // much slower than any access delay
	b := BoundsNoFIFO(gI, mu)
	// Slow probing: upper bound is exactly gI (Eq. 34 first region);
	// the lower bound gI + kappa sits *above* it by the transient term —
	// the paper's own Section 6.2.2 deviation.
	if b.Upper != gI {
		t.Errorf("upper = %g, want gI", b.Upper)
	}
	kappa := (mu[len(mu)-1] - mu[0]) / float64(len(mu)-1)
	if math.Abs(b.Lower-(gI+kappa)) > 1e-12 {
		t.Errorf("lower = %g, want gI + kappa = %g", b.Lower, gI+kappa)
	}
}

func TestBoundsNoFIFOFastProbing(t *testing.T) {
	mu := increasingMu(50, 10, 0.001, 0.002)
	gI := 0.0001 // faster than the access delays: system saturates
	b := BoundsNoFIFO(gI, mu)
	tail := 0.0
	for i := 1; i < len(mu); i++ {
		tail += mu[i]
	}
	tail /= float64(len(mu) - 1)
	if math.Abs(b.Lower-tail) > 1e-12 || math.Abs(b.Upper-tail) > 1e-12 {
		t.Errorf("saturated bounds [%g, %g], want both = %g", b.Lower, b.Upper, tail)
	}
	// Key paper result: the saturated dispersion mean includes transient
	// (smaller) delays, so it is *below* the steady-state access delay —
	// i.e. the inferred rate overestimates the steady-state achievable
	// throughput.
	steady := mu[len(mu)-1]
	if tail >= steady {
		t.Errorf("transient mean %g not below steady %g", tail, steady)
	}
}

func TestBoundsNoFIFOKneeAboveSteadyB(t *testing.T) {
	// Eq. 35: the knee of the short-train curve sits at a rate above the
	// steady-state achievable throughput.
	mu := increasingMu(20, 10, 0.001, 0.002)
	n := len(mu)
	tail := 0.0
	for i := 1; i < n; i++ {
		tail += mu[i]
	}
	tail /= float64(n - 1)
	steadyGap := mu[n-1] // L/B in gap units for the steady state
	if tail >= steadyGap {
		t.Fatalf("tail mean %g should be below steady gap %g", tail, steadyGap)
	}
	// Probing just below the short-train knee (gI < tail): the bound
	// flattens at tail, which is a *smaller* gap (higher rate) than the
	// steady-state achievable throughput — the Eq. 35 observation that
	// the knee sits above B.
	gI := tail * 0.95
	b := BoundsNoFIFO(gI, mu)
	if math.Abs(b.Upper-tail) > 1e-12 {
		t.Errorf("upper bound %g, want flat at tail %g", b.Upper, tail)
	}
	if b.Upper >= steadyGap {
		t.Errorf("short-train plateau %g should beat steady gap %g (optimism)", b.Upper, steadyGap)
	}
}

func TestBoundsNoFIFOPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"short":    func() { BoundsNoFIFO(0.01, []float64{1}) },
		"zero mu":  func() { BoundsNoFIFO(0.01, []float64{0, 1}) },
		"negative": func() { BoundsNoFIFO(-0.01, []float64{0.001, 0.001}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBoundsCompleteReducesToNoFIFO(t *testing.T) {
	mu := increasingMu(30, 10, 0.001, 0.002)
	kappa := (mu[len(mu)-1] - mu[0]) / float64(len(mu)-1)
	for _, gI := range []float64{0.0001, 0.001, 0.003, 0.01} {
		a := BoundsNoFIFO(gI, mu)
		b := BoundsComplete(gI, mu, 0, kappa)
		if math.Abs(a.Lower-b.Lower) > 1e-12 {
			t.Errorf("gI=%g: lower %g vs %g", gI, a.Lower, b.Lower)
		}
		if math.Abs(a.Upper-b.Upper) > 1e-12 {
			t.Errorf("gI=%g: upper %g vs %g", gI, a.Upper, b.Upper)
		}
	}
}

func TestBoundsCompleteFIFOWidensEnvelope(t *testing.T) {
	mu := increasingMu(30, 10, 0.001, 0.002)
	kappa := (mu[len(mu)-1] - mu[0]) / float64(len(mu)-1)
	gI := 0.004
	free := BoundsNoFIFO(gI, mu)
	loaded := BoundsComplete(gI, mu, 0.4, kappa)
	if (loaded.Upper - loaded.Lower) <= (free.Upper - free.Lower) {
		t.Errorf("FIFO cross-traffic should widen the envelope: free [%g,%g], loaded [%g,%g]",
			free.Lower, free.Upper, loaded.Lower, loaded.Upper)
	}
}

func TestBoundsCompleteSaturatedRegion(t *testing.T) {
	mu := increasingMu(30, 10, 0.001, 0.002)
	kappa := (mu[len(mu)-1] - mu[0]) / float64(len(mu)-1)
	gI := 0.00001
	b := BoundsComplete(gI, mu, 0.3, kappa)
	tail := 0.0
	for i := 1; i < len(mu); i++ {
		tail += mu[i]
	}
	tail /= float64(len(mu) - 1)
	want := tail + 0.3*gI
	if math.Abs(b.Lower-want) > 1e-12 || math.Abs(b.Upper-want) > 1e-12 {
		t.Errorf("saturated: [%g, %g], want %g", b.Lower, b.Upper, want)
	}
}

func TestSteadyStateGap(t *testing.T) {
	const l, bf, u = 1500, 4e6, 0.25
	b := AchievableComplete(bf, u)
	lB := float64(l*8) / b
	// Slow probing: gO = gI.
	if got := SteadyStateGap(2*lB, l, bf, u); got != 2*lB {
		t.Errorf("slow: %g", got)
	}
	// Fast probing: gO = L/Bf + u*gI.
	gI := lB / 4
	want := float64(l*8)/bf + u*gI
	if got := SteadyStateGap(gI, l, bf, u); math.Abs(got-want) > 1e-12 {
		t.Errorf("fast: %g, want %g", got, want)
	}
	// Continuity at the knee.
	below := SteadyStateGap(lB*0.999, l, bf, u)
	above := SteadyStateGap(lB*1.001, l, bf, u)
	if math.Abs(below-above) > lB*0.01 {
		t.Errorf("knee discontinuity: %g vs %g", below, above)
	}
}

// Property: for any transient-shaped profile, the bounds are positive
// and any crossing of the envelope is bounded by the transient term
// κ(n) = (mu_n - mu_1)/(n-1) — the deviation the paper quantifies.
func TestBoundsEnvelopeProperty(t *testing.T) {
	f := func(nRaw, wRaw, gRaw uint16) bool {
		n := int(nRaw%48) + 3
		w := int(wRaw%uint16(n)) + 1
		mu := increasingMu(n, w, 0.001, 0.0025)
		gI := float64(gRaw%10000)/1e6 + 1e-6
		b := BoundsNoFIFO(gI, mu)
		kappa := (mu[n-1] - mu[0]) / float64(n-1)
		return b.Lower > 0 && b.Upper > 0 && b.Lower <= b.Upper+kappa+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrectedGapRemovesTransient(t *testing.T) {
	// Gaps: transient (small, accelerated) then steady at 2ms. The
	// corrected estimate should land nearer 2ms than the raw mean.
	var gaps []float64
	for i := 0; i < 30; i++ {
		gaps = append(gaps, 0.001+0.001*float64(i)/30)
	}
	for i := 0; i < 70; i++ {
		gaps = append(gaps, 0.002)
	}
	raw := RawGap(gaps)
	corrected := CorrectedGap(gaps, 2)
	if math.Abs(corrected-0.002) >= math.Abs(raw-0.002) {
		t.Errorf("corrected %g no closer to steady 0.002 than raw %g", corrected, raw)
	}
}

func TestCorrectedRate(t *testing.T) {
	gaps := []float64{0.002, 0.002, 0.002, 0.002}
	if got := CorrectedRate(1500, gaps, 2); math.Abs(got-6e6) > 1 {
		t.Errorf("corrected rate = %g", got)
	}
}

func TestCorrectedGapByPosition(t *testing.T) {
	// Ensemble of trains whose first gaps are transiently small.
	var rows [][]float64
	for r := 0; r < 50; r++ {
		row := make([]float64, 19)
		for i := range row {
			if i < 5 {
				row[i] = 0.001 + 0.0002*float64(i) + 0.0001*float64(r%3)
			} else {
				row[i] = 0.002 + 0.0001*float64(r%3)
			}
		}
		rows = append(rows, row)
	}
	raw := RawGapRows(rows)
	corr := CorrectedGapByPosition(rows, 2)
	steady := 0.002 + 0.0001
	if math.Abs(corr-steady) >= math.Abs(raw-steady) {
		t.Errorf("corrected %g no closer to steady %g than raw %g", corr, steady, raw)
	}
	if corr <= raw {
		t.Errorf("correction should raise the mean gap: %g <= %g", corr, raw)
	}
}

func TestCorrectedGapByPositionNoTransient(t *testing.T) {
	// Flat ensemble: the correction should be nearly a no-op.
	var rows [][]float64
	for r := 0; r < 30; r++ {
		row := make([]float64, 19)
		for i := range row {
			row[i] = 0.002
		}
		rows = append(rows, row)
	}
	raw := RawGapRows(rows)
	corr := CorrectedGapByPosition(rows, 2)
	if math.Abs(corr-raw) > 1e-12 {
		t.Errorf("flat ensemble changed: raw %g corr %g", raw, corr)
	}
}

// TestTrainRates pins that trains with fewer than two gaps are left
// out of both rates, and that no usable train reports !ok, not a
// panic.
func TestTrainRates(t *testing.T) {
	rows := [][]float64{{0.001, 0.002, 0.002, 0.002}, {0.5}, nil, {0.001, 0.002, 0.002, 0.002}}
	raw, corr, ok := TrainRates(rows, 1500, 2)
	usable := [][]float64{rows[0], rows[3]}
	if !ok || raw != RateFromGap(1500, RawGapRows(usable)) || corr != RateFromGap(1500, CorrectedGapByPosition(usable, 2)) {
		t.Errorf("TrainRates = %g, %g, %v; want the rates of the two full trains", raw, corr, ok)
	}
	if raw, corr, ok := TrainRates([][]float64{{0.5}, nil}, 1500, 2); ok || raw != 0 || corr != 0 {
		t.Errorf("no usable train: TrainRates = %g, %g, %v", raw, corr, ok)
	}
}

func TestRawGapRowsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty rows")
		}
	}()
	RawGapRows(nil)
}

func TestGaps(t *testing.T) {
	deps := []float64{1, 1.5, 2.5, 3}
	g := Gaps(deps)
	want := []float64{0.5, 1, 0.5}
	for i := range want {
		if math.Abs(g[i]-want[i]) > 1e-12 {
			t.Errorf("gap %d = %g, want %g", i, g[i], want[i])
		}
	}
}

func TestGapsPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"short":      func() { Gaps([]float64{1}) },
		"unordered":  func() { Gaps([]float64{2, 1}) },
		"raw empty":  func() { RawGap(nil) },
		"corr empty": func() { CorrectedGap(nil, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// Cross-check against the MAC engine's time unit conventions: converting
// sim.Time-derived seconds through the analysis layer stays consistent.
func TestUnitsRoundTrip(t *testing.T) {
	d := 1303 * sim.Microsecond
	mu := []float64{d.Seconds(), d.Seconds()}
	b := AchievableFromDelays(1500, mu)
	if got := GapFromRate(1500, b); math.Abs(got-d.Seconds()) > 1e-9 {
		t.Errorf("round trip through B: %g vs %g", got, d.Seconds())
	}
}
