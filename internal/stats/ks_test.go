package stats

import (
	"math"
	"sort"
	"testing"

	"csmabw/internal/sim"
)

// The reference: the same two statistics evaluated point by point with
// a binary search per ECDF value, against which the sweeps are held bit
// for bit. refAt undercounts at x = +Inf, so comparisons against it use
// finite samples only.

func (e *ECDF) refAt(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// Number of samples <= x.
	n := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(n) / float64(len(e.sorted))
}

func (e *ECDF) refAtInterpolated(x float64) float64 {
	n := len(e.sorted)
	if n == 0 {
		return 0
	}
	if x <= e.sorted[0] {
		if x == e.sorted[0] {
			return 1 / float64(n)
		}
		return 0
	}
	if x >= e.sorted[n-1] {
		return 1
	}
	// Find i with sorted[i] <= x < sorted[i+1].
	i := sort.SearchFloat64s(e.sorted, x)
	if i < n && e.sorted[i] == x {
		return float64(i+1) / float64(n)
	}
	i--
	x0, x1 := e.sorted[i], e.sorted[i+1]
	f0, f1 := float64(i+1)/float64(n), float64(i+2)/float64(n)
	if x1 == x0 {
		return f1
	}
	return f0 + (f1-f0)*(x-x0)/(x1-x0)
}

func refKSTwoSampleECDF(a []float64, eb *ECDF, alpha float64) KSResult {
	if len(a) == 0 || eb.Len() == 0 {
		panic("stats: KS test on empty sample")
	}
	ea := NewECDF(a)
	d := 0.0
	// Between two step functions, the supremum distance is attained
	// either at a jump point of one of the samples or in the open
	// interval just left of one: F_a jumps *at* its own points but is
	// still flat just below a jump of F_b (and vice versa), so both
	// sides of every jump in *both* samples must be checked. Checking
	// below only a's jumps underestimates D whenever a has no jump at a
	// b jump point.
	check := func(x float64) {
		if v := math.Abs(ea.refAt(x) - eb.refAt(x)); v > d {
			d = v
		}
		below := math.Nextafter(x, math.Inf(-1))
		if v := math.Abs(ea.refAt(below) - eb.refAt(below)); v > d {
			d = v
		}
	}
	for _, x := range ea.sorted {
		check(x)
	}
	for _, x := range eb.sorted {
		check(x)
	}
	return KSResult{D: d, Threshold: ksCritical(len(a), eb.Len(), alpha)}
}

func refKSTwoSampleInterpECDF(a []float64, eb *ECDF, alpha float64) KSResult {
	if len(a) == 0 || eb.Len() == 0 {
		panic("stats: KS test on empty sample")
	}
	ea := NewECDF(a)
	d := 0.0
	ai, bi := 0, 0
	for ai < len(ea.sorted) || bi < len(eb.sorted) {
		var x float64
		if bi >= len(eb.sorted) || (ai < len(ea.sorted) && ea.sorted[ai] <= eb.sorted[bi]) {
			x = ea.sorted[ai]
			ai++
		} else {
			x = eb.sorted[bi]
			bi++
		}
		if v := math.Abs(ea.refAtInterpolated(x) - eb.refAt(x)); v > d {
			d = v
		}
	}
	return KSResult{D: d, Threshold: ksCritical(len(a), eb.Len(), alpha)}
}

// checkSweepMatchesReference fails t unless both KS variants give the
// reference's D bit for bit on a against the pool b.
func checkSweepMatchesReference(t *testing.T, a, b []float64) {
	t.Helper()
	eb := NewECDF(b)
	for _, c := range []struct {
		name      string
		got, want KSResult
	}{
		{"step", KSTwoSampleECDF(a, eb, 0.05), refKSTwoSampleECDF(a, eb, 0.05)},
		{"interp", KSTwoSampleInterpECDF(a, eb, 0.05), refKSTwoSampleInterpECDF(a, eb, 0.05)},
	} {
		if math.Float64bits(c.got.D) != math.Float64bits(c.want.D) {
			t.Fatalf("%s: D = %v, reference %v (a=%v b=%v)", c.name, c.got.D, c.want.D, a, b)
		}
	}
}

// TestKSSweepMatchesReference holds both sweeps to the reference on
// random finite samples: continuous draws, heavy ties, constant
// samples, −0 next to +0, single values, a equal to the pool, and
// supports disjoint on either side.
func TestKSSweepMatchesReference(t *testing.T) {
	r := sim.NewRand(16)
	negZero := math.Copysign(0, -1)
	draw := func(shift float64) []float64 {
		n := 1 + r.Intn(40)
		if r.Intn(5) == 0 {
			n = 1
		}
		xs := make([]float64, n)
		kind := r.Intn(4)
		for i := range xs {
			switch kind {
			case 0:
				xs[i] = r.Float64()*4 + shift
			case 1:
				xs[i] = math.Floor(r.Float64()*4) + shift
			case 2:
				xs[i] = shift
			case 3:
				xs[i] = []float64{-1, negZero, 0, 1}[r.Intn(4)]
			}
		}
		return xs
	}
	for trial := 0; trial < 4000; trial++ {
		var shiftA, shiftB float64
		switch r.Intn(4) {
		case 0:
			shiftA = 10 // a entirely above the pool
		case 1:
			shiftB = 10 // a entirely below the pool
		}
		a, b := draw(shiftA), draw(shiftB)
		if r.Intn(6) == 0 {
			a = append([]float64(nil), b...)
		}
		checkSweepMatchesReference(t, a, b)
	}
}

// TestKSSweepMatchesReferenceOnPools holds both sweeps to the reference
// against pools the size of the steady-state pools of Figs. 8 and 9
// (5k to 60k values). A third of each pool ties at one immediate-access
// value and the rest is an exponential tail, on a 20 µs slot grid or
// continuous, so most gaps between a sample's values hold many pool
// values and the interpolated sweep skips them whole. The 200-value
// samples follow the pool's law, a shifted law, values the pool holds,
// −0 next to +0 (against a pool holding zeros of both signs), one
// repeated value, and supports below or above the pool; single-value
// samples are checked too.
func TestKSSweepMatchesReferenceOnPools(t *testing.T) {
	r := sim.NewRand(22)
	negZero := math.Copysign(0, -1)
	const immediate = 1.1e-3
	for pi, m := range []int{5000, 12000, 30000, 60000} {
		slotted := pi%2 == 0
		delay := func(shift float64) float64 {
			if r.Intn(3) == 0 {
				return immediate + shift
			}
			if slotted {
				return immediate + shift + 20e-6*math.Floor(r.Exp(60))
			}
			return immediate + shift + r.Exp(1.5e-3)
		}
		pool := make([]float64, m)
		for i := range pool {
			pool[i] = delay(0)
		}
		if m == 12000 {
			for i := 0; i < m; i += 5 {
				pool[i] = []float64{negZero, 0}[i/5%2]
			}
		}
		eb := NewECDF(pool)
		for kind := 0; kind < 7; kind++ {
			for trial := 0; trial < 4; trial++ {
				a := make([]float64, 200)
				for i := range a {
					switch kind {
					case 0:
						a[i] = delay(0)
					case 1:
						a[i] = delay(0.4e-3 * float64(trial))
					case 2:
						a[i] = pool[r.Intn(m)]
					case 3:
						a[i] = []float64{negZero, 0, immediate, delay(0)}[r.Intn(4)]
					case 4:
						a[i] = pool[trial]
					case 5:
						a[i] = -delay(0)
					case 6:
						a[i] = delay(1)
					}
				}
				checkPoolMatchesReference(t, a, eb)
				checkPoolMatchesReference(t, a[:1], eb)
			}
		}
	}

	// Two gaps whose bound is tight: against a = 1, 2, …, 200, where
	// F_a(x) = x/200, each pool puts its supremum at a lone pool value
	// just past a = 100, at most 1/m above the distance at a = 100, so a
	// bound short by one pool value skips the gap that holds D.
	a := make([]float64, 200)
	for i := range a {
		a[i] = float64(i + 1)
	}
	const m = 5000
	// The pool runs ahead of a: 4,990 values at 100, one at 100+1e-6.
	ahead := make([]float64, 0, m)
	for len(ahead) < 4990 {
		ahead = append(ahead, 100)
	}
	ahead = append(ahead, 100+1e-6)
	for len(ahead) < m {
		ahead = append(ahead, 1000)
	}
	// a runs ahead of the pool: ten values at each of 1…100, one at
	// 100.06, then 3,000 at 101.
	behind := make([]float64, 0, m)
	for x := 1; x <= 100; x++ {
		for k := 0; k < 10; k++ {
			behind = append(behind, float64(x))
		}
	}
	behind = append(behind, 100.06)
	for k := 0; k < 3000; k++ {
		behind = append(behind, 101)
	}
	for len(behind) < m {
		behind = append(behind, 1000)
	}
	for _, pool := range [][]float64{ahead, behind} {
		checkPoolMatchesReference(t, a, NewECDF(pool))
	}
}

// checkPoolMatchesReference fails t unless both KS variants give the
// reference's D bit for bit on a against the pool eb.
func checkPoolMatchesReference(t *testing.T, a []float64, eb *ECDF) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want KSResult
	}{
		{"step", KSTwoSampleECDF(a, eb, 0.05), refKSTwoSampleECDF(a, eb, 0.05)},
		{"interp", KSTwoSampleInterpECDF(a, eb, 0.05), refKSTwoSampleInterpECDF(a, eb, 0.05)},
	} {
		if math.Float64bits(c.got.D) != math.Float64bits(c.want.D) {
			t.Fatalf("%s: D = %v, reference %v (%d values against a pool of %d)", c.name, c.got.D, c.want.D, len(a), eb.Len())
		}
	}
}

// FuzzKSSweep holds both sweeps to the reference on two samples of
// small integers times a common finite scale, so ties are common. The
// first byte places the split between a and the pool.
func FuzzKSSweep(f *testing.F) {
	f.Add([]byte{2, 1, 1, 2, 2, 1, 2}, 1.0)        // ties across both samples
	f.Add([]byte{2, 0, 1, 2, 100, 101, 102}, 0.25) // a below the pool
	f.Add([]byte{2, 50, 51, 52, 1, 2, 3}, 3.0)     // a above the pool
	f.Add([]byte{2, 0, 255, 0, 1, 0}, -1.5)        // zeros and negatives
	f.Add([]byte{0, 5, 5}, -2.0)                   // single values, equal
	f.Add([]byte{0, 5, 7}, 1e300)                  // single values, huge scale
	f.Fuzz(func(t *testing.T, data []byte, scale float64) {
		if len(data) < 3 || math.IsNaN(scale) || math.IsInf(scale, 0) {
			t.Skip()
		}
		xs := make([]float64, len(data)-1)
		for i, c := range data[1:] {
			xs[i] = float64(int8(c)) * scale
			if math.IsInf(xs[i], 0) {
				t.Skip()
			}
		}
		na := 1 + int(data[0])%(len(xs)-1)
		checkSweepMatchesReference(t, xs[:na], xs[na:])
	})
}
