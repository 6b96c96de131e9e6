package stats

import (
	"fmt"
	"math"
)

// KSResult is the outcome of a two-sample Kolmogorov–Smirnov comparison.
type KSResult struct {
	// D is the KS statistic: the supremum distance between the two
	// distribution functions.
	D float64
	// Threshold is the critical value at the requested confidence; the
	// samples are deemed to come from different distributions when
	// D > Threshold.
	Threshold float64
}

// Reject reports whether the null hypothesis (same distribution) is
// rejected.
func (r KSResult) Reject() bool { return r.D > r.Threshold }

// ksCritical returns c(alpha) * sqrt((n+m)/(n*m)) for the two-sample KS
// test. Only the standard confidence levels are supported.
func ksCritical(n, m int, alpha float64) float64 {
	var c float64
	switch alpha {
	case 0.10:
		c = 1.22
	case 0.05:
		c = 1.36
	case 0.01:
		c = 1.63
	default:
		panic(fmt.Sprintf("stats: unsupported KS alpha %g", alpha))
	}
	return c * math.Sqrt(float64(n+m)/float64(n*m))
}

// KSTwoSample runs the classical two-sample KS test on raw step ECDFs at
// significance alpha (0.10, 0.05, or 0.01).
func KSTwoSample(a, b []float64, alpha float64) KSResult {
	if len(b) == 0 {
		panic("stats: KS test on empty sample")
	}
	return KSTwoSampleECDF(a, NewECDF(b), alpha)
}

// KSTwoSampleECDF is KSTwoSample with the second sample supplied as a
// pre-built ECDF, for callers that test many samples against one
// reference pool (the per-packet-index sweeps of Figs. 8 and 9): the
// pool is sorted once instead of once per test. The result is
// identical to KSTwoSample on the pool's raw values.
//
// One ordered sweep over the merged samples evaluates both ECDFs as
// running counts, so a test against a pool of m values costs
// O(n log n + m) for n = len(a): sorting a plus one pass.
func KSTwoSampleECDF(a []float64, eb *ECDF, alpha float64) KSResult {
	if len(a) == 0 || eb.Len() == 0 {
		panic("stats: KS test on empty sample")
	}
	as, bs := NewECDF(a).sorted, eb.sorted
	n, m := float64(len(as)), float64(len(bs))
	d := 0.0
	// Between two step functions, the supremum distance is attained
	// either at a jump point of one of the samples or in the open
	// interval just left of one: F_a jumps *at* its own points but is
	// still flat just below a jump of F_b (and vice versa), so both
	// sides of every jump in *both* samples must be checked. Checking
	// below only a's jumps underestimates D whenever a has no jump at a
	// b jump point. The sweep visits every distinct jump point x of
	// either sample in order and takes both functions at x as counts of
	// values <= x. Both are flat from one jump point to the next, so the
	// distance just below x is the one taken at the previous point (0
	// below the first): every evaluation the check needs is made once.
	ai, bi := 0, 0
	for ai < len(as) || bi < len(bs) {
		x := nextPoint(as, bs, ai, bi)
		for ai < len(as) && as[ai] <= x {
			ai++
		}
		for bi < len(bs) && bs[bi] <= x {
			bi++
		}
		if v := math.Abs(float64(ai)/n - float64(bi)/m); v > d {
			d = v
		}
	}
	return KSResult{D: d, Threshold: ksCritical(len(a), eb.Len(), alpha)}
}

// nextPoint returns the smallest of as[ai] and bs[bi], the next point
// of the union of two sorted samples; at least one index is in range.
func nextPoint(as, bs []float64, ai, bi int) float64 {
	if bi >= len(bs) || (ai < len(as) && as[ai] <= bs[bi]) {
		return as[ai]
	}
	return bs[bi]
}

// KSTwoSampleInterp runs the two-sample KS test with sample a converted
// to a continuous distribution by linear interpolation of its ECDF —
// the exact convention the paper describes in footnote 2 ("since we are
// using the KS test to compare two empirical discrete distributions we
// convert one of them to a continuous one using linear interpolation").
// The supremum is evaluated at the jump points of both samples.
func KSTwoSampleInterp(a, b []float64, alpha float64) KSResult {
	if len(b) == 0 {
		panic("stats: KS test on empty sample")
	}
	return KSTwoSampleInterpECDF(a, NewECDF(b), alpha)
}

// KSTwoSampleInterpECDF is KSTwoSampleInterp with the second sample
// supplied as a pre-built ECDF (see KSTwoSampleECDF). One ordered sweep
// over the merged samples visits each distinct jump point x once: bi
// counts the pool values <= x, so F_b(x) = bi/m, and ai indexes the
// first value of a that is >= x, which is where the interpolation of
// F_a(x) starts. A test against a pool of m values costs
// O(n log n + m) for n = len(a).
func KSTwoSampleInterpECDF(a []float64, eb *ECDF, alpha float64) KSResult {
	if len(a) == 0 || eb.Len() == 0 {
		panic("stats: KS test on empty sample")
	}
	ea := NewECDF(a)
	as, bs := ea.sorted, eb.sorted
	m := float64(len(bs))
	d := 0.0
	ai, bi := 0, 0
	for ai < len(as) || bi < len(bs) {
		x := nextPoint(as, bs, ai, bi)
		for bi < len(bs) && bs[bi] <= x {
			bi++
		}
		if v := math.Abs(ea.interpolate(x, ai) - float64(bi)/m); v > d {
			d = v
		}
		for ai < len(as) && as[ai] <= x {
			ai++
		}
	}
	return KSResult{D: d, Threshold: ksCritical(len(a), eb.Len(), alpha)}
}
