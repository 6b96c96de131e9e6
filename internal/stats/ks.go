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
// Between two step functions, the supremum distance is attained either
// at a jump point of one of the samples or in the open interval just
// left of one, where both functions equal their values at the previous
// jump point. So D is the largest |F_a(x) − F_b(x)| over the distinct
// values x of both samples, each function taken as the count of values
// <= x. F_a is flat between consecutive values of a, so there the
// distance is monotone in F_b: the test evaluates every value of a, and
// of the pool values in each gap between them (below a's smallest and
// above its largest included) only the first and the last. Each pool
// count is a binary search resumed from the previous one, so a test
// against a pool of m values costs O(n log n + n log m) for n = len(a),
// whatever m is.
func KSTwoSampleECDF(a []float64, eb *ECDF, alpha float64) KSResult {
	if len(a) == 0 || eb.Len() == 0 {
		panic("stats: KS test on empty sample")
	}
	as, bs := NewECDF(a).sorted, eb.sorted
	n, m := float64(len(as)), float64(len(bs))
	d := 0.0
	// at takes the distance where ai values of a and bi of the pool
	// are <= x.
	at := func(ai, bi int) {
		if v := math.Abs(float64(ai)/n - float64(bi)/m); v > d {
			d = v
		}
	}
	// gap takes the pool values bs[lo:hi], all strictly between the
	// ai-th and the (ai+1)-th value of a, at their first and last
	// distinct value.
	gap := func(ai, lo, hi int) {
		if lo < hi {
			at(ai, countLE(bs, lo, bs[lo]))
			at(ai, hi)
		}
	}
	lo := 0
	for i := 0; i < len(as); {
		x := as[i]
		lt := countLT(bs, lo, x)
		gap(i, lo, lt)
		for i++; i < len(as) && as[i] == x; i++ {
		}
		lo = countLE(bs, lt, x)
		at(i, lo)
	}
	gap(len(as), lo, len(bs))
	return KSResult{D: d, Threshold: ksCritical(len(a), eb.Len(), alpha)}
}

// countLT returns the number of values of the sorted s below x, given
// that the first from of them are.
func countLT(s []float64, from int, x float64) int {
	lo, hi := from, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// countLE returns the number of values of the sorted s at or below x,
// given that the first from of them are.
func countLE(s []float64, from int, x float64) int {
	lo, hi := from, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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
// supplied as a pre-built ECDF (see KSTwoSampleECDF). D is the largest
// |F_a(x) − bi/m| over the distinct values x of both samples, where bi
// counts the pool values <= x and F_a(x) interpolates from the first
// value of a that is >= x. The test evaluates every value of a and
// visits pool values only where they can raise D:
//   - below a's smallest value F_a is 0, and above its largest it is 1,
//     so there the distance is monotone and only the pool value nearest
//     a counts;
//   - inside a gap between consecutive distinct values of a that holds
//     the pool values bs[lo:hi], the computed F_a never decreases (each
//     rounded step of the interpolation is monotone in x) and the pool
//     count runs from lo+1 to hi, so no pool value there is farther
//     than max(F_a(bs[hi-1]) − (lo+1)/m, hi/m − F_a(bs[lo])); a gap
//     whose bound does not exceed the running D is skipped whole, and
//     any other is scanned value by value. The bound carries a 1e-9
//     margin on top, so a skip never rests on the last rounding.
//
// Every visited point gives the distance the full sweep over both
// samples takes there, so D is bit-identical to it. A test against a
// pool of m values costs O(n log n + n log m) for n = len(a), plus the
// pool values in the gaps it scans.
func KSTwoSampleInterpECDF(a []float64, eb *ECDF, alpha float64) KSResult {
	if len(a) == 0 || eb.Len() == 0 {
		panic("stats: KS test on empty sample")
	}
	ea := NewECDF(a)
	as, bs := ea.sorted, eb.sorted
	m := float64(len(bs))
	d := 0.0
	// at takes the distance at x, where ai indexes the first value of
	// a that is >= x and bi counts the pool values <= x.
	at := func(x float64, ai, bi int) {
		if v := math.Abs(ea.interpolate(x, ai) - float64(bi)/m); v > d {
			d = v
		}
	}
	lo := countLT(bs, 0, as[0])
	if lo > 0 {
		at(bs[lo-1], 0, lo)
	}
	for i := 0; i < len(as); {
		x := as[i]
		lt := countLT(bs, lo, x)
		if i > 0 && lo < lt {
			// The gap (as[i-1], x) holds the pool values bs[lo:lt].
			first, last := ea.interpolate(bs[lo], i), ea.interpolate(bs[lt-1], i)
			if max(last-float64(lo+1)/m, float64(lt)/m-first)+1e-9 > d {
				for k := lo; k < lt; {
					y := bs[k]
					for k++; k < lt && bs[k] == y; k++ {
					}
					at(y, i, k)
				}
			}
		}
		lo = countLE(bs, lt, x)
		at(x, i, lo)
		for i++; i < len(as) && as[i] == x; i++ {
		}
	}
	if lo < len(bs) {
		at(bs[lo], len(as), countLE(bs, lo, bs[lo]))
	}
	return KSResult{D: d, Threshold: ksCritical(len(a), eb.Len(), alpha)}
}
