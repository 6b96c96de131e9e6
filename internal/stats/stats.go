// Package stats provides the statistical machinery the paper's analysis
// relies on: empirical distributions, the two-sample Kolmogorov–Smirnov
// test with linear interpolation of the discrete ECDF (footnote 2 of the
// paper), histograms, summary statistics with confidence intervals, the
// MSER-m warm-up truncation heuristic (Section 7.4), and the
// tolerance-based transient-duration estimator behind Figure 10.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds moments of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // unbiased (n-1 denominator)
	Min      float64
	Max      float64
}

// Summarize computes a Summary of xs. An empty input yields a zero
// Summary with N == 0.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Variance = ss / float64(s.N-1)
	}
	return s
}

// StdDev returns the sample standard deviation.
func (s Summary) StdDev() float64 { return math.Sqrt(s.Variance) }

// CI95HalfWidth returns the half-width of a normal-approximation 95%
// confidence interval for the mean.
func (s Summary) CI95HalfWidth() float64 {
	if s.N < 2 {
		return math.Inf(1)
	}
	return 1.96 * s.StdDev() / math.Sqrt(float64(s.N))
}

// SigmaInflation returns the loss-aware standard-deviation inflation
// factor 1 + sqrt(4p) for a packet-loss fraction p, clamped to [1, 3]
// (p outside [0, 1] is clamped into it first). Loss both removes
// samples and correlates the survivors' dispersion, so a campaign on a
// lossy link needs more evidence for the same confidence; inflating
// sigma by this factor is the bwprobe-style correction that lengthens
// the campaign instead of letting it stop early on an optimistic
// confidence interval. A zero loss fraction returns exactly 1, so
// loss-free campaigns are untouched.
func SigmaInflation(p float64) float64 {
	if math.IsNaN(p) || p <= 0 {
		return 1
	}
	if p > 1 {
		p = 1
	}
	f := 1 + math.Sqrt(4*p)
	if f > 3 {
		f = 3
	}
	return f
}

// EffectiveCI95HalfWidth is CI95HalfWidth with the loss-aware sigma
// inflation applied: z·sigma_eff/sqrt(n) where sigma_eff =
// sigma·SigmaInflation(lossFrac). This is the effective error bound
// (epsilon_eff) a budget-truncated campaign reports — the half-width
// the evidence actually supports, never the target it was aiming for.
func (s Summary) EffectiveCI95HalfWidth(lossFrac float64) float64 {
	return s.CI95HalfWidth() * SigmaInflation(lossFrac)
}

// Mean is a convenience for Summarize(xs).Mean.
func Mean(xs []float64) float64 { return Summarize(xs).Mean }

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It panics on empty input or
// out-of-range q.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %g out of [0,1]", q))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// ECDF is an empirical cumulative distribution function over a sorted
// sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs (a copy is taken and sorted). A copy
// of at least radixMin values with no sign bit set and no NaN — the
// access-delay pools of Figs. 8 and 9 — is ordered by an LSD radix sort
// on the IEEE bit patterns, in O(len(xs)) instead of O(len(xs) log
// len(xs)): on such values the bit patterns order as the numbers do and
// equal numbers have equal bits, so the result is the one
// sort.Float64s gives, which orders every other input.
func NewECDF(xs []float64) *ECDF {
	return sortedECDF(append([]float64(nil), xs...))
}

// TailECDF is NewECDF(Tail(reps, from)) built from one concatenation:
// the pool is copied once, straight into the ECDF's storage, and sorted
// there. An empty pool gives an empty ECDF.
func TailECDF(reps [][]float64, from int) *ECDF {
	return sortedECDF(Tail(reps, from))
}

// sortedECDF sorts s in place, as NewECDF describes, and wraps it; the
// ECDF owns s.
func sortedECDF(s []float64) *ECDF {
	if len(s) < radixMin || !radixSort(s) {
		sort.Float64s(s)
	}
	return &ECDF{sorted: s}
}

// radixMin is the smallest input NewECDF radix-sorts: below it the
// passes' fixed cost exceeds what they save over sort.Float64s.
const radixMin = 512

// radixSort sorts s by the bit patterns of its values, one byte per
// stable counting pass from the least significant, skipping a byte
// every value shares. It returns false, with s untouched, when a value
// has its sign bit set (−0 and negative numbers) or is NaN: their bit
// patterns do not order as sort.Float64s does.
func radixSort(s []float64) bool {
	var counts [8][256]int
	for _, v := range s {
		b := math.Float64bits(v)
		if b > math.Float64bits(math.Inf(1)) {
			return false
		}
		for p := range counts {
			counts[p][byte(b>>(8*p))]++
		}
	}
	src, dst := s, make([]float64, len(s))
	for p := range counts {
		c, shift := &counts[p], 8*p
		if c[byte(math.Float64bits(src[0])>>shift)] == len(s) {
			continue
		}
		off := 0
		for k, cnt := range c {
			c[k], off = off, off+cnt
		}
		for _, v := range src {
			k := byte(math.Float64bits(v) >> shift)
			dst[c[k]] = v
			c[k]++
		}
		src, dst = dst, src
	}
	copy(s, src)
	return true
}

// Len returns the sample size.
func (e *ECDF) Len() int { return len(e.sorted) }

// At returns the step-function ECDF value F(x) = P(X <= x).
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// Number of samples <= x.
	n := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(n) / float64(len(e.sorted))
}

// AtInterpolated returns a continuous version of the ECDF obtained by
// linear interpolation between the jump points, the convention the paper
// adopts when comparing two empirical discrete distributions with the KS
// test (footnote 2).
func (e *ECDF) AtInterpolated(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	return e.interpolate(x, sort.SearchFloat64s(e.sorted, x))
}

// interpolate is AtInterpolated on a non-empty sample, given i, the
// index of the first sorted value >= x (len(sorted) if there is none).
// The KS tests supply i from their walk over the sorted sample instead
// of a search.
func (e *ECDF) interpolate(x float64, i int) float64 {
	s := e.sorted
	n := len(s)
	if x <= s[0] {
		if x == s[0] {
			return 1 / float64(n)
		}
		return 0
	}
	if x >= s[n-1] {
		return 1
	}
	if s[i] == x {
		return float64(i+1) / float64(n)
	}
	// s[i-1] < x < s[i]: interpolate between their ECDF values.
	x0, x1 := s[i-1], s[i]
	f0, f1 := float64(i)/float64(n), float64(i+1)/float64(n)
	return f0 + (f1-f0)*(x-x0)/(x1-x0)
}

// Autocorrelation returns the lag-k sample autocorrelation of xs.
// The access delays of consecutive probing packets are positively
// correlated (each packet's contention outcome conditions the next
// packet's queue state), which is why the MSER correction is applied to
// the ensemble mean series rather than to single noisy trains.
func Autocorrelation(xs []float64, k int) float64 {
	n := len(xs)
	if k < 0 || k >= n {
		panic(fmt.Sprintf("stats: lag %d outside series of %d", k, n))
	}
	mean := Mean(xs)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - mean
		den += d * d
	}
	if den == 0 {
		return 0
	}
	for i := 0; i+k < n; i++ {
		num += (xs[i] - mean) * (xs[i+k] - mean)
	}
	return num / den
}

// Histogram is a fixed-width binning of a sample.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Under  int // samples below Lo
	Over   int // samples above Hi
}

// NewHistogram bins xs into bins equal-width buckets over [lo, hi).
func NewHistogram(xs []float64, lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic(fmt.Sprintf("stats: %d bins", bins))
	}
	if hi <= lo {
		panic(fmt.Sprintf("stats: histogram range [%g, %g)", lo, hi))
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	w := (hi - lo) / float64(bins)
	for _, x := range xs {
		switch {
		case x < lo:
			h.Under++
		case x >= hi:
			h.Over++
		default:
			i := int((x - lo) / w)
			if i == bins { // guard against FP edge
				i = bins - 1
			}
			h.Counts[i]++
		}
	}
	return h
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Total returns the number of in-range samples.
func (h *Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Mode returns the index of the most populated bin (ties: lowest index).
func (h *Histogram) Mode() int {
	best, bestC := 0, -1
	for i, c := range h.Counts {
		if c > bestC {
			best, bestC = i, c
		}
	}
	return best
}
