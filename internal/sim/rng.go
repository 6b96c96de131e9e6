package sim

import (
	"math"
	"math/bits"
)

// Rand is a small, fast, seedable pseudo-random generator
// (xorshift128+ with a splitmix64-initialised state). It exists so that
// simulation results depend only on the seed — never on math/rand global
// state — and so that independent replications can be derived from a base
// seed with Split without accidental stream overlap.
type Rand struct {
	s0, s1 uint64
}

// splitmix64 advances a 64-bit state and returns a well-mixed output.
// It is the standard way to expand a single seed into generator state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRand returns a generator seeded from seed. Two generators built from
// the same seed produce identical streams.
func NewRand(seed int64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed reseeds r in place: afterwards r produces exactly NewRand(seed)'s
// stream, whatever it held before. Engines and meters that keep their
// generators across replications reseed them instead of allocating.
func (r *Rand) Seed(seed int64) {
	x := uint64(seed)
	r.s0 = splitmix64(&x)
	r.s1 = splitmix64(&x)
	if r.s0 == 0 && r.s1 == 0 {
		r.s1 = 1 // xorshift state must be nonzero
	}
}

// Split derives an independent generator for a labelled sub-stream
// (for example one per station, or one per replication). The derivation
// mixes the label through splitmix64 so adjacent labels yield unrelated
// streams.
func (r *Rand) Split(label uint64) *Rand {
	n := &Rand{}
	r.SplitInto(label, n)
	return n
}

// SplitInto is Split writing the derived generator into dst instead of
// allocating a new one — the reseeding primitive for engines that reuse
// their per-station generators across replications (mac.Engine.Reset).
// It consumes exactly the same parent state as Split, so a reseeded
// generator is byte-identical to a freshly Split one.
func (r *Rand) SplitInto(label uint64, dst *Rand) {
	dst.Seed(int64(r.Uint64() ^ (label * 0x9e3779b97f4a7c15)))
}

// Stream is a position in a deterministic tree of RNG substreams. It is
// a pure value: deriving Child(i) never mutates the parent and never
// depends on how many children were derived before, so replication i of
// an experiment obtains exactly the same stream whether replications run
// serially, out of order, or concurrently on any number of workers.
//
// This is the property Rand.Split lacks — Split consumes generator
// state, so the stream a label receives depends on call order. New code
// that fans replications out across goroutines must derive per-unit
// randomness through Stream.
type Stream struct {
	key uint64
}

// NewStream returns the root of a substream tree for the given seed.
func NewStream(seed int64) Stream {
	x := uint64(seed)
	return Stream{key: splitmix64(&x)}
}

// Child derives the i-th substream. The child key is the (i+1)-th output
// of a SplitMix64 sequence whose state starts at the parent key, so
// adjacent indices yield fully decorrelated keys and the derivation is a
// pure function of (parent, i).
func (s Stream) Child(i uint64) Stream {
	x := s.key + i*0x9e3779b97f4a7c15
	return Stream{key: splitmix64(&x)}
}

// Rand materialises a generator at this stream position. Every call
// returns an identical, independent copy.
func (s Stream) Rand() *Rand {
	r := &Rand{}
	r.Seed(int64(s.key))
	return r
}

// Seed collapses the stream position to an int64, for APIs (for example
// mac.Config.Seed) that take a scalar seed.
func (s Stream) Seed() int64 {
	return int64(s.key)
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and division-free
	// in the common case.
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed value with the given mean.
// A zero or negative mean panics, because it would silently degenerate a
// Poisson arrival process.
func (r *Rand) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("sim: Exp with non-positive mean")
	}
	// 1-u is in (0, 1], so the logarithm is finite.
	return -mean * math.Log(1-r.Float64())
}

// ExpTime returns an exponentially distributed duration with the given
// mean duration.
func (r *Rand) ExpTime(mean Time) Time {
	return Time(math.Round(r.Exp(float64(mean))))
}

// Perm fills a permutation of [0, n) using Fisher–Yates.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
