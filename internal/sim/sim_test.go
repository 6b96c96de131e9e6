package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	tests := []struct {
		name string
		got  Time
		want Time
	}{
		{"microsecond", Microsecond, 1000},
		{"millisecond", Millisecond, 1000 * 1000},
		{"second", Second, 1e9},
		{"from seconds", FromSeconds(1.5), 1500 * Millisecond},
		{"from micros", FromMicros(20), 20 * Microsecond},
		{"from micros fractional", FromMicros(0.5), 500},
		{"from seconds rounds", FromSeconds(1e-9 * 0.6), 1},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("%s: got %d want %d", tt.name, tt.got, tt.want)
		}
	}
}

func TestTimeSeconds(t *testing.T) {
	if got := (2500 * Millisecond).Seconds(); got != 2.5 {
		t.Errorf("Seconds() = %v, want 2.5", got)
	}
	if got := (30 * Microsecond).Micros(); got != 30 {
		t.Errorf("Micros() = %v, want 30", got)
	}
}

func TestTimeString(t *testing.T) {
	if got := (20 * Microsecond).String(); got != "20.000us" {
		t.Errorf("String() = %q", got)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRandDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("%d/100 identical outputs for different seeds", same)
	}
}

func TestRandSplitIndependence(t *testing.T) {
	base := NewRand(9)
	s1 := base.Split(1)
	s2 := base.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if s1.Uint64() == s2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams overlap: %d/100 identical", same)
	}
}

// TestRandSeedInPlace: reseeding a generator in place, fresh or after
// it has been drawn from and split, yields exactly NewRand's stream.
func TestRandSeedInPlace(t *testing.T) {
	var r Rand
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		r.Seed(seed)
		want := NewRand(seed)
		for i := 0; i < 100; i++ {
			if got, w := r.Uint64(), want.Uint64(); got != w {
				t.Fatalf("seed %d step %d: %d, NewRand gives %d", seed, i, got, w)
			}
		}
		r.Split(3).Uint64() // leave r used before the next reseed
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(3)
	for n := 1; n <= 33; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestRandIntnUniform(t *testing.T) {
	r := NewRand(11)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %g", i, c, want)
		}
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(13)
	const mean = 250.0
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(mean)
	}
	got := sum / n
	if math.Abs(got-mean) > mean*0.02 {
		t.Fatalf("empirical mean %g too far from %g", got, mean)
	}
}

func TestRandExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Exp(0)")
		}
	}()
	NewRand(1).Exp(0)
}

func TestRandExpTime(t *testing.T) {
	r := NewRand(17)
	v := r.ExpTime(Millisecond)
	if v < 0 {
		t.Fatalf("ExpTime returned negative duration %v", v)
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(21)
	p := r.Perm(50)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

// Property: Intn is always within range for arbitrary positive n.
func TestRandIntnProperty(t *testing.T) {
	r := NewRand(99)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
