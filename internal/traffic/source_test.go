package traffic

import (
	"reflect"
	"testing"

	"csmabw/internal/sim"
)

// The lazy sources must reproduce the eager generators arrival for
// arrival — same RNG draw order, same values — because the MAC engine's
// golden determinism contract rides on it.

func TestPoissonSourceMatchesEager(t *testing.T) {
	end := 5 * sim.Second
	eager := Poisson(sim.NewRand(42), 4e6, 1500, 0, end)
	lazy := Collect(NewPoisson(sim.NewRand(42), 4e6, 1500, 0, end))
	if !reflect.DeepEqual(eager, lazy) {
		t.Fatalf("lazy Poisson differs from eager: %d vs %d arrivals", len(lazy), len(eager))
	}
	if len(eager) == 0 {
		t.Fatal("empty schedule")
	}
}

func TestCBRSourceMatchesEager(t *testing.T) {
	end := 2 * sim.Second
	eager := CBR(2e6, 576, 100*sim.Millisecond, end)
	lazy := Collect(NewCBR(2e6, 576, 100*sim.Millisecond, end))
	if !reflect.DeepEqual(eager, lazy) {
		t.Fatal("lazy CBR differs from eager")
	}
}

func TestTrainSourceMatchesEager(t *testing.T) {
	eager := Train(50, 2*sim.Millisecond, 1500, sim.Second)
	lazy := Collect(NewTrain(50, 2*sim.Millisecond, 1500, sim.Second))
	if !reflect.DeepEqual(eager, lazy) {
		t.Fatal("lazy Train differs from eager")
	}
}

func TestOnOffSourceMatchesEager(t *testing.T) {
	end := 5 * sim.Second
	on, off := 20*sim.Millisecond, 30*sim.Millisecond
	eager := OnOff(sim.NewRand(7), 8e6, 1500, on, off, 0, end)
	lazy := Collect(NewOnOff(sim.NewRand(7), 8e6, 1500, on, off, 0, end))
	if !reflect.DeepEqual(eager, lazy) {
		t.Fatalf("lazy OnOff differs from eager: %d vs %d arrivals", len(lazy), len(eager))
	}
	// Zero OFF mean: contiguous bursts, still identical.
	eager = OnOff(sim.NewRand(8), 8e6, 1500, on, 0, 0, end)
	lazy = Collect(NewOnOff(sim.NewRand(8), 8e6, 1500, on, 0, 0, end))
	if !reflect.DeepEqual(eager, lazy) {
		t.Fatal("lazy OnOff (zero off) differs from eager")
	}
}

func TestMergeSourcesMatchesEagerStable(t *testing.T) {
	// Probe train deliberately collides with CBR instants: the stable
	// merge must keep the probe (listed first) ahead at equal times.
	probe := Train(10, sim.Millisecond, 1500, 0)
	cross := CBR(1500*8*1000, 1500, 0, 10*sim.Millisecond) // 1ms gap, same instants
	eager := Merge(probe, cross)
	lazy := Collect(MergeSources(
		NewTrain(10, sim.Millisecond, 1500, 0),
		NewCBR(1500*8*1000, 1500, 0, 10*sim.Millisecond)))
	if !reflect.DeepEqual(eager, lazy) {
		t.Fatalf("lazy merge differs from eager stable merge:\n%v\nvs\n%v", lazy, eager)
	}
	if err := Validate(lazy); err != nil {
		t.Fatal(err)
	}
}

func TestMergeSourcesSingle(t *testing.T) {
	src := NewTrain(3, 0, 100, 0)
	if MergeSources(src) != src {
		t.Fatal("single-source merge should be the identity")
	}
}

func TestMarkedMatchesMarkProbe(t *testing.T) {
	end := sim.Second
	eager := MarkProbe(CBR(5e6, 1500, 0, end))
	lazy := Collect(Marked(NewCBR(5e6, 1500, 0, end)))
	if !reflect.DeepEqual(eager, lazy) {
		t.Fatal("lazy Marked differs from eager MarkProbe")
	}
	for i, a := range lazy {
		if !a.Probe || a.Index != i {
			t.Fatalf("arrival %d not marked: %+v", i, a)
		}
	}
}

func TestFromScheduleRoundTrip(t *testing.T) {
	sched := Merge(Train(5, sim.Millisecond, 1500, 0), CBR(1e6, 576, 0, 20*sim.Millisecond))
	got := Collect(FromSchedule(sched))
	if !reflect.DeepEqual(sched, got) {
		t.Fatal("FromSchedule round trip differs")
	}
}

// TestInitMatchesNew: each in-place Init yields the arrivals of its
// New* form, on a zero source and on one re-initialised after it was
// drained under other arguments.
func TestInitMatchesNew(t *testing.T) {
	end := 2 * sim.Second
	on, off := 20*sim.Millisecond, 30*sim.Millisecond
	var (
		p  PoissonSource
		o  OnOffSource
		tr TrainSource
		m  MergeSource
	)
	for round, seed := range []int64{3, 4} {
		rate := 2e6 * float64(round+1)
		var r sim.Rand
		r.Seed(seed)
		p.Init(&r, rate, 1000, 0, end)
		check(t, "poisson", &p, NewPoisson(sim.NewRand(seed), rate, 1000, 0, end))
		r.Seed(seed)
		o.Init(&r, 4*rate, 500, on, off, 0, end)
		check(t, "onoff", &o, NewOnOff(sim.NewRand(seed), 4*rate, 500, on, off, 0, end))
		tr.Init(10*(round+1), sim.Millisecond, 1500, 0)
		check(t, "train", &tr, NewTrain(10*(round+1), sim.Millisecond, 1500, 0))
		// Merges of three and then two inputs: Init must shrink its
		// per-input storage as well as grow it.
		inputs := func() []Source {
			return []Source{NewTrain(10, sim.Millisecond, 1500, 0), NewCBR(rate, 576, 0, 40*sim.Millisecond),
				NewCBR(1e6, 1500, 0, 30*sim.Millisecond)}[:3-round]
		}
		m.Init(inputs())
		check(t, "merge", &m, MergeSources(inputs()...))
	}
}

// check drains both sources and fails unless they yield the same
// non-empty arrivals.
func check(t *testing.T, name string, got, want Source) {
	t.Helper()
	g, w := Collect(got), Collect(want)
	if len(w) == 0 || !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: Init yields %d arrivals, its New form %d (or they differ)", name, len(g), len(w))
	}
}

func TestSourceConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewTrain(0, 0, 100, 0) },
		func() { NewTrain(1, -1, 100, 0) },
		func() { NewOnOff(sim.NewRand(1), 1e6, 100, 0, 0, 0, sim.Second) },
		func() { NewPoisson(sim.NewRand(1), 0, 100, 0, sim.Second) },
		func() { NewCBR(1e6, 0, 0, sim.Second) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}
