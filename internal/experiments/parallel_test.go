package experiments

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"csmabw/internal/probe"
	"csmabw/internal/sim"
)

// TestWorkersDeterministic is the replication engine's core contract:
// for every figure driver, the same seed yields byte-identical output
// whether replications run on one worker or eight.
func TestWorkersDeterministic(t *testing.T) {
	for _, entry := range Registry() {
		entry := entry
		t.Run(entry.ID, func(t *testing.T) {
			t.Parallel()
			serial := Tiny()
			serial.Workers = 1
			parallel := Tiny()
			parallel.Workers = 8

			fig1, err := entry.Run(serial)
			if err != nil {
				t.Fatal(err)
			}
			fig8, err := entry.Run(parallel)
			if err != nil {
				t.Fatal(err)
			}
			if fig1.CSV() != fig8.CSV() {
				t.Errorf("%s: CSV differs between -workers=1 and -workers=8", entry.ID)
			}
			j1, err := fig1.JSON()
			if err != nil {
				t.Fatal(err)
			}
			j8, err := fig8.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if j1 != j8 {
				t.Errorf("%s: JSON differs between -workers=1 and -workers=8", entry.ID)
			}
			if fig1.Table() != fig8.Table() {
				t.Errorf("%s: table differs between -workers=1 and -workers=8", entry.ID)
			}
		})
	}
}

// TestTrainsMatchesMeasureTrain pins the shared train driver's (cell,
// rep) units: on cells of different seeds and contender counts, at 1
// and 3 workers, each cell's replications are exactly
// probe.MeasureTrain's on that cell.
func TestTrainsMatchesMeasureTrain(t *testing.T) {
	cells := []probe.Link{
		{Contenders: []probe.Flow{{RateBps: 4e6, Size: 1500}}, Seed: 3},
		{Seed: 11},
		{Contenders: []probe.Flow{{RateBps: 1e6, Size: 576}, {RateBps: 2e6, Size: 1500}}, Seed: 29},
	}
	const n, rate = 40, 5e6
	for _, workers := range []int{1, 3} {
		sc := Tiny()
		sc.Workers = workers
		_, err := trains(cells, n, rate, sc, func(byCell []probe.TrainStats) (*Figure, error) {
			for c, cell := range cells {
				want, err := probe.MeasureTrain(cell, n, rate, sc.Reps)
				if err != nil {
					return nil, err
				}
				if !reflect.DeepEqual(byCell[c], *want) {
					t.Errorf("workers %d, cell %d: replications differ from probe.MeasureTrain's", workers, c)
				}
			}
			return &Figure{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestAblationDeterministic covers the one Scenario driver outside the
// registry.
func TestAblationDeterministic(t *testing.T) {
	run := func(workers int) string {
		sc := Tiny()
		sc.Workers = workers
		fig, err := AblationImmediateAccess(DefaultAblation(), sc)
		if err != nil {
			t.Fatal(err)
		}
		return fig.CSV()
	}
	if run(1) != run(8) {
		t.Error("ablation output differs between worker counts")
	}
}

// TestScenarioBuildError ensures Build failures short-circuit before
// any unit runs.
func TestScenarioBuildError(t *testing.T) {
	sentinel := errors.New("bad build")
	_, err := Run(Scenario[int]{
		Units: 4,
		Build: func() error { return sentinel },
		RunOne: func(i int, _ sim.Stream) (int, error) {
			t.Error("RunOne called after Build failed")
			return 0, nil
		},
		Reduce: func([]int) (*Figure, error) {
			t.Error("Reduce called after Build failed")
			return nil, nil
		},
	}, Tiny())
	if !errors.Is(err, sentinel) {
		t.Fatalf("Build error not propagated: %v", err)
	}
}

// TestScenarioUnitError ensures a failing unit surfaces with its index
// and prevents Reduce.
func TestScenarioUnitError(t *testing.T) {
	_, err := Run(Scenario[int]{
		Units: 8,
		RunOne: func(i int, _ sim.Stream) (int, error) {
			if i == 3 {
				return 0, errors.New("unit failure")
			}
			return i, nil
		},
		Reduce: func([]int) (*Figure, error) {
			t.Error("Reduce called despite unit failure")
			return nil, nil
		},
	}, Scale{Reps: 1, SweepPoints: 2, SteadySeconds: 1, Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "unit") {
		t.Fatalf("unit error not surfaced: %v", err)
	}
}

// TestScenarioStreams checks that unit i receives the substream
// Child(i) of the scenario seed, independent of worker count.
func TestScenarioStreams(t *testing.T) {
	collect := func(workers int) []int64 {
		seeds := make([]int64, 16)
		_, err := Run(Scenario[int]{
			Seed:  123,
			Units: len(seeds),
			RunOne: func(i int, s sim.Stream) (int, error) {
				seeds[i] = s.Seed()
				return 0, nil
			},
			Reduce: func([]int) (*Figure, error) { return &Figure{}, nil },
		}, Scale{Reps: 1, SweepPoints: 2, SteadySeconds: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return seeds
	}
	root := sim.NewStream(123)
	s1, s8 := collect(1), collect(8)
	for i := range s1 {
		want := root.Child(uint64(i)).Seed()
		if s1[i] != want || s8[i] != want {
			t.Fatalf("unit %d stream: serial %d, parallel %d, want %d", i, s1[i], s8[i], want)
		}
	}
}

// TestInvalidScaleErrors ensures an invalid Scale reaches the drivers
// as an error, not a panic, even though sweeps are built before Run
// validates.
func TestInvalidScaleErrors(t *testing.T) {
	bad := Scale{Reps: 8, SweepPoints: -1, SteadySeconds: 0.5}
	if _, err := TrainRRC("fig13", DefaultFig13(), bad); err == nil {
		t.Error("TrainRRC accepted negative sweep points")
	}
	if _, err := Fig1SteadyStateRRC(DefaultFig1(), bad); err == nil {
		t.Error("Fig1 accepted negative sweep points")
	}
	if _, err := Fig17MSER(DefaultFig17(), bad); err == nil {
		t.Error("Fig17 accepted negative sweep points")
	}
	if _, err := Fig6MeanAccessDelay(DefaultFig6(), Scale{Reps: 0, SweepPoints: 5, SteadySeconds: 1}, 10); err == nil {
		t.Error("Fig6 accepted zero reps")
	}
}

// TestScenarioExactlyOneRunner: a scenario must set exactly one of
// RunOne and RunOneOn — both or neither is a configuration bug that
// Run reports before any work starts.
func TestScenarioExactlyOneRunner(t *testing.T) {
	runOne := func(i int, _ sim.Stream) (int, error) { return i, nil }
	runOn := func(_ any, i int, _ sim.Stream) (int, error) { return i, nil }
	reduce := func([]int) (*Figure, error) { return &Figure{}, nil }
	if _, err := Run(Scenario[int]{Units: 2, Reduce: reduce}, Tiny()); err == nil {
		t.Error("scenario with neither RunOne nor RunOneOn accepted")
	}
	if _, err := Run(Scenario[int]{Units: 2, RunOne: runOne, RunOneOn: runOn, Reduce: reduce}, Tiny()); err == nil {
		t.Error("scenario with both RunOne and RunOneOn accepted")
	}
}

// TestScenarioWorkerState: RunOneOn receives the value NewWorker built
// for the executing worker, once per worker goroutine.
func TestScenarioWorkerState(t *testing.T) {
	type arena struct{ tag string }
	sc := Tiny()
	sc.Workers = 3
	units := 12
	seen := make([]string, units)
	_, err := Run(Scenario[int]{
		Units:     units,
		NewWorker: func() any { return &arena{tag: "built"} },
		RunOneOn: func(ws any, i int, _ sim.Stream) (int, error) {
			a, ok := ws.(*arena)
			if !ok || a == nil {
				t.Errorf("unit %d: worker state %T, want *arena", i, ws)
				return 0, nil
			}
			seen[i] = a.tag
			return i, nil
		},
		Reduce: func([]int) (*Figure, error) { return &Figure{}, nil },
	}, sc)
	if err != nil {
		t.Fatal(err)
	}
	for i, tag := range seen {
		if tag != "built" {
			t.Fatalf("unit %d did not receive NewWorker state", i)
		}
	}
}
