package experiments

import (
	"reflect"
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

// TestTrainsMatchesMeasureTrain pins the shared train driver's
// (point, rep) units: on points of different seeds, contender counts
// and rates, rate 0 included (a back-to-back train, as fig16's pair
// sends), at 1 and 3 workers, each point's replications are exactly
// probe.MeasureTrain's on its cell and rate.
func TestTrainsMatchesMeasureTrain(t *testing.T) {
	points := []point{
		{probe.Link{Contenders: []probe.Flow{{RateBps: 4e6, Size: 1500}}, Seed: 3}, 5e6},
		{probe.Link{Seed: 11}, 0},
		{probe.Link{Contenders: []probe.Flow{{RateBps: 1e6, Size: 576}, {RateBps: 2e6, Size: 1500}}, Seed: 29}, 2e6},
		{probe.Link{Contenders: []probe.Flow{{RateBps: 3e6, Size: 1500}}, Seed: 7}, 0},
	}
	for _, n := range []int{2, 40} {
		for _, workers := range []int{1, 3} {
			sc := Tiny()
			sc.Workers = workers
			got, err := trains(points, n, sc)
			if err != nil {
				t.Fatal(err)
			}
			for i, pt := range points {
				want, err := probe.MeasureTrain(pt.cell, n, pt.rateBps, sc.Reps)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got[i], *want) {
					t.Errorf("n %d, workers %d, point %d: replications differ from probe.MeasureTrain's", n, workers, i)
				}
			}
		}
	}
}

// TestSteadyMatchesMeasureSteadyState pins the shared steady-state
// driver the same way: at 1 and 3 workers, each point's measurement is
// exactly probe.MeasureSteadyState's on its cell and rate.
func TestSteadyMatchesMeasureSteadyState(t *testing.T) {
	points := []point{
		{probe.Link{Contenders: []probe.Flow{{RateBps: 4e6, Size: 1500}}, Seed: 3}, 5e6},
		{probe.Link{FIFOCross: []probe.Flow{{RateBps: 1e6, Size: 1500}}, Seed: 11}, 1e6},
		{probe.Link{Contenders: []probe.Flow{{RateBps: 1e6, Size: 576}, {RateBps: 2e6, Size: 1500}}, Seed: 29}, 8e6},
	}
	for _, workers := range []int{1, 3} {
		sc := Tiny()
		sc.Workers = workers
		got, err := steady(points, sc)
		if err != nil {
			t.Fatal(err)
		}
		for i, pt := range points {
			want, err := probe.MeasureSteadyState(pt.cell, pt.rateBps, sim.FromSeconds(sc.SteadySeconds))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("workers %d, point %d: %+v, want probe.MeasureSteadyState's %+v", workers, i, got[i], want)
			}
		}
	}
}

// TestInvalidScaleErrors ensures an invalid Scale reaches the drivers
// as an error, not a panic, even though sweeps are built before
// mapUnits checks the Scale.
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
