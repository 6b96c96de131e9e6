package mac

import (
	"reflect"
	"testing"

	"csmabw/internal/sim"
	"csmabw/internal/traffic"
)

// Engine.Reset promises that a reused engine is indistinguishable from
// a fresh one: same results to the byte (RNG draw order included), and
// near-zero allocations per reused run. These tests pin both halves.

// compareResults fails the test unless a and b are deep-equal: same end
// time, same per-station stats, same frame values in the same order.
func compareResults(t *testing.T, ctx string, a, b *Result) {
	t.Helper()
	if a.End != b.End {
		t.Fatalf("%s: End %v vs %v", ctx, a.End, b.End)
	}
	if len(a.Stats) != len(b.Stats) {
		t.Fatalf("%s: %d vs %d stations", ctx, len(a.Stats), len(b.Stats))
	}
	for s := range a.Stats {
		if a.Stats[s] != b.Stats[s] {
			t.Fatalf("%s station %d: stats %+v vs %+v", ctx, s, a.Stats[s], b.Stats[s])
		}
		if len(a.Frames[s]) != len(b.Frames[s]) {
			t.Fatalf("%s station %d: %d vs %d frames", ctx, s, len(a.Frames[s]), len(b.Frames[s]))
		}
		for j := range a.Frames[s] {
			if *a.Frames[s][j] != *b.Frames[s][j] {
				t.Fatalf("%s station %d frame %d: %+v vs %+v", ctx, s, j, *a.Frames[s][j], *b.Frames[s][j])
			}
		}
	}
}

// TestResetEquivalence is the reuse-equivalence property test: an
// engine that already ran one randomized scenario and is Reset to a
// second, unrelated randomized scenario must reproduce the second
// scenario's fresh-engine result exactly. The first scenario varies per
// trial, so the reused state (arena fill, station count, queue
// capacities, scratch sizes) differs from the target shape in every way
// the generator can produce. One long-lived engine is also Reset to
// every trial's second scenario in turn, so it shrinks and grows across
// station counts while holding the state of every earlier shape.
func TestResetEquivalence(t *testing.T) {
	const trials = 30
	r := sim.NewRand(0x5e7)
	horizon := sim.FromSeconds(0.15)
	var long *Engine
	for trial := 0; trial < trials; trial++ {
		cfgA := randomConfig(r, horizon)
		cfgB := randomConfig(r, horizon)
		fresh, err := Run(cfgB)
		if err != nil {
			t.Fatalf("trial %d: fresh run: %v", trial, err)
		}
		e, err := New(cfgA)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		e.Run()
		if err := e.Reset(cfgB); err != nil {
			t.Fatalf("trial %d: reset: %v", trial, err)
		}
		compareResults(t, "reused", fresh, e.Run())
		if long == nil {
			long, err = New(cfgB)
		} else {
			err = long.Reset(cfgB)
		}
		if err != nil {
			t.Fatalf("trial %d: long-lived engine: %v", trial, err)
		}
		compareResults(t, "long-lived", fresh, long.Run())
	}
}

// TestResetSameConfigRepeats pins the simplest reuse contract — the one
// the batched replication path exercises thousands of times: Reset to
// the same config, run again, get the identical result, indefinitely.
func TestResetSameConfigRepeats(t *testing.T) {
	cfg := hotScenario(11, false)
	fresh, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		if round > 0 {
			if err := e.Reset(cfg); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		compareResults(t, "round", fresh, e.Run())
	}
}

// TestResetInvalidConfig asserts a Reset to a broken config surfaces
// the validation error (the engine is documented unusable afterwards).
func TestResetInvalidConfig(t *testing.T) {
	cfg := hotScenario(5, false)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if err := e.Reset(Config{Phy: cfg.Phy}); err == nil {
		t.Fatal("Reset accepted a config with no stations")
	}
}

// resizedHotScenario is hotScenario cut to its first station or
// extended with extra Poisson stations, so one engine can be cycled
// between cells of different sizes.
func resizedHotScenario(seed int64, stations int) Config {
	cfg := hotScenario(seed, false)
	for i := len(cfg.Stations); i < stations; i++ {
		cfg.Stations = append(cfg.Stations, StationConfig{
			Arrivals: traffic.Poisson(sim.NewRand(seed+int64(i)+1), 2e6, 1000, 0, cfg.Horizon),
		})
	}
	cfg.Stations = cfg.Stations[:stations]
	return cfg
}

// TestResetRunAllocBound pins the point of engine reuse: once warmed,
// a Reset+Run replication must not allocate per frame — the arena,
// heap, queues, result buffers and scratch all come from the previous
// run. The budget is a small constant (source wrappers and closure
// boxing), orders of magnitude below the thousands of frames delivered.
// The hidden variant holds the resolver's hidden-station path (the
// candidate list and joiners) to the same budget: its candidates and
// entries come from engine scratch too. Each row is a cycle of configs
// one engine runs in turn; the resized row alternates a 1-station and a
// 3-station cell, so the budget holds across a change of station count.
func TestResetRunAllocBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfgs []Config
	}{
		{"dcf", []Config{hotScenario(7, false)}},
		{"hidden", []Config{hiddenHotScenario(7, false)}},
		{"resized", []Config{resizedHotScenario(7, 1), resizedHotScenario(7, 3)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(tc.cfgs[0])
			if err != nil {
				t.Fatal(err)
			}
			// Warm: one pass over the cycle grows the arena, queues,
			// result slices and scratch to every shape in it.
			delivered := 0
			for i, cfg := range tc.cfgs {
				if i > 0 {
					if err := e.Reset(cfg); err != nil {
						t.Fatal(err)
					}
				}
				for _, st := range e.Run().Stats {
					delivered += st.Delivered
				}
			}
			if delivered < 1000 {
				t.Fatalf("scenario too small to be meaningful: %d delivered", delivered)
			}
			allocs := testing.AllocsPerRun(5, func() {
				for _, cfg := range tc.cfgs {
					if err := e.Reset(cfg); err != nil {
						t.Fatal(err)
					}
					e.Run()
				}
			}) / float64(len(tc.cfgs))
			if allocs > 16 {
				t.Fatalf("%.1f allocations per reused replication (%d frames per cycle), want <= 16", allocs, delivered)
			}
		})
	}
}

// TestResetIgnoresStaleFrames: Reset rewinds the frame arena without
// clearing it, so each frame a run takes still holds an earlier run's
// values. With every arena frame poisoned between runs, a reused
// engine must still reproduce a fresh one frame for frame: the engine
// writes every field of a frame before reading or delivering it.
func TestResetIgnoresStaleFrames(t *testing.T) {
	for _, cfg := range []Config{hotScenario(5, false), scheduledHotScenario(6)} {
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Run()
		for _, slab := range e.arena.slabs {
			for i := range slab {
				slab[i] = Frame{ID: -1, Station: -1, Size: -1, Probe: true, Index: -1,
					Arrived: -1, HOL: -1, Departed: -1, Retries: -1}
			}
		}
		if err := e.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		compareResults(t, "poisoned arena", fresh, e.Run())
	}
}

// scheduledHotScenario is hotScenario carrying a station-parameter
// event schedule — channel-wide FER, one station's rate, a power bump —
// that keeps the run on a nil (full-mesh) topology, whose hot path the
// alloc bounds pin. (Topology-edge events give the engine a hearing
// graph of its own; TestResetScheduledEquivalence adds one, and the
// topology-events case of TestHotPathAllocBound bounds its
// allocations.)
func scheduledHotScenario(seed int64) Config {
	cfg := hotScenario(seed, false)
	fer, rate, pow := 0.15, 5.5e6, 6.0
	cfg.Schedule = []ScheduledEvent{
		{At: 500 * sim.Millisecond, Target: -1, SetFER: &fer},
		{At: sim.Second, Target: 1, SetDataRate: &rate},
		{At: 2 * sim.Second, Target: 0, SetPowerDB: &pow},
	}
	return cfg
}

// TestResetScheduledEquivalence extends the reuse contract to event
// schedules: Reset must rewind the event cursor and restore the
// pre-event parameters (error model, rates, topology clone), so a
// reused engine replays the schedule byte-identically to a fresh one.
// The schedule includes a hearing-graph cut, so the recycled topology
// clone is exercised too, and checked against a fresh engine's.
func TestResetScheduledEquivalence(t *testing.T) {
	cfg := scheduledHotScenario(23)
	cfg.Schedule = append(cfg.Schedule,
		ScheduledEvent{At: 2500 * sim.Millisecond, SetTopologyEdge: &TopologyEdge{A: 0, B: 1, Hears: false}})
	fresh, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Stats[0].ChannelErrors+fresh.Stats[1].ChannelErrors == 0 {
		t.Fatal("schedule fixture inert: no channel errors despite FER event")
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The edge event runs a nil-topology config on an owned full-mesh
	// clone; after New and after every same-size Reset it must equal a
	// fresh FullMesh, self-hearing diagonal included.
	mesh := FullMesh(len(cfg.Stations))
	for round := 0; round < 3; round++ {
		if round > 0 {
			if err := e.Reset(cfg); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if !reflect.DeepEqual(e.topoOwned, mesh) {
			t.Fatalf("round %d: owned topology %v, want FullMesh %v", round, e.topoOwned.hear, mesh.hear)
		}
		compareResults(t, "scheduled round", fresh, e.Run())
	}
	// And a reset back to a schedule-free config sheds the events.
	plain := hotScenario(23, false)
	want, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reset(plain); err != nil {
		t.Fatal(err)
	}
	compareResults(t, "schedule shed", want, e.Run())
}

// TestResetScheduledAllocBound extends the ≤16-allocation reset budget
// to scheduled-event configs: the schedule slice and the topology clone
// must be recycled across Resets, not reallocated per replication.
func TestResetScheduledAllocBound(t *testing.T) {
	cfg := scheduledHotScenario(7)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run() // warm
	delivered := 0
	for _, st := range res.Stats {
		delivered += st.Delivered
	}
	if delivered < 1000 {
		t.Fatalf("scenario too small to be meaningful: %d delivered", delivered)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := e.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		e.Run()
	})
	if allocs > 16 {
		t.Fatalf("%.0f allocations per scheduled reused replication of %d frames, want <= 16", allocs, delivered)
	}
}
