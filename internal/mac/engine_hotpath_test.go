package mac

import (
	"testing"

	"csmabw/internal/phy"
	"csmabw/internal/sim"
	"csmabw/internal/traffic"
)

// The event-driven core must be an invisible refactor: a scenario fed
// through lazy sources behaves byte-identically to the same scenario
// fed through materialized schedules, and the hot path — pump, contend,
// transmit, deliver — must not allocate per frame.

// hotScenario is a loaded two-station scenario with enough frames to
// make per-frame allocations visible.
func hotScenario(seed int64, lazy bool) Config {
	end := 3 * sim.Second
	cfg := Config{Phy: phy.B11(), Seed: seed, Horizon: end}
	if lazy {
		cfg.Stations = []StationConfig{
			{Name: "a", Source: traffic.MergeSources(
				traffic.NewTrain(200, 2*sim.Millisecond, 1500, 100*sim.Millisecond),
				traffic.NewPoisson(sim.NewRand(seed+1), 1e6, 576, 0, end))},
			{Name: "b", Source: traffic.NewPoisson(sim.NewRand(seed+2), 4e6, 1500, 0, end)},
		}
	} else {
		cfg.Stations = []StationConfig{
			{Name: "a", Arrivals: traffic.Merge(
				traffic.Train(200, 2*sim.Millisecond, 1500, 100*sim.Millisecond),
				traffic.Poisson(sim.NewRand(seed+1), 1e6, 576, 0, end))},
			{Name: "b", Arrivals: traffic.Poisson(sim.NewRand(seed+2), 4e6, 1500, 0, end)},
		}
	}
	return cfg
}

// flatten reduces a result to comparable per-frame values (the Frame
// pointers themselves necessarily differ between runs).
func flatten(res *Result) []sim.Time {
	var out []sim.Time
	for _, frames := range res.Frames {
		for _, f := range frames {
			out = append(out, f.Arrived, f.HOL, f.Departed, sim.Time(f.Retries), sim.Time(f.ID))
		}
	}
	return out
}

func TestSourceMatchesArrivalsByteIdentical(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		eager, err := Run(hotScenario(seed, false))
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := Run(hotScenario(seed, true))
		if err != nil {
			t.Fatal(err)
		}
		fe, fl := flatten(eager), flatten(lazy)
		if len(fe) != len(fl) {
			t.Fatalf("seed %d: %d vs %d frame values", seed, len(fe), len(fl))
		}
		for i := range fe {
			if fe[i] != fl[i] {
				t.Fatalf("seed %d: frame value %d differs: %v vs %v", seed, i, fe[i], fl[i])
			}
		}
		if eager.End != lazy.End {
			t.Fatalf("seed %d: end %v vs %v", seed, eager.End, lazy.End)
		}
		for i := range eager.Stats {
			if eager.Stats[i] != lazy.Stats[i] {
				t.Fatalf("seed %d: stats[%d] differ: %+v vs %+v", seed, i, eager.Stats[i], lazy.Stats[i])
			}
		}
	}
}

func TestStopAfterProbesCutsRunPrefixIntact(t *testing.T) {
	full, err := Run(hotScenario(3, true))
	if err != nil {
		t.Fatal(err)
	}
	if full.ProbesResolved != 200 {
		t.Fatalf("full run resolved %d of its 200 probes", full.ProbesResolved)
	}
	// Stop once 50 of the train's 200 probes are resolved: everything
	// recorded up to that point must match the full run exactly.
	cfg := hotScenario(3, true)
	cfg.StopAfterProbes = 50
	probes := 0
	cfg.OnEvent = func(ev Event) {
		if ev.Probe && (ev.Kind == EvSuccess || ev.Kind == EvDrop) {
			probes++
		}
	}
	part, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if part.ProbesResolved < 50 || part.ProbesResolved != probes {
		t.Fatalf("stopped run resolved %d probes (%d delivered or dropped), want >= 50",
			part.ProbesResolved, probes)
	}
	if part.End >= full.End {
		t.Fatalf("stopped run did not stop early: end %v vs %v", part.End, full.End)
	}
	for s := range part.Frames {
		for i, f := range part.Frames[s] {
			g := full.Frames[s][i]
			if f.Departed != g.Departed || f.HOL != g.HOL || f.Arrived != g.Arrived {
				t.Fatalf("station %d frame %d differs between stopped and full run", s, i)
			}
		}
	}
}

func TestRecordFramesFilter(t *testing.T) {
	all, err := Run(hotScenario(4, true))
	if err != nil {
		t.Fatal(err)
	}
	cfg := hotScenario(4, true)
	cfg.RecordFrames = func(station int) bool { return station == 0 }
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Frames[1]) != 0 {
		t.Fatalf("station 1 recorded %d frames despite filter", len(got.Frames[1]))
	}
	if len(got.Frames[0]) != len(all.Frames[0]) {
		t.Fatalf("station 0 recorded %d frames, want %d", len(got.Frames[0]), len(all.Frames[0]))
	}
	// Timing and stats are unaffected by what is retained.
	if got.End != all.End {
		t.Fatalf("end %v vs %v", got.End, all.End)
	}
	for i := range got.Stats {
		if got.Stats[i] != all.Stats[i] {
			t.Fatalf("stats[%d] differ: %+v vs %+v", i, got.Stats[i], all.Stats[i])
		}
	}
}

// TestOnDepartSkipsUnrecordedStations pins OnDepart to the RecordFrames
// filter: the hook sees exactly the frames the result retains, in
// departure order, and none of the unrecorded station's.
func TestOnDepartSkipsUnrecordedStations(t *testing.T) {
	cfg := hotScenario(4, true)
	cfg.RecordFrames = func(station int) bool { return station == 1 }
	var seen []*Frame
	cfg.OnDepart = func(e *Engine, f *Frame) { seen = append(seen, f) }
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats[0].Delivered == 0 || res.Stats[1].Delivered == 0 {
		t.Fatalf("fixture inert: %+v", res.Stats)
	}
	if len(seen) != len(res.Frames[1]) {
		t.Fatalf("OnDepart saw %d frames, station 1 recorded %d", len(seen), len(res.Frames[1]))
	}
	for i, f := range seen {
		if f != res.Frames[1][i] {
			t.Fatalf("OnDepart frame %d is station %d's #%d, not station 1's recorded frame", i, f.Station, f.ID)
		}
	}
}

func TestSourceOrderViolationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order source accepted")
		}
	}()
	_, err := Run(Config{
		Phy: phy.B11(),
		Stations: []StationConfig{{
			Source: traffic.FromSchedule([]traffic.Arrival{
				{At: sim.Second, Size: 100, Index: -1},
				{At: sim.Millisecond, Size: 100, Index: -1},
			}),
		}},
	})
	_ = err
}

// hotScenarioEDCA is hotScenario with the EDCA knobs engaged: mixed
// access categories (including a TXOP-bursting one) and a
// heterogeneous data rate, so the alloc bound also pins the EDCA hot
// path — AIFS sensing, per-station windows, TXOP bursts and
// per-station airtimes.
func hotScenarioEDCA(seed int64) Config {
	cfg := hotScenario(seed, true)
	cfg.Stations[0].AC = phy.ACVideo
	cfg.Stations[1].AC = phy.ACBestEffort
	cfg.Stations[1].DataRate = 5.5e6
	return cfg
}

// hiddenHotScenario is hotScenario on a hidden pair with every
// imperfect-channel knob engaged — RTS/CTS for the 1500-byte frames,
// capture for the stronger station, and a frame error rate — so the
// alloc bounds also pin the resolver's hidden-station path.
func hiddenHotScenario(seed int64, lazy bool) Config {
	cfg := hotScenario(seed, lazy)
	cfg.RTSThreshold = 1000
	cfg.Stations[0].PowerDB = 6
	cfg.Channel = Channel{Topology: HiddenPair(), CaptureThresholdDB: 3, Loss: phy.ErrorModel{FER: 0.05}}
	return cfg
}

// TestHotPathAllocBound pins the engine's per-frame allocation budget,
// for plain DCF, EDCA and hidden topologies alike. The scan-driven engine allocated at least one Frame per
// arrival plus winner/collision bookkeeping per busy period (thousands
// of allocations in this scenario); the arena-and-scratch core must
// stay under a small fraction of a frame's worth each.
func TestHotPathAllocBound(t *testing.T) {
	cases := []struct {
		name  string
		build func(seed int64) Config
	}{
		{"dcf", func(seed int64) Config { return hotScenario(seed, true) }},
		{"edca", hotScenarioEDCA},
		// Scheduled events must stay off the per-frame path: the whole
		// schedule costs a handful of setup allocations, then one integer
		// comparison per busy period.
		{"events", func(seed int64) Config {
			cfg := scheduledHotScenario(seed)
			cfg.Stations = hotScenario(seed, true).Stations
			return cfg
		}},
		{"hidden", func(seed int64) Config { return hiddenHotScenario(seed, true) }},
		// A mid-run hearing-graph cut hides the stations from each other
		// halfway through a full-mesh run.
		{"topology-events", func(seed int64) Config {
			cfg := hotScenario(seed, true)
			cfg.Schedule = []ScheduledEvent{
				{At: 1500 * sim.Millisecond, SetTopologyEdge: &TopologyEdge{A: 0, B: 1, Hears: false}},
			}
			return cfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var delivered int
			allocs := testing.AllocsPerRun(3, func() {
				res, err := Run(tc.build(7))
				if err != nil {
					t.Fatal(err)
				}
				delivered = 0
				for _, st := range res.Stats {
					delivered += st.Delivered
				}
			})
			if delivered < 1000 {
				t.Fatalf("scenario too small to be meaningful: %d delivered", delivered)
			}
			// Budget: engine setup + arena blocks + slice growth, but
			// nothing per frame. One tenth of an allocation per delivered
			// frame leaves room for result-slice growth while failing any
			// per-frame design.
			if max := float64(delivered) / 10; allocs > max {
				t.Fatalf("%.0f allocations for %d delivered frames (budget %.0f)", allocs, delivered, max)
			}
		})
	}
}

// fig09Contenders are the four Poisson contenders of the Fig. 9 cell:
// 40, 576, 1000 and 1500-byte packets at 0.1, 0.5, 0.75 and 2 Mb/s.
func fig09Contenders(seed int64, end sim.Time) []StationConfig {
	var out []StationConfig
	for i, f := range []struct {
		rate float64
		size int
	}{{0.1e6, 40}, {0.5e6, 576}, {0.75e6, 1000}, {2e6, 1500}} {
		out = append(out, StationConfig{
			Source: traffic.NewPoisson(sim.NewRand(seed*10+int64(i)), f.rate, f.size, 0, end),
		})
	}
	return out
}

// lightScenario is the Fig. 9 cell under a steady 0.5 Mb/s probe flow:
// a lightly loaded five-station mesh whose busy periods are mostly lone
// exchanges, the cell that dominates the paper's transient figures.
func lightScenario(seed int64) Config {
	end := 3 * sim.Second
	cfg := Config{Phy: phy.B11(), Seed: seed, Horizon: end}
	cfg.Stations = append([]StationConfig{{Name: "probe", Source: traffic.Marked(traffic.NewCBR(0.5e6, 1500, 0, end))}},
		fig09Contenders(seed, end)...)
	return cfg
}

// BenchmarkEngineHotPath reports the cost of a loaded run — on a light
// five-station mesh, a loaded full mesh and a hidden pair — in
// nanoseconds per transmission attempt (bench/'s mac.ns_per_attempt)
// and allocations; together with TestHotPathAllocBound it pins the
// zero-alloc hot path (allocs/op stays flat in the frame count).
func BenchmarkEngineHotPath(b *testing.B) {
	cases := []struct {
		name  string
		build func(seed int64) Config
	}{
		{"light", lightScenario},
		{"dcf", func(seed int64) Config { return hotScenario(seed, true) }},
		{"hidden", func(seed int64) Config { return hiddenHotScenario(seed, true) }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			attempts := 0
			for i := 0; i < b.N; i++ {
				res, err := Run(tc.build(int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				for _, st := range res.Stats {
					attempts += st.Attempts
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(attempts), "ns/attempt")
		})
	}
}
