package mac

import (
	"fmt"
	"testing"

	"csmabw/internal/phy"
	"csmabw/internal/sim"
	"csmabw/internal/traffic"
)

// twoStationConfig builds two Poisson stations at rateBps each over a
// 2-second horizon, with the given channel and RTS threshold.
func twoStationConfig(rateBps float64, ch Channel, rts int) Config {
	end := sim.FromSeconds(2)
	r := sim.NewRand(42)
	cfg := Config{
		Phy:          phy.B11(),
		Seed:         7,
		Horizon:      end,
		RTSThreshold: rts,
		Channel:      ch,
	}
	for i := 0; i < 2; i++ {
		cfg.Stations = append(cfg.Stations, StationConfig{
			Arrivals: traffic.Poisson(r.Split(uint64(i)), rateBps, 1500, 0, end),
		})
	}
	return cfg
}

func aggregate(res *Result, n int, end sim.Time) float64 {
	var sum float64
	for i := 0; i < n; i++ {
		sum += res.Throughput(i, 0, end)
	}
	return sum
}

// TestExplicitFullMeshMatchesNilTopology: a Topology that happens to be
// a full mesh must produce the exact run — same RNG draw sequence, same
// event stream — as the nil (default) topology. The resolver reaches
// the two by different routes: a nil topology settles every countdown
// that does not expire in its station scan, while an explicit mesh
// sends those countdowns through the candidate list. The table is every
// randomConfig draw without a topology or topology-edge events.
func TestExplicitFullMeshMatchesNilTopology(t *testing.T) {
	trials := 1000
	if testing.Short() {
		trials = 100
	}
	r := sim.NewRand(0x3e54)
	horizon := sim.FromSeconds(0.1)
	for trial := 0; trial < trials; {
		cfg := randomConfig(r, horizon)
		if cfg.Channel.Topology != nil || hasTopologyEvents(cfg.Schedule) {
			continue
		}
		trial++
		var nilEvents, meshEvents []Event
		cfg.OnEvent = func(ev Event) { nilEvents = append(nilEvents, ev) }
		base := runOne(t, cfg)
		cfg.Channel.Topology = FullMesh(len(cfg.Stations))
		cfg.OnEvent = func(ev Event) { meshEvents = append(meshEvents, ev) }
		mesh := runOne(t, cfg)
		ctx := fmt.Sprintf("config %d", trial)
		compareResults(t, ctx, base, mesh)
		if len(nilEvents) != len(meshEvents) {
			t.Fatalf("%s: %d vs %d events", ctx, len(nilEvents), len(meshEvents))
		}
		for i := range nilEvents {
			if nilEvents[i] != meshEvents[i] {
				t.Fatalf("%s event %d: %+v vs %+v", ctx, i, nilEvents[i], meshEvents[i])
			}
		}
	}
}

func TestHiddenTerminalsCollapseThroughput(t *testing.T) {
	end := sim.FromSeconds(2)
	mesh := aggregate(runOne(t, twoStationConfig(3e6, Channel{}, 0)), 2, end)
	hidden := aggregate(runOne(t, twoStationConfig(3e6, Channel{Topology: NewTopology(2)}, 0)), 2, end)
	if hidden >= 0.9*mesh {
		t.Errorf("hidden pair carried %.3g of the mesh's %.3g bit/s; want a clear collapse", hidden, mesh)
	}
	res := runOne(t, twoStationConfig(3e6, Channel{Topology: NewTopology(2)}, 0))
	if res.Stats[0].Collisions == 0 || res.Stats[1].Collisions == 0 {
		t.Errorf("hidden stations should collide at the receiver: %+v %+v", res.Stats[0], res.Stats[1])
	}
}

func TestRTSCTSRecoversHiddenThroughput(t *testing.T) {
	end := sim.FromSeconds(2)
	hidden := aggregate(runOne(t, twoStationConfig(3e6, Channel{Topology: NewTopology(2)}, 0)), 2, end)
	withRTS := aggregate(runOne(t, twoStationConfig(3e6, Channel{Topology: NewTopology(2)}, 1)), 2, end)
	if withRTS <= hidden {
		t.Errorf("RTS/CTS should recover hidden-terminal throughput: %.3g <= %.3g", withRTS, hidden)
	}
}

func TestRTSCTSShortensHiddenCollisions(t *testing.T) {
	// With RTS/CTS the vulnerable window is the handshake, not the data
	// frame, so hidden stations collide less per attempt.
	noRTS := runOne(t, twoStationConfig(3e6, Channel{Topology: NewTopology(2)}, 0))
	withRTS := runOne(t, twoStationConfig(3e6, Channel{Topology: NewTopology(2)}, 1))
	rate := func(r *Result) float64 {
		att := r.Stats[0].Attempts + r.Stats[1].Attempts
		col := r.Stats[0].Collisions + r.Stats[1].Collisions
		if att == 0 {
			return 0
		}
		return float64(col) / float64(att)
	}
	if rate(withRTS) >= rate(noRTS) {
		t.Errorf("RTS collision rate %.3f should be below no-RTS %.3f", rate(withRTS), rate(noRTS))
	}
}

func TestFrameLossCostsThroughputAndCountsErrors(t *testing.T) {
	end := sim.FromSeconds(2)
	clean := runOne(t, twoStationConfig(3e6, Channel{}, 0))
	lossy := runOne(t, twoStationConfig(3e6, Channel{Loss: phy.ErrorModel{FER: 0.05}}, 0))
	if got, want := aggregate(lossy, 2, end), aggregate(clean, 2, end); got >= want {
		t.Errorf("5%% FER carried %.3g >= clean %.3g bit/s", got, want)
	}
	if lossy.Stats[0].ChannelErrors+lossy.Stats[1].ChannelErrors == 0 {
		t.Error("no channel errors recorded under 5% FER")
	}
	if clean.Stats[0].ChannelErrors+clean.Stats[1].ChannelErrors != 0 {
		t.Error("channel errors recorded on a perfect channel")
	}
}

func TestBERScalesWithFrameLength(t *testing.T) {
	m := phy.ErrorModel{BER: 1e-5}
	if short, long := m.FrameErrorProb(40), m.FrameErrorProb(1500); short >= long {
		t.Errorf("BER error prob should grow with frame length: P(40B)=%.4g >= P(1500B)=%.4g", short, long)
	}
}

func TestPerStationLossOverride(t *testing.T) {
	// Station 0 gets a clean uplink, station 1 a very lossy one.
	cfg := twoStationConfig(2e6, Channel{Loss: phy.ErrorModel{FER: 0.3}}, 0)
	clean := phy.ErrorModel{}
	cfg.Stations[0].Loss = &clean
	res := runOne(t, cfg)
	if res.Stats[0].ChannelErrors != 0 {
		t.Errorf("station 0 has a clean override but %d channel errors", res.Stats[0].ChannelErrors)
	}
	if res.Stats[1].ChannelErrors == 0 {
		t.Error("station 1 should suffer channel errors at 30% FER")
	}
}

func TestCaptureDeliversStrongestFrame(t *testing.T) {
	// Hidden stations with a 10 dB power gap and a 6 dB threshold: the
	// strong station's overlapping frames are captured, the weak one's
	// are not.
	cfg := twoStationConfig(4e6, Channel{Topology: NewTopology(2), CaptureThresholdDB: 6}, 0)
	cfg.Stations[0].PowerDB = 10
	res := runOne(t, cfg)
	if res.Stats[0].Captured == 0 {
		t.Errorf("strong station captured no frames: %+v", res.Stats[0])
	}
	if res.Stats[1].Captured != 0 {
		t.Errorf("weak station captured %d frames", res.Stats[1].Captured)
	}

	// Equal powers: margin is zero, no capture either way.
	eq := runOne(t, twoStationConfig(4e6, Channel{Topology: NewTopology(2), CaptureThresholdDB: 6}, 0))
	if eq.Stats[0].Captured+eq.Stats[1].Captured != 0 {
		t.Error("equal-power stations should not capture")
	}
}

// TestCaptureBystanderDefersEIFS pins the capture-bystander rule on a
// full mesh: a station that overhears a same-slot collision defers EIFS
// afterwards even when the receiver captured one of the colliding
// frames, because the losers' frames were undecodable on the air. The
// frames are probes, and the run stops once one is resolved: after the
// first busy period, the clean captured collision.
func TestCaptureBystanderDefersEIFS(t *testing.T) {
	frame := func(at sim.Time) []traffic.Arrival {
		return []traffic.Arrival{{At: at, Size: 1500, Probe: true}}
	}
	cfg := Config{
		Phy:     phy.B11(),
		Seed:    3,
		Channel: Channel{CaptureThresholdDB: 6},
		Stations: []StationConfig{
			{PowerDB: 10, Arrivals: frame(sim.Millisecond)}, // captured
			{Arrivals: frame(sim.Millisecond)},              // loses in the same slot
			{Arrivals: frame(1500 * sim.Microsecond)},       // bystander, queued mid-air
		},
		StopAfterProbes: 1,
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if res.Stats[0].Captured != 1 || res.Stats[1].Collisions != 1 || res.Stats[0].ChannelErrors != 0 {
		t.Fatalf("first busy period is not a clean captured collision: %+v", res.Stats)
	}
	by := e.stations[2]
	if !by.eifs {
		t.Fatal("bystander cleared EIFS after overhearing a captured collision")
	}
	if got, want := e.senseStart(by), res.End+by.eifsT; got != want {
		t.Errorf("bystander senses from %v, want the busy end plus EIFS %v", got, want)
	}
}

func TestCaptureImprovesAggregate(t *testing.T) {
	end := sim.FromSeconds(2)
	noCap := twoStationConfig(4e6, Channel{Topology: NewTopology(2)}, 0)
	withCap := twoStationConfig(4e6, Channel{Topology: NewTopology(2), CaptureThresholdDB: 6}, 0)
	withCap.Stations[0].PowerDB = 10
	a, b := aggregate(runOne(t, noCap), 2, end), aggregate(runOne(t, withCap), 2, end)
	if b <= a {
		t.Errorf("capture should salvage overlapped airtime: %.3g <= %.3g", b, a)
	}
}

func TestChainTopologyMiddleStationSuffers(t *testing.T) {
	// Chain 0-1-2: the outer stations are hidden from each other and
	// both interfere at the receiver with the middle station's frames.
	end := sim.FromSeconds(2)
	r := sim.NewRand(9)
	cfg := Config{Phy: phy.B11(), Seed: 11, Horizon: end, Channel: Channel{Topology: Chain(3)}}
	for i := 0; i < 3; i++ {
		cfg.Stations = append(cfg.Stations, StationConfig{
			Arrivals: traffic.Poisson(r.Split(uint64(i)), 2.5e6, 1500, 0, end),
		})
	}
	res := runOne(t, cfg)
	for i := 0; i < 3; i++ {
		if res.Stats[i].Delivered == 0 {
			t.Fatalf("station %d delivered nothing: %+v", i, res.Stats[i])
		}
	}
	if res.Stats[0].Collisions+res.Stats[1].Collisions+res.Stats[2].Collisions == 0 {
		t.Error("chain with hidden outer stations should see collisions")
	}
}

func TestImperfectChannelDeterminism(t *testing.T) {
	// The resolver and the loss model draw from engine-owned
	// generators only: identical configs and seeds reproduce identical
	// runs, frame for frame.
	for _, ch := range []Channel{
		{Topology: NewTopology(2), Loss: phy.ErrorModel{FER: 0.05}},
		{Topology: Chain(2), Loss: phy.ErrorModel{BER: 1e-5}, CaptureThresholdDB: 3},
	} {
		a := runOne(t, twoStationConfig(3e6, ch, 512))
		b := runOne(t, twoStationConfig(3e6, ch, 512))
		if a.End != b.End {
			t.Fatalf("End differs: %v vs %v", a.End, b.End)
		}
		for i := range a.Frames {
			if a.Stats[i] != b.Stats[i] {
				t.Fatalf("stats differ for station %d: %+v vs %+v", i, a.Stats[i], b.Stats[i])
			}
			for j := range a.Frames[i] {
				if *a.Frames[i][j] != *b.Frames[i][j] {
					t.Fatalf("frame %d/%d differs", i, j)
				}
			}
		}
	}
}

func TestEIFSAfterChannelError(t *testing.T) {
	// A bystander that fails to decode a corrupted frame defers EIFS:
	// observable as channel errors plus continued delivery (no deadlock).
	cfg := twoStationConfig(3e6, Channel{Loss: phy.ErrorModel{FER: 0.2}}, 0)
	res := runOne(t, cfg)
	if res.Stats[0].ChannelErrors+res.Stats[1].ChannelErrors == 0 {
		t.Fatal("expected channel errors at 20% FER")
	}
	if res.Stats[0].Delivered == 0 || res.Stats[1].Delivered == 0 {
		t.Errorf("stations starved after channel errors: %+v %+v", res.Stats[0], res.Stats[1])
	}
}

func TestChannelValidation(t *testing.T) {
	arr := []traffic.Arrival{{At: 0, Size: 100, Index: -1}}
	stations := []StationConfig{{Arrivals: arr}, {Arrivals: arr}}
	cases := []Config{
		{Phy: phy.B11(), Stations: stations, Channel: Channel{Loss: phy.ErrorModel{FER: 1}}},
		{Phy: phy.B11(), Stations: stations, Channel: Channel{Loss: phy.ErrorModel{BER: -0.1}}},
		{Phy: phy.B11(), Stations: stations, Channel: Channel{CaptureThresholdDB: -1}},
		{Phy: phy.B11(), Stations: stations, Channel: Channel{Topology: NewTopology(3)}},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid channel accepted", i)
		}
	}
	bad := phy.ErrorModel{FER: 2}
	cfg := Config{Phy: phy.B11(), Stations: []StationConfig{{Arrivals: arr, Loss: &bad}}}
	if _, err := New(cfg); err == nil {
		t.Error("invalid per-station loss accepted")
	}
}

func TestTopologyHelpers(t *testing.T) {
	if !FullMesh(4).IsFullMesh() {
		t.Error("FullMesh not a full mesh")
	}
	if NewTopology(2).IsFullMesh() {
		t.Error("disconnected pair reported as full mesh")
	}
	c := Chain(3)
	if !c.Hears(0, 1) || !c.Hears(1, 2) || c.Hears(0, 2) {
		t.Error("chain adjacency wrong")
	}
	if !c.Hears(1, 1) {
		t.Error("stations must hear themselves")
	}
	cl := c.Clone()
	cl.Connect(0, 2)
	if c.Hears(0, 2) {
		t.Error("Clone shares state with the original")
	}
	if HiddenPair().Hears(0, 1) {
		t.Error("hidden pair hears each other")
	}
}
