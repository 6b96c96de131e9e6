package mac

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csmabw/internal/phy"
	"csmabw/internal/sim"
	"csmabw/internal/traffic"
)

// update re-records testdata/engine-events.golden:
//
//	go test ./internal/mac -run TestEngineEventDigests -update
var update = flag.Bool("update", false, "rewrite testdata/engine-events.golden")

// eventCells are the engine configurations whose complete event streams
// TestEngineEventDigests pins. Between them they cover every branch of
// the busy-period resolver: light and saturated meshes, the ablation's
// idle-arrival draws, hidden stations with RTS/CTS and capture, a
// chain, channel errors, TXOP bursts, mixed data rates, scheduled
// events and a horizon that cuts a busy period.
var eventCells = []struct {
	name  string
	build func(seed int64) Config
}{
	{"fig09-light", fig09LightCell},
	{"saturated-mesh", func(seed int64) Config { return saturated(6, 300*sim.Millisecond, seed) }},
	{"no-immediate-access", func(seed int64) Config {
		cfg := fig09LightCell(seed)
		cfg.DisableImmediateAccess = true
		return cfg
	}},
	{"hidden-rts-capture", func(seed int64) Config {
		cfg := hotScenario(seed, true)
		cfg.Horizon = sim.Second
		cfg.RTSThreshold = 1000
		cfg.Stations[0].PowerDB = 6
		cfg.Channel = Channel{Topology: HiddenPair(), CaptureThresholdDB: 3}
		return cfg
	}},
	{"chain", func(seed int64) Config {
		end := sim.Second
		cfg := Config{Phy: phy.B11(), Seed: seed, Horizon: end, Channel: Channel{Topology: Chain(3)}}
		for i := 0; i < 3; i++ {
			cfg.Stations = append(cfg.Stations, StationConfig{
				Source: traffic.NewPoisson(sim.NewRand(seed*10+int64(i)), 2.5e6, 1500, 0, end),
			})
		}
		return cfg
	}},
	{"loss-ber", func(seed int64) Config {
		cfg := hotScenario(seed, true)
		cfg.Horizon = sim.Second
		cfg.Channel.Loss = phy.ErrorModel{BER: 2e-5}
		cfg.Stations[0].Loss = &phy.ErrorModel{FER: 0.1}
		return cfg
	}},
	{"edca-txop", func(seed int64) Config {
		cfg := hotScenarioEDCA(seed)
		cfg.Horizon = sim.Second
		return cfg
	}},
	{"rate-anomaly", func(seed int64) Config {
		cfg := saturated(3, 300*sim.Millisecond, seed)
		cfg.Stations[2].DataRate = 1e6
		return cfg
	}},
	{"schedule", func(seed int64) Config {
		cfg := scheduledHotScenario(seed)
		cfg.Schedule = append(cfg.Schedule,
			ScheduledEvent{At: 2500 * sim.Millisecond, SetTopologyEdge: &TopologyEdge{A: 0, B: 1, Hears: false}})
		return cfg
	}},
	{"horizon-cut", func(seed int64) Config {
		return saturated(3, 100*sim.Millisecond+7*sim.Microsecond, seed)
	}},
}

// fig09LightCell is the light-load cell of Fig. 9: a 0.5 Mb/s probing
// train against its four Poisson contenders.
func fig09LightCell(seed int64) Config {
	end := 1500 * sim.Millisecond
	cfg := Config{Phy: phy.B11(), Seed: seed, Horizon: end}
	cfg.Stations = append([]StationConfig{{Name: "probe", Source: traffic.NewTrain(50, 24*sim.Millisecond, 1500, 200*sim.Millisecond)}},
		fig09Contenders(seed, end)...)
	return cfg
}

// eventDigest hashes a run's whole observable output: every event in
// emission order, then every recorded frame, the per-station stats and
// the end instant.
type eventDigest struct {
	h      hash.Hash
	buf    []byte
	events int
}

func newEventDigest() *eventDigest { return &eventDigest{h: sha256.New()} }

func (d *eventDigest) put(vs ...int64) {
	d.buf = d.buf[:0]
	for _, v := range vs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(v))
	}
	d.h.Write(d.buf)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (d *eventDigest) event(ev Event) {
	d.events++
	d.put(int64(ev.At), int64(ev.Kind), int64(ev.Station), int64(ev.Size), b2i(ev.Probe),
		int64(ev.Index), int64(ev.Retries), int64(ev.AC))
}

func (d *eventDigest) result(res *Result) string {
	for _, frames := range res.Frames {
		d.put(int64(len(frames)))
		for _, f := range frames {
			d.put(f.ID, int64(f.Station), int64(f.Size), b2i(f.Probe), int64(f.Index),
				int64(f.Arrived), int64(f.HOL), int64(f.Departed), int64(f.Retries))
		}
	}
	for _, st := range res.Stats {
		d.put(int64(st.Delivered), int64(st.Dropped), st.PayloadBits, int64(st.Collisions),
			int64(st.Attempts), int64(st.ChannelErrors), int64(st.Captured))
	}
	d.put(int64(res.End))
	return fmt.Sprintf("%x", d.h.Sum(nil))[:16]
}

// TestEngineEventDigests pins the engine's complete output — the event
// stream, the recorded frames, the stats and the end instant — on every
// eventCells configuration at five seeds, against digests recorded in
// testdata/engine-events.golden. A change that must leave behaviour
// alone leaves every line unchanged. The same sequence of runs is then
// repeated on one engine Reset across the cells' different shapes, which
// must reproduce every line.
func TestEngineEventDigests(t *testing.T) {
	line := func(name string, seed int64, d *eventDigest, res *Result) string {
		return fmt.Sprintf("%s seed=%d events=%d digest=%s", name, seed, d.events, d.result(res))
	}
	var fresh []string
	for _, c := range eventCells {
		for seed := int64(1); seed <= 5; seed++ {
			cfg := c.build(seed)
			d := newEventDigest()
			cfg.OnEvent = d.event
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			fresh = append(fresh, line(c.name, seed, d, res))
		}
	}

	var e *Engine
	i := 0
	for _, c := range eventCells {
		for seed := int64(1); seed <= 5; seed++ {
			cfg := c.build(seed)
			d := newEventDigest()
			cfg.OnEvent = d.event
			var err error
			if e == nil {
				e, err = New(cfg)
			} else {
				err = e.Reset(cfg)
			}
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			if got := line(c.name, seed, d, e.Run()); got != fresh[i] {
				t.Errorf("reused engine: %s\n fresh engine: %s", got, fresh[i])
			}
			i++
		}
	}

	path := filepath.Join("testdata", "engine-events.golden")
	got := strings.Join(fresh, "\n") + "\n"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(fresh) {
		t.Fatalf("%d runs, golden has %d lines", len(fresh), len(wantLines))
	}
	for i := range fresh {
		if fresh[i] != wantLines[i] {
			t.Errorf("got  %s\nwant %s", fresh[i], wantLines[i])
		}
	}
}
