package scenario

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"csmabw/internal/mac"
	"csmabw/internal/phy"
	"csmabw/internal/sim"
	"csmabw/internal/traffic"
)

// minimal is a smallest-possible valid spec body.
const minimal = `{
	"name": "t",
	"probing": {"plan": "train", "packets": 100, "rate_mbps": 5}
}`

func mustCompile(t *testing.T, src string) *Compiled {
	t.Helper()
	c, err := Compile([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// wantErr compiles src and demands an error mentioning frag — usually
// the positional path.
func wantErr(t *testing.T, src, frag string) {
	t.Helper()
	_, err := Compile([]byte(src))
	if err == nil {
		t.Fatalf("spec accepted, want error mentioning %q", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("error %q does not mention %q", err, frag)
	}
}

func TestMinimalSpec(t *testing.T) {
	c := mustCompile(t, minimal)
	if c.Name != "t" || c.Probing.Plan != PlanTrain || c.Probing.TrainLen != 100 {
		t.Fatalf("compiled %+v", c)
	}
	if c.Probing.RateBps != 5e6 {
		t.Fatalf("rate %g", c.Probing.RateBps)
	}
	if len(c.StationNames) != 1 || c.StationNames[0] != "probe" {
		t.Fatalf("station names %v", c.StationNames)
	}
}

func TestFullSpec(t *testing.T) {
	c := mustCompile(t, `{
		"name": "full",
		"description": "every knob",
		"phy": "g54",
		"seed": 42,
		"rts_threshold_bytes": 512,
		"probe": {"size_bytes": 1000, "ac": "vi", "data_rate_mbps": 24,
		          "power_db": 3, "warmup_seconds": 1},
		"fifo_cross": [{"rate_mbps": 1, "size_bytes": 576}],
		"stations": [
			{"name": "bulk", "traffic": {"rate_mbps": 4, "size_bytes": 1500},
			 "ac": "be", "data_rate_mbps": 12, "power_db": -2},
			{"traffic": {"kind": "onoff", "rate_mbps": 0.5, "size_bytes": 200,
			             "on_seconds": 0.1, "off_seconds": 0.4}, "ac": "bk"}
		],
		"channel": {"fer": 0.01, "ber": 1e-6, "capture_db": 6},
		"probing": {"plan": "steady", "rate_mbps": 8, "duration_seconds": 2},
		"notes": ["0-1s warm-up", "1-3s measured"]
	}`)
	l := c.Link
	if l.Phy.Name != phy.G54().Name || l.Seed != 42 || l.RTSThreshold != 512 {
		t.Fatalf("link top level %+v", l)
	}
	if l.ProbeSize != 1000 || l.ProbeAC != phy.ACVideo || l.ProbeDataRateBps != 24e6 ||
		l.ProbePowerDB != 3 || l.WarmUp != sim.Second {
		t.Fatalf("probe knobs %+v", l)
	}
	if len(l.FIFOCross) != 1 || l.FIFOCross[0].RateBps != 1e6 || l.FIFOCross[0].Size != 576 {
		t.Fatalf("fifo %+v", l.FIFOCross)
	}
	if len(l.Contenders) != 2 {
		t.Fatalf("contenders %+v", l.Contenders)
	}
	if f := l.Contenders[0]; f.AC != phy.ACBestEffort || f.DataRateBps != 12e6 || f.PowerDB != -2 {
		t.Fatalf("contender 0 %+v", f)
	}
	if f := l.Contenders[1]; f.OnMean != 100*sim.Millisecond || f.OffMean != 400*sim.Millisecond {
		t.Fatalf("contender 1 on/off %+v", f)
	}
	if l.Loss.FER != 0.01 || l.Loss.BER != 1e-6 || l.CaptureDB != 6 {
		t.Fatalf("channel %+v", l)
	}
	if got := c.StationNames; got[1] != "bulk" || got[2] != "contender-1" {
		t.Fatalf("names %v", got)
	}
	if c.Probing.Plan != PlanSteady || c.Probing.RateBps != 8e6 || c.Probing.DurationSeconds != 2 {
		t.Fatalf("probing %+v", c.Probing)
	}
	if len(c.Notes) != 2 {
		t.Fatalf("notes %v", c.Notes)
	}
}

func TestGapSpacing(t *testing.T) {
	// 12 ms between 1500-byte packets = 1 Mb/s.
	c := mustCompile(t, `{
		"name": "g",
		"probing": {"plan": "train", "packets": 10, "gap_ms": 12}
	}`)
	if c.Probing.RateBps != 1e6 {
		t.Fatalf("gap-derived rate %g", c.Probing.RateBps)
	}
}

func TestUnknownKeysRejectedPositionally(t *testing.T) {
	wantErr(t, `{"name": "t", "probing": {"plan": "train", "packets": 10}, "rate": 1}`, "rate: unknown key")
	wantErr(t, `{
		"name": "t",
		"stations": [{"traffic": {"rate_mbps": 1, "sizebytes": 100}}],
		"probing": {"plan": "train", "packets": 10}
	}`, "stations[0].traffic.sizebytes")
	wantErr(t, `{"name": "t", "probing": {"plan": "train", "packets": 10, "seconds": 1}}`, "probing.seconds")
}

func TestTypeAndFiniteErrors(t *testing.T) {
	wantErr(t, `{"name": 3, "probing": {"plan": "train", "packets": 10}}`, "name: want a string")
	wantErr(t, `{"name": "t", "probing": {"plan": "train", "packets": 10, "rate_mbps": 1e999}}`, "non-finite")
	wantErr(t, `{"name": "t", "probing": "train"}`, "probing: want an object")
	wantErr(t, `{"name": "t", "seed": 1.5, "probing": {"plan": "train", "packets": 10}}`, "seed: want an integer")
	wantErr(t, `[1]`, "must be a JSON object")
	wantErr(t, `{"name": "t", "probing": {"plan": "train", "packets": 10}} {}`, "trailing data")
}

func TestSemanticErrors(t *testing.T) {
	wantErr(t, `{"probing": {"plan": "train", "packets": 10}}`, "name: scenario needs a name")
	wantErr(t, `{"name": "t"}`, "probing")
	wantErr(t, `{"name": "t", "phy": "n", "probing": {"plan": "train", "packets": 10}}`, "phy: unknown profile")
	wantErr(t, `{"name": "t", "probing": {"plan": "walk", "packets": 10}}`, "probing.plan")
	wantErr(t, `{"name": "t", "probing": {"plan": "train", "packets": 1}}`, "probing.packets")
	wantErr(t, `{"name": "t", "probing": {"plan": "train", "packets": 100001}}`, "probing.packets: a train holds at most 100000 packets")
	wantErr(t, `{"name": "t", "probing": {"plan": "train", "packets": 10, "rate_mbps": 1, "gap_ms": 2}}`, "probing.gap_ms")
	wantErr(t, `{"name": "t", "probing": {"plan": "train", "packets": 10, "duration_seconds": 2}}`, "probing.duration_seconds")
	wantErr(t, `{"name": "t", "probing": {"plan": "steady", "rate_mbps": 0}}`, "probing.rate_mbps")
	wantErr(t, `{"name": "t", "probing": {"plan": "steady", "rate_mbps": 1, "packets": 5}}`, "probing.packets")
	wantErr(t, `{"name": "t", "rts_threshold_bytes": -1, "probing": {"plan": "train", "packets": 10}}`, "rts_threshold_bytes")
	wantErr(t, `{"name": "t", "probe": {"ac": "express"}, "probing": {"plan": "train", "packets": 10}}`, "probe.ac")
	wantErr(t, `{"name": "t", "probe": {"warmup_seconds": -1}, "probing": {"plan": "train", "packets": 10}}`, "probe.warmup_seconds")
	// Durations past sim.MaxSeconds would wrap the simulated clock.
	wantErr(t, `{"name": "t", "probe": {"warmup_seconds": 1e10}, "probing": {"plan": "train", "packets": 10}}`, "probe.warmup_seconds")
	wantErr(t, `{"name": "t", "probing": {"plan": "steady", "rate_mbps": 1, "duration_seconds": 1e10}}`, "probing.duration_seconds")
	wantErr(t, `{
		"name": "t",
		"stations": [{"traffic": {"kind": "onoff", "rate_mbps": 1, "on_seconds": 1e10, "off_seconds": 0.1}}],
		"probing": {"plan": "train", "packets": 10}
	}`, "stations[0].traffic.on_seconds")
	wantErr(t, `{
		"name": "t",
		"stations": [{"traffic": {"kind": "onoff", "rate_mbps": 1, "on_seconds": 0.1, "off_seconds": 1e10}}],
		"probing": {"plan": "train", "packets": 10}
	}`, "stations[0].traffic.off_seconds")
	wantErr(t, `{
		"name": "t",
		"stations": [{"traffic": {"rate_mbps": -1}}],
		"probing": {"plan": "train", "packets": 10}
	}`, "stations[0].traffic.rate_mbps")
	wantErr(t, `{
		"name": "t",
		"stations": [{"traffic": {"kind": "onoff", "rate_mbps": 1, "on_seconds": 0.1}}],
		"probing": {"plan": "train", "packets": 10}
	}`, "stations[0].traffic.on_seconds")
	wantErr(t, `{
		"name": "t",
		"stations": [{"ac": "be"}],
		"probing": {"plan": "train", "packets": 10}
	}`, "stations[0].traffic")
	wantErr(t, `{
		"name": "t",
		"channel": {"fer": 1.5},
		"probing": {"plan": "train", "packets": 10}
	}`, "channel.fer")
	wantErr(t, `{
		"name": "t",
		"channel": {"capture_db": -3},
		"probing": {"plan": "train", "packets": 10}
	}`, "channel.capture_db")
	// Estimator settings belong to campaign files, not to the cell.
	wantErr(t, `{
		"name": "t",
		"estimator": {"kind": "all"},
		"probing": {"plan": "train", "packets": 10}
	}`, "estimator: unknown key")
}

func TestTopologyCompilation(t *testing.T) {
	base := `{
		"name": "t",
		"stations": [
			{"traffic": {"rate_mbps": 1, "size_bytes": 1500}},
			{"traffic": {"rate_mbps": 1, "size_bytes": 1500}}
		],
		"channel": {"topology": %s},
		"probing": {"plan": "train", "packets": 10}
	}`
	c := mustCompile(t, strings.ReplaceAll(base, "%s", `{"kind": "hidden"}`))
	if c.Link.Topology == nil || c.Link.Topology.IsFullMesh() {
		t.Fatal("hidden topology not compiled")
	}
	c = mustCompile(t, strings.ReplaceAll(base, "%s", `{"kind": "mesh"}`))
	if c.Link.Topology != nil {
		t.Fatal("mesh must compile to the nil topology")
	}
	c = mustCompile(t, strings.ReplaceAll(base, "%s", `{"kind": "chain"}`))
	want := mac.Chain(3)
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			if c.Link.Topology.Hears(a, b) != want.Hears(a, b) {
				t.Fatalf("chain edge (%d,%d)", a, b)
			}
		}
	}
	c = mustCompile(t, strings.ReplaceAll(base, "%s", `{"kind": "links", "links": [[0, 1]]}`))
	if !c.Link.Topology.Hears(0, 1) || !c.Link.Topology.Hears(1, 0) || c.Link.Topology.Hears(1, 2) {
		t.Fatal("links topology edges wrong")
	}
	wantErr(t, strings.ReplaceAll(base, "%s", `{"kind": "links", "links": [[0, 3]]}`),
		"channel.topology.links[0]")
	wantErr(t, strings.ReplaceAll(base, "%s", `{"kind": "links", "links": [[1, 1]]}`),
		"channel.topology.links[0]")
	wantErr(t, strings.ReplaceAll(base, "%s", `{"kind": "mesh", "links": [[0, 1]]}`),
		"channel.topology.links")
	wantErr(t, strings.ReplaceAll(base, "%s", `{"kind": "ring"}`), "channel.topology.kind")
}

func TestTXOPOverHiddenTopologyRejected(t *testing.T) {
	// AC_VO carries a TXOP limit on every PHY profile; combined with a
	// hidden topology the engine would reject it at run time — the
	// compiler must reject it statically, naming the field.
	wantErr(t, `{
		"name": "t",
		"probe": {"ac": "vo"},
		"stations": [{"traffic": {"rate_mbps": 1, "size_bytes": 1500}}],
		"channel": {"topology": {"kind": "hidden"}},
		"probing": {"plan": "train", "packets": 10}
	}`, "probe.ac")
	wantErr(t, `{
		"name": "t",
		"stations": [{"traffic": {"rate_mbps": 1, "size_bytes": 1500}, "ac": "vi"}],
		"channel": {"topology": {"kind": "hidden"}},
		"probing": {"plan": "train", "packets": 10}
	}`, "stations[0].ac")
	// The same categories over a full mesh are fine.
	mustCompile(t, `{
		"name": "t",
		"probe": {"ac": "vo"},
		"stations": [{"traffic": {"rate_mbps": 1, "size_bytes": 1500}, "ac": "vi"}],
		"probing": {"plan": "train", "packets": 10}
	}`)
}

func TestFlowSizeDefaults(t *testing.T) {
	c := mustCompile(t, `{
		"name": "t",
		"stations": [{"traffic": {"rate_mbps": 1}}],
		"probing": {"plan": "train", "packets": 10}
	}`)
	if c.Link.Contenders[0].Size != 1500 {
		t.Fatalf("flow size default %d", c.Link.Contenders[0].Size)
	}
}

func TestMACConfig(t *testing.T) {
	c := mustCompile(t, `{
		"name": "t",
		"seed": 7,
		"fifo_cross": [{"rate_mbps": 0.5}],
		"stations": [{"name": "bulk", "traffic": {"rate_mbps": 2, "size_bytes": 1000}}],
		"probing": {"plan": "steady", "rate_mbps": 3}
	}`)
	stream := sim.NewStream(c.Link.Seed)
	cfg, err := c.MACConfig(stream.Child(0), 2*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Stations) != 2 || cfg.Stations[0].Name != "probe" || cfg.Stations[1].Name != "bulk" {
		t.Fatalf("stations %+v", cfg.Stations)
	}
	if cfg.Horizon != 2*sim.Second {
		t.Fatalf("horizon %v", cfg.Horizon)
	}
	cfg2, err := c.MACConfig(stream.Child(0), 2*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != cfg2.Seed {
		t.Fatal("MACConfig must be deterministic in the stream")
	}
	if _, err := c.MACConfig(stream, 0); err == nil {
		t.Fatal("zero horizon accepted")
	}

	train := mustCompile(t, minimal)
	tcfg, err := train.MACConfig(stream, sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(tcfg.Stations) != 1 {
		t.Fatalf("train stations %+v", tcfg.Stations)
	}
}

// TestMACConfigIsProbeCell holds MACConfig to the cell probe.Link
// builds: on every library spec, the config MACConfig returns and the
// one probe.Link.MACConfig builds from the same link, probing traffic
// and stream differ only in the station names, and they run to
// identical results on the engine.
func TestMACConfigIsProbeCell(t *testing.T) {
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("library specs: %v, %v", paths, err)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			c, err := CompileFile(path)
			if err != nil {
				t.Fatal(err)
			}
			l := c.Link.WithDefaults()
			stream := sim.NewStream(c.Link.Seed).Child(3)
			horizon := l.WarmUp + 300*sim.Millisecond
			var src traffic.Source
			if c.Probing.Plan == PlanTrain {
				src = traffic.NewTrain(c.Probing.TrainLen, sim.FromSeconds(float64(l.ProbeSize*8)/c.Probing.RateBps), l.ProbeSize, l.WarmUp)
			} else {
				src = traffic.Marked(traffic.NewCBR(c.Probing.RateBps, l.ProbeSize, l.WarmUp, horizon))
			}
			got, err := c.MACConfig(stream, horizon)
			if err != nil {
				t.Fatal(err)
			}
			want := l.MACConfig(src, stream.Rand(), stream.Child(0).Seed(), horizon)
			if len(got.Stations) != len(c.StationNames) || len(want.Stations) != len(got.Stations) {
				t.Fatalf("%d and %d stations for %d names", len(got.Stations), len(want.Stations), len(c.StationNames))
			}
			for i, name := range c.StationNames {
				if got.Stations[i].Name != name {
					t.Errorf("station %d named %q, want %q", i, got.Stations[i].Name, name)
				}
			}
			gotRes, err := mac.Run(got)
			if err != nil {
				t.Fatal(err)
			}
			wantRes, err := mac.Run(want)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatalf("MACConfig's cell ran to a different result than probe.Link.MACConfig's")
			}
			if len(gotRes.Frames[0]) == 0 {
				t.Fatal("probing station delivered nothing")
			}
		})
	}
}
