package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csmabw/internal/clikit"
	"csmabw/internal/mac"
	"csmabw/internal/phy"
	"csmabw/internal/sim"
	"csmabw/internal/traffic"
)

const (
	meshSpec   = "../../scenarios/mixed-rate-anomaly-mesh.json"
	hiddenSpec = "../../scenarios/hidden-warehouse.json"
)

// writeSpec writes a scenario spec into a fresh temporary directory
// and returns its path.
func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cell.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestParseStation pins how dcfsim builds its stations from a spec:
// the probing station's steady plan is the cell's one CBR flow, a
// contender's Poisson traffic keeps the spec's packet size, and
// power_db defaults to 0.
func TestParseStation(t *testing.T) {
	path := writeSpec(t, `{
  "name": "two-contenders",
  "stations": [
    {"name": "quiet", "traffic": {"kind": "poisson", "rate_mbps": 4, "size_bytes": 576}},
    {"name": "loud", "traffic": {"kind": "poisson", "rate_mbps": 4, "size_bytes": 576}, "power_db": 7.5}
  ],
  "probing": {"plan": "steady", "rate_mbps": 2}
}`)
	c, err := parseArgs([]string{"-scenario", path})
	if err != nil {
		t.Fatal(err)
	}
	// One second of steady probing past the default 0.5 s warm-up.
	cfg, err := c.scen.MACConfig(sim.NewStream(1), 1500*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Stations) != 3 {
		t.Fatalf("%d stations, want 3", len(cfg.Stations))
	}
	// 2e6/(1500*8) ~ 166.7 packets/s over 1s; the CBR generator emits a
	// packet at the start of its window, so the count rounds up.
	if arr := traffic.Collect(cfg.Stations[0].Source); len(arr) != 167 {
		t.Errorf("cbr packets = %d, want 167", len(arr))
	}
	arr := traffic.Collect(cfg.Stations[1].Source)
	if len(arr) == 0 {
		t.Error("poisson produced nothing")
	}
	for _, a := range arr {
		if a.Size != 576 {
			t.Fatalf("size %d", a.Size)
		}
	}
	if p := cfg.Stations[1].PowerDB; p != 0 {
		t.Errorf("default power = %g, want 0", p)
	}
	if p := cfg.Stations[2].PowerDB; p != 7.5 {
		t.Errorf("power = %g, want 7.5", p)
	}
	if cfg.Stations[1].Name != "quiet" || cfg.Stations[2].Name != "loud" {
		t.Errorf("station names %q, %q, want the spec's", cfg.Stations[1].Name, cfg.Stations[2].Name)
	}
}

// TestParseStationErrors pins that dcfsim rejects a malformed station
// entry with the spec compiler's positional error, before anything
// runs. A CBR contender is among them: a spec's one CBR flow is the
// probing station's steady plan.
func TestParseStationErrors(t *testing.T) {
	bad := []struct {
		station string
		frag    string
	}{
		{`{"traffic": {"kind": "poisson", "size_bytes": 1500}}`, "stations[0].traffic.rate_mbps"},
		{`{"traffic": {"rate_mbps": 2}, "power_db": "x"}`, "stations[0].power_db"},
		{`{"traffic": {"rate_mbps": 2}, "power": 3}`, "stations[0].power: unknown key"},
		{`{"traffic": {"rate_mbps": "x", "size_bytes": 1500}}`, "stations[0].traffic.rate_mbps"},
		{`{"traffic": {"rate_mbps": 0, "size_bytes": 1500}}`, "positive rate"},
		{`{"traffic": {"rate_mbps": 2, "size_bytes": "zero"}}`, "stations[0].traffic.size_bytes"},
		{`{"traffic": {"rate_mbps": 2, "size_bytes": -5}}`, "negative packet size"},
		{`{"traffic": {"kind": "warp", "rate_mbps": 2}}`, "unknown traffic kind"},
		{`{"traffic": {"kind": "cbr", "rate_mbps": 2}}`, "unknown traffic kind"},
		{`{"traffic": {"rate_mbps": 2}, "ac": "xx"}`, "stations[0].ac"},
		{`{"traffic": {"rate_mbps": 2}, "data_rate_mbps": -1}`, "stations[0].data_rate_mbps"},
	}
	for _, tt := range bad {
		path := writeSpec(t, fmt.Sprintf(`{"name": "bad-station", "stations": [%s], "probing": {"plan": "steady", "rate_mbps": 2}}`, tt.station))
		_, err := parseArgs([]string{"-scenario", path})
		if err == nil {
			t.Errorf("%s accepted", tt.station)
			continue
		}
		if !strings.Contains(err.Error(), tt.frag) {
			t.Errorf("%s: error %q lacks %q", tt.station, err, tt.frag)
		}
	}
}

// TestPhyFor pins the spec's phy names dcfsim accepts, each compiling
// to a valid profile that reaches the engine configuration, and the
// rejection of an unknown one.
func TestPhyFor(t *testing.T) {
	for name, want := range map[string]phy.Params{
		"b11": phy.B11(), "b11short": phy.B11Short(), "g54": phy.G54(), "a54": phy.A54(),
	} {
		path := writeSpec(t, fmt.Sprintf(`{"name": "phy-cell", "phy": %q, "probing": {"plan": "steady", "rate_mbps": 2}}`, name))
		c, err := parseArgs([]string{"-scenario", path})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		p := c.scen.Link.Phy
		if p.Validate() != nil {
			t.Errorf("%s: invalid params", name)
		}
		cfg, err := c.scen.MACConfig(sim.NewStream(1), sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != want.Name || cfg.Phy.Name != want.Name {
			t.Errorf("%s: compiled %q, engine %q, want %q", name, p.Name, cfg.Phy.Name, want.Name)
		}
	}
	path := writeSpec(t, `{"name": "phy-cell", "phy": "n600", "probing": {"plan": "steady", "rate_mbps": 2}}`)
	if _, err := parseArgs([]string{"-scenario", path}); err == nil || !strings.Contains(err.Error(), "phy") {
		t.Errorf("unknown PHY: got %v, want a phy error", err)
	}
}

func TestParseArgs(t *testing.T) {
	cases := []struct {
		name string
		args []string
		ok   bool
		frag string
		chk  func(*dcfConfig) bool
	}{
		{name: "spec defaults", args: []string{"-scenario", hiddenSpec}, ok: true,
			chk: func(c *dcfConfig) bool {
				return c.duration == 5 && c.reps == 1 && c.workers == 0 &&
					c.scen.Link.Seed == 47 && c.scen.Link.RTSThreshold == 512
			}},
		{name: "seed override", args: []string{"-scenario", meshSpec, "-seed", "99"}, ok: true,
			chk: func(c *dcfConfig) bool { return c.scen.Link.Seed == 99 }},
		{name: "rts override", args: []string{"-scenario", hiddenSpec, "-rts", "0"}, ok: true,
			chk: func(c *dcfConfig) bool { return c.scen.Link.RTSThreshold == 0 && c.scen.Link.Seed == 47 }},
		{name: "run knobs", args: []string{"-scenario", meshSpec, "-duration", "0.5", "-reps", "4", "-workers", "2", "-trace", "t.bin"}, ok: true,
			chk: func(c *dcfConfig) bool {
				return c.duration == 0.5 && c.reps == 4 && c.workers == 2 && c.tracePath == "t.bin"
			}},
		{name: "missing scenario", args: []string{"-duration", "1"}, frag: "-scenario is required"},
		{name: "missing spec file", args: []string{"-scenario", "no-such.json"}, frag: "no-such.json"},
		{name: "zero duration", args: []string{"-scenario", meshSpec, "-duration", "0"}, frag: "-duration"},
		{name: "NaN duration", args: []string{"-scenario", meshSpec, "-duration", "NaN"}, frag: "-duration"},
		{name: "duration past the clock", args: []string{"-scenario", meshSpec, "-duration", "1e10"}, frag: "-duration"},
		{name: "zero reps", args: []string{"-scenario", meshSpec, "-reps", "0"}, frag: "-reps"},
		{name: "negative rts", args: []string{"-scenario", meshSpec, "-rts", "-1"}, frag: "-rts"},
		// The structured cell flags are gone: each is a spec field now.
		{name: "retired station flag", args: []string{"-scenario", meshSpec, "-station", "poisson:4:1500"}},
		{name: "retired channel flag", args: []string{"-scenario", meshSpec, "-fer", "0.1"}},
		{name: "retired phy flag", args: []string{"-scenario", meshSpec, "-phy", "g54"}},
		{name: "retired EDCA flag", args: []string{"-scenario", meshSpec, "-ac", "vo"}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			cfg, err := parseArgs(tt.args)
			if tt.ok {
				if err != nil {
					t.Fatal(err)
				}
				if tt.chk != nil && !tt.chk(cfg) {
					t.Errorf("config check failed: %+v", cfg)
				}
				return
			}
			if err == nil {
				t.Fatal("invalid args accepted")
			}
			if tt.frag != "" && !strings.Contains(err.Error(), tt.frag) {
				t.Errorf("error %q lacks %q", err, tt.frag)
			}
			if tt.frag == "" && !errors.Is(err, clikit.ErrUsage) {
				t.Errorf("retired flag: got %v, want clikit.ErrUsage", err)
			}
		})
	}
}

// TestParseArgsHelp pins -h to flag.ErrHelp (main exits 0).
func TestParseArgsHelp(t *testing.T) {
	if _, err := parseArgs([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: got %v, want flag.ErrHelp", err)
	}
}

// TestRunListsSpecStations runs a short replicated cell and checks the
// table rows carry the spec's station names, and that the table is the
// same at one and at two workers.
func TestRunListsSpecStations(t *testing.T) {
	render := func(workers string) string {
		t.Helper()
		cfg, err := parseArgs([]string{"-scenario", meshSpec, "-duration", "0.2", "-reps", "3", "-workers", workers})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := run(cfg, &b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	out := render("1")
	for _, name := range []string{"probe", "fast-11mbps", "mid-5.5mbps", "slow-1mbps"} {
		if !strings.Contains(out, "\n"+name+" ") {
			t.Errorf("no row for station %q:\n%s", name, out)
		}
	}
	if !strings.Contains(out, `scenario "mixed-rate-anomaly-mesh"`) || !strings.Contains(out, "4 stations") {
		t.Errorf("header does not describe the spec's cell:\n%s", out)
	}
	if two := render("2"); two != out {
		t.Errorf("2-worker table differs from 1-worker table:\n%s\nvs\n%s", two, out)
	}
}

// traceCases are the library specs whose -trace files are pinned: one
// replication at -duration 1 on the spec's own seed. Between them they
// cover all five event kinds, two access categories and probe records.
var traceCases = []struct {
	spec   string
	events int
	sha256 string // prefix of the file's hex digest
}{
	{"hidden-warehouse", 1889, "2b0f179d25bfd03a"},
	{"vo-vs-be-contention", 918, "d687f2f43c672ef2"},
	{"lossy-fer-cell", 914, "c983e425c275ec84"},
}

// writeTrace runs dcfsim -trace on a library spec and returns the
// parsed configuration, the printed output and the trace file's bytes.
func writeTrace(t *testing.T, spec string) (*dcfConfig, string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cell.trace")
	c, err := parseArgs([]string{"-scenario", "../../scenarios/" + spec + ".json", "-duration", "1", "-trace", path})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(c, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return c, out.String(), data
}

// TestTraceDigests pins the bytes dcfsim -trace writes: the event
// count it reports and the sha256 of the file.
func TestTraceDigests(t *testing.T) {
	for _, tc := range traceCases {
		t.Run(tc.spec, func(t *testing.T) {
			c, out, data := writeTrace(t, tc.spec)
			if want := fmt.Sprintf("wrote %d events to %s\n", tc.events, c.tracePath); !strings.HasPrefix(out, want) {
				t.Errorf("output starts %q, want %q", strings.SplitAfter(out, "\n")[0], want)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); !strings.HasPrefix(got, tc.sha256) {
				t.Errorf("trace sha256 %s, want prefix %s", got, tc.sha256)
			}
		})
	}
}

// decodeTrace checks the 8-byte magic and each 32-byte little-endian
// record's probe flag and zero reserved bytes, and returns the events
// the records hold.
func decodeTrace(t *testing.T, data []byte) []mac.Event {
	t.Helper()
	if len(data) < 8 || string(data[:8]) != "CBWTRACE" {
		t.Fatal("trace does not start with the CBWTRACE magic")
	}
	recs := data[8:]
	if len(recs)%32 != 0 {
		t.Fatalf("%d record bytes, not a whole number of 32-byte records", len(recs))
	}
	le := binary.LittleEndian
	evs := make([]mac.Event, 0, len(recs)/32)
	for i := 0; i < len(recs); i += 32 {
		r := recs[i : i+32]
		if r[9] > 1 || r[11] != 0 || le.Uint32(r[28:]) != 0 {
			t.Fatalf("record %d: bad probe flag or nonzero reserved bytes % x", i/32, r)
		}
		evs = append(evs, mac.Event{
			At:      sim.Time(le.Uint64(r[0:])),
			Kind:    mac.EventKind(r[8]),
			Probe:   r[9] == 1,
			AC:      phy.AccessCategory(r[10]),
			Station: int(int32(le.Uint32(r[12:]))),
			Size:    int(int32(le.Uint32(r[16:]))),
			Index:   int(int32(le.Uint32(r[20:]))),
			Retries: int(int32(le.Uint32(r[24:]))),
		})
	}
	return evs
}

// TestTraceRoundTrip writes hand-built events through the -trace
// writer and decodes them back, with values a short run need not
// reach: cross-traffic index -1 and retry counts past the first.
func TestTraceRoundTrip(t *testing.T) {
	events := []mac.Event{
		{At: 1000, Kind: mac.EvTxStart, Station: 0, Size: 1500, Probe: true, Index: 0, AC: phy.ACVoice},
		{At: 2000, Kind: mac.EvSuccess, Station: 0, Size: 1500, Probe: true, Index: 0, AC: phy.ACVoice},
		{At: 3000, Kind: mac.EvCollision, Station: 1, Size: 576, Index: -1, Retries: 2, AC: phy.ACBackground},
		{At: 4000, Kind: mac.EvDrop, Station: 1, Size: 576, Index: -1, Retries: 7},
	}
	var buf bytes.Buffer
	tw := newTraceWriter(&buf)
	for _, ev := range events {
		tw.event(ev)
	}
	if err := tw.w.Flush(); err != nil {
		t.Fatal(err)
	}
	if tw.events != len(events) {
		t.Errorf("writer counted %d events, want %d", tw.events, len(events))
	}
	got := decodeTrace(t, buf.Bytes())
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d: decoded %+v, wrote %+v", i, got[i], events[i])
		}
	}
}

// TestTraceRecordsMatchEvents decodes every trace record and compares
// it, field by field, with the event stream of replication 0 rerun on
// the same cell.
func TestTraceRecordsMatchEvents(t *testing.T) {
	kinds := map[mac.EventKind]bool{}
	acs := map[phy.AccessCategory]bool{}
	probes := 0
	for _, tc := range traceCases {
		t.Run(tc.spec, func(t *testing.T) {
			c, _, data := writeTrace(t, tc.spec)
			cfg, err := c.scen.MACConfig(sim.NewStream(c.scen.Link.Seed).Child(0), sim.FromSeconds(c.duration))
			if err != nil {
				t.Fatal(err)
			}
			var want []mac.Event
			cfg.OnEvent = func(ev mac.Event) { want = append(want, ev) }
			if _, err := mac.Run(cfg); err != nil {
				t.Fatal(err)
			}
			got := decodeTrace(t, data)
			if len(got) != len(want) {
				t.Fatalf("%d records, engine emitted %d events", len(got), len(want))
			}
			for i, ev := range want {
				if got[i] != ev {
					t.Fatalf("record %d: decoded %+v, engine emitted %+v", i, got[i], ev)
				}
				kinds[ev.Kind] = true
				acs[ev.AC] = true
				if ev.Probe {
					probes++
				}
			}
		})
	}
	// The cases stay worth pinning only while they exercise every
	// record field.
	if len(kinds) != 5 || len(acs) < 2 || probes == 0 {
		t.Errorf("cases cover kinds %v, access categories %v, %d probe records; want all five kinds, two categories and probes",
			kinds, acs, probes)
	}
}
