package scenario

import (
	"strings"
	"testing"
)

// FuzzScenarioSpec drives the one-pass compiler with arbitrary byte
// soup. The invariants: it may not panic, every reported error must
// carry the "scenario" prefix (or a position), and a spec that
// compiles must yield a Link that passes probe.Link.Validate and a
// plan the drivers can trust (a positive train length or a positive
// steady rate) — i.e. the compiler never lets a malformed cell through
// to the engine.
func FuzzScenarioSpec(f *testing.F) {
	seeds := []string{
		minimal,
		`{}`,
		`not json at all`,
		`{"name": "t", "probing": {"plan": "steady", "rate_mbps": 5, "duration_seconds": 1}}`,
		`{"name": "x", "phy": "g54", "seed": 3,
		  "probe": {"size_bytes": 1000, "ac": "vo"},
		  "fifo_cross": [{"rate_mbps": 1}],
		  "stations": [{"traffic": {"kind": "onoff", "rate_mbps": 2, "size_bytes": 1500,
		                            "on_seconds": 0.2, "off_seconds": 0.3}, "ac": "be"}],
		  "channel": {"fer": 0.05, "topology": {"kind": "chain"}},
		  "probing": {"plan": "train", "packets": 50, "gap_ms": 4}}`,
		`{"name": "t", "probing": {"plan": "train", "packets": 10, "rate_mbps": 1e999}}`,
		`{"name": "t", "channel": {"topology": {"kind": "links", "links": [[0, 1]]}},
		  "stations": [{"traffic": {"rate_mbps": 1}}],
		  "probing": {"plan": "train", "packets": 10}}`,
		`{"name": "tv", "stations": [{"name": "bulk", "traffic": {"rate_mbps": 2}}],
		  "probing": {"plan": "steady", "rate_mbps": 4, "duration_seconds": 1},
		  "events": [{"at": "500ms", "fer": 0.2},
		             {"at": "1s", "station": "bulk", "data_rate_mbps": 2, "power_db": 6},
		             {"at": "2s", "link": [0, 1], "hears": false},
		             {"at": "3s", "station": "*", "fer": 0}],
		  "notes": ["time-varying seed"]}`,
		`{"name": "t", "probing": {"plan": "train", "packets": 10},
		  "events": [{"at": "nonsense", "fer": 2}]}`,
		// "phases" is not a key: an error input.
		`{"name": "t", "probing": {"plan": "train", "packets": 10},
		  "events": [{"at": "1s"}], "phases": ["legacy"]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Compile(data)
		if err != nil {
			if !strings.Contains(err.Error(), "scenario") {
				t.Fatalf("compile error without package prefix: %q", err)
			}
			return
		}
		if err := c.Link.Validate(); err != nil {
			t.Fatalf("compiled link fails Validate: %v", err)
		}
		switch c.Probing.Plan {
		case PlanTrain:
			if c.Probing.TrainLen < 2 || c.Probing.RateBps < 0 {
				t.Fatalf("unusable train plan %+v", c.Probing)
			}
		case PlanSteady:
			if c.Probing.RateBps <= 0 {
				t.Fatalf("unusable steady plan %+v", c.Probing)
			}
		default:
			t.Fatalf("compiled plan %q", c.Probing.Plan)
		}
		if len(c.StationNames) != 1+len(c.Link.Contenders) {
			t.Fatalf("%d names for %d stations", len(c.StationNames), 1+len(c.Link.Contenders))
		}
	})
}
