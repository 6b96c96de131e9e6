package scenario

import (
	"testing"

	"csmabw/internal/sim"
)

// TestEventsCompile pins the structured-events schema end to end:
// duration parsing, station-name resolution (0 = probe), unit
// conversion, link edges, and the lowered mac schedule riding on the
// compiled Link.
func TestEventsCompile(t *testing.T) {
	c := mustCompile(t, `{
		"name": "tv",
		"stations": [
			{"name": "bulk", "traffic": {"rate_mbps": 2}},
			{"traffic": {"rate_mbps": 1}}
		],
		"probing": {"plan": "train", "packets": 10},
		"events": [
			{"at": "500ms", "fer": 0.2},
			{"at": "1s", "station": "bulk", "data_rate_mbps": 2, "power_db": 6},
			{"at": "1s", "station": "probe", "ber": 1e-5},
			{"at": "2s", "link": [0, 2]},
			{"at": "2500ms", "link": [1, 2], "hears": true},
			{"at": "3s", "station": "*", "fer": 0}
		],
		"notes": ["0-500ms clean"]
	}`)
	sched := c.Link.Schedule
	if len(sched) != 6 {
		t.Fatalf("schedule %+v", sched)
	}
	if ev := sched[0]; ev.At != 500*sim.Millisecond || ev.Target != -1 || ev.SetFER == nil || *ev.SetFER != 0.2 {
		t.Fatalf("event 0 %+v", ev)
	}
	if ev := sched[1]; ev.Target != 1 || *ev.SetDataRate != 2e6 || *ev.SetPowerDB != 6 {
		t.Fatalf("event 1 %+v", ev)
	}
	if ev := sched[2]; ev.Target != 0 || *ev.SetBER != 1e-5 {
		t.Fatalf("event 2 %+v", ev)
	}
	if ev := sched[3]; ev.SetTopologyEdge == nil || ev.SetTopologyEdge.A != 0 ||
		ev.SetTopologyEdge.B != 2 || ev.SetTopologyEdge.Hears {
		t.Fatalf("event 3 %+v", ev)
	}
	if ev := sched[4]; ev.SetTopologyEdge == nil || !ev.SetTopologyEdge.Hears {
		t.Fatalf("event 4 %+v", ev)
	}
	if ev := sched[5]; ev.Target != -1 || *ev.SetFER != 0 {
		t.Fatalf("event 5 %+v", ev)
	}
	if len(c.Notes) != 1 {
		t.Fatalf("notes %v", c.Notes)
	}
}

// TestEventsSemanticErrors pins the compiler's positional rejection of
// malformed event schedules.
func TestEventsSemanticErrors(t *testing.T) {
	spec := func(events string) string {
		return `{
			"name": "t",
			"stations": [{"name": "sta", "traffic": {"rate_mbps": 1}}],
			"probing": {"plan": "train", "packets": 10},
			"events": ` + events + `}`
	}
	wantErr(t, spec(`[{"fer": 0.1}]`), "events[0].at")
	wantErr(t, spec(`[{"at": "soon", "fer": 0.1}]`), "events[0].at")
	wantErr(t, spec(`[{"at": "-1s", "fer": 0.1}]`), "events[0].at")
	wantErr(t, spec(`[{"at": "2s", "fer": 0.1}, {"at": "1s", "fer": 0.2}]`), "events[1].at")
	wantErr(t, spec(`[{"at": "1s", "station": "ghost", "fer": 0.1}]`), "events[0].station")
	wantErr(t, spec(`[{"at": "1s", "fer": 1.0}]`), "events[0].fer")
	wantErr(t, spec(`[{"at": "1s", "ber": -0.1}]`), "events[0].ber")
	wantErr(t, spec(`[{"at": "1s", "data_rate_mbps": -2}]`), "events[0].data_rate_mbps")
	wantErr(t, spec(`[{"at": "1s", "link": [0, 5]}]`), "events[0].link")
	wantErr(t, spec(`[{"at": "1s", "link": [1, 1]}]`), "events[0].link")
	wantErr(t, spec(`[{"at": "1s", "link": [0]}]`), "events[0].link")
	wantErr(t, spec(`[{"at": "1s"}]`), "events[0]")
	wantErr(t, spec(`[{"at": "1s", "hears": true}]`), "events[0].hears")
	wantErr(t, spec(`[{"at": "1s", "fer": 0.1, "surprise": 1}]`), "events[0].surprise")
}

// TestEventsTXOPConflict mirrors the hidden-topology TXOP rejection
// for scheduled link events: a category with a TXOP limit cannot ride
// a cell whose hearing graph changes mid-run.
func TestEventsTXOPConflict(t *testing.T) {
	wantErr(t, `{
		"name": "t",
		"probe": {"ac": "vi"},
		"stations": [{"traffic": {"rate_mbps": 1}}],
		"probing": {"plan": "train", "packets": 10},
		"events": [{"at": "1s", "link": [0, 1]}]
	}`, "probe.ac")
	wantErr(t, `{
		"name": "t",
		"stations": [{"traffic": {"rate_mbps": 1}, "ac": "vo"}],
		"probing": {"plan": "train", "packets": 10},
		"events": [{"at": "1s", "link": [0, 1]}]
	}`, "stations[0].ac")
}

// TestPhasesKeyRejected pins the end of the free-text "phases" key:
// it fails as an unknown key with a positional error, while "notes"
// carries the same annotations.
func TestPhasesKeyRejected(t *testing.T) {
	wantErr(t, `{
		"name": "t",
		"probing": {"plan": "train", "packets": 10},
		"phases": ["0-1s warm-up", "1-3s measured"]
	}`, "phases: unknown key")
	s, err := Parse([]byte(`{
		"name": "t",
		"probing": {"plan": "train", "packets": 10},
		"notes": ["0-1s warm-up"]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Notes) != 1 {
		t.Fatalf("notes %v", s.Notes)
	}
}

// TestEventsMACConfig asserts MACConfig carries the compiled schedule
// into the engine configuration.
func TestEventsMACConfig(t *testing.T) {
	c := mustCompile(t, `{
		"name": "tv",
		"stations": [{"traffic": {"rate_mbps": 1}}],
		"probing": {"plan": "steady", "rate_mbps": 2, "duration_seconds": 1},
		"events": [{"at": "1s", "fer": 0.3}]
	}`)
	cfg, err := c.MACConfig(sim.NewStream(1), 2*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Schedule) != 1 || cfg.Schedule[0].At != sim.Second {
		t.Fatalf("schedule %+v", cfg.Schedule)
	}
}
