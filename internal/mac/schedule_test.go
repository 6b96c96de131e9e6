package mac

import (
	"fmt"
	"testing"

	"csmabw/internal/phy"
	"csmabw/internal/sim"
	"csmabw/internal/traffic"
)

func fptr(v float64) *float64 { return &v }

// TestScheduleValidation pins the static rejection of malformed event
// schedules: out-of-order instants, out-of-range targets and values,
// self-edges, and events that change nothing.
func TestScheduleValidation(t *testing.T) {
	cases := []struct {
		name  string
		sched []ScheduledEvent
	}{
		{"negative instant", []ScheduledEvent{{At: -1, SetFER: fptr(0.1)}}},
		{"out of order", []ScheduledEvent{
			{At: 2 * sim.Second, SetFER: fptr(0.1)},
			{At: 1 * sim.Second, SetFER: fptr(0.2)},
		}},
		{"target too low", []ScheduledEvent{{At: 0, Target: -2, SetFER: fptr(0.1)}}},
		{"target too high", []ScheduledEvent{{At: 0, Target: 2, SetFER: fptr(0.1)}}},
		{"empty event", []ScheduledEvent{{At: 0}}},
		{"fer out of range", []ScheduledEvent{{At: 0, SetFER: fptr(1.0)}}},
		{"negative fer", []ScheduledEvent{{At: 0, SetFER: fptr(-0.1)}}},
		{"ber out of range", []ScheduledEvent{{At: 0, SetBER: fptr(1.5)}}},
		{"negative rate", []ScheduledEvent{{At: 0, SetDataRate: fptr(-1)}}},
		{"edge out of range", []ScheduledEvent{{At: 0, SetTopologyEdge: &TopologyEdge{A: 0, B: 5}}}},
		{"self edge", []ScheduledEvent{{At: 0, SetTopologyEdge: &TopologyEdge{A: 1, B: 1}}}},
	}
	for _, tc := range cases {
		if err := ValidateSchedule(tc.sched, 2); err == nil {
			t.Errorf("%s: schedule accepted", tc.name)
		}
	}
	ok := []ScheduledEvent{
		{At: 0, Target: -1, SetFER: fptr(0.3), SetPowerDB: fptr(4)},
		{At: sim.Second, Target: 1, SetDataRate: fptr(0)},
		{At: sim.Second, SetTopologyEdge: &TopologyEdge{A: 0, B: 1, Hears: false}},
	}
	if err := ValidateSchedule(ok, 2); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

// TestScheduleTXOPTopologyConflict asserts the engine statically
// rejects topology-edge events combined with a TXOP-bearing access
// category, mirroring the hidden-topology rejection.
func TestScheduleTXOPTopologyConflict(t *testing.T) {
	cfg := hotScenario(3, true)
	cfg.Stations[0].AC = phy.ACVideo
	cfg.Schedule = []ScheduledEvent{
		{At: sim.Second, SetTopologyEdge: &TopologyEdge{A: 0, B: 1, Hears: false}},
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("engine accepted TXOP station with scheduled topology events")
	}
}

// TestScheduleAfterEndIsInert pins the draw-order contract from the
// other side: a schedule whose events all fire after the last busy
// period produces the byte-identical result of an empty schedule — the
// events are never applied, and checking for them draws nothing.
func TestScheduleAfterEndIsInert(t *testing.T) {
	base := hotScenario(21, true)
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hotScenario(21, true)
	cfg.Schedule = []ScheduledEvent{
		{At: base.Horizon + sim.Second, Target: -1, SetFER: fptr(0.5)},
	}
	withSched, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "inert schedule", plain, withSched)
}

// TestNoOpEventChangesNothing is the metamorphic half of "an armed
// schedule only adds timer events at the instants it names": a
// mid-run event that sets a parameter to the value it already has —
// FER, BER, the data rate (as the PHY's rate and as 0), received power
// or a hearing edge — must leave every frame and every station
// statistic as they are without it, on a full mesh and on a lossy
// hidden pair with capture and RTS/CTS.
func TestNoOpEventChangesNothing(t *testing.T) {
	dataRate := phy.B11().DataRate
	cases := []struct {
		name   string
		hidden bool
		ev     ScheduledEvent
	}{
		{"mesh FER", false, ScheduledEvent{Target: -1, SetFER: fptr(0)}},
		{"mesh BER", false, ScheduledEvent{Target: -1, SetBER: fptr(0)}},
		{"mesh PHY rate", false, ScheduledEvent{Target: -1, SetDataRate: fptr(dataRate)}},
		{"mesh rate 0", false, ScheduledEvent{Target: -1, SetDataRate: fptr(0)}},
		{"mesh power", false, ScheduledEvent{Target: -1, SetPowerDB: fptr(0)}},
		{"mesh edge", false, ScheduledEvent{SetTopologyEdge: &TopologyEdge{A: 0, B: 1, Hears: true}}},
		{"hidden FER", true, ScheduledEvent{Target: -1, SetFER: fptr(0.05)}},
		{"hidden power", true, ScheduledEvent{Target: 0, SetPowerDB: fptr(6)}},
		{"hidden edge", true, ScheduledEvent{SetTopologyEdge: &TopologyEdge{A: 0, B: 1, Hears: false}}},
	}
	build := func(seed int64, hidden bool) Config {
		if hidden {
			return hiddenHotScenario(seed, true)
		}
		return hotScenario(seed, true)
	}
	for seed := int64(1); seed <= 40; seed++ {
		plain := map[bool]*Result{}
		for _, hidden := range []bool{false, true} {
			res, err := Run(build(seed, hidden))
			if err != nil {
				t.Fatal(err)
			}
			plain[hidden] = res
		}
		for _, tc := range cases {
			cfg := build(seed, tc.hidden)
			ev := tc.ev
			ev.At = 1500 * sim.Millisecond
			cfg.Schedule = []ScheduledEvent{ev}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, fmt.Sprintf("%s, seed %d", tc.name, seed), plain[tc.hidden], res)
		}
	}
}

// TestScheduledFERPrefixIdentical asserts the core semantics of a
// scheduled change: every busy period before the event's instant is
// resolved exactly as in an event-free run (same frames to the byte),
// and the channel degradation only bites afterwards.
func TestScheduledFERPrefixIdentical(t *testing.T) {
	const at = sim.Second
	base := hotScenario(5, true)
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hotScenario(5, true)
	cfg.Schedule = []ScheduledEvent{{At: at, Target: -1, SetFER: fptr(0.4)}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var errsAfter int
	for s := range res.Stats {
		errsAfter += res.Stats[s].ChannelErrors
	}
	if errsAfter == 0 {
		t.Fatal("FER 0.4 after 1s caused no channel errors")
	}
	for s := range plain.Frames {
		for j, pf := range plain.Frames[s] {
			if pf.Departed >= at {
				break
			}
			if j >= len(res.Frames[s]) {
				t.Fatalf("station %d: scheduled run missing pre-event frame %d", s, j)
			}
			if *pf != *res.Frames[s][j] {
				t.Fatalf("station %d frame %d (pre-event): %+v vs %+v", s, j, *pf, *res.Frames[s][j])
			}
		}
	}
}

// TestScheduledDataRateChange runs a lone station (no contention, so
// timing is deterministic) whose modulation rate is halved mid-run and
// asserts the per-frame service time grows exactly at the scheduled
// instant: frames starting before it keep the fast airtime.
func TestScheduledDataRateChange(t *testing.T) {
	end := 2 * sim.Second
	const at = sim.Second
	cfg := Config{
		Phy:     phy.B11(),
		Seed:    7,
		Horizon: end,
		Stations: []StationConfig{{
			Name:   "solo",
			Source: traffic.NewCBR(2e6, 1500, 0, end),
		}},
		Schedule: []ScheduledEvent{{At: at, Target: 0, SetDataRate: fptr(2e6)}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fast := phy.B11().DataTxTime(1500)
	slow := phy.B11().DataTxTimeAt(1500, 2e6)
	if slow <= fast {
		t.Fatalf("airtime fixture broken: slow %v <= fast %v", slow, fast)
	}
	checked := 0
	for _, f := range res.Frames[0] {
		// The lone station transmits each frame uncontested, so its
		// access delay is sensing + backoff + the data exchange: below
		// the slow exchange's airtime before the event, at or above it
		// after. The two regimes cannot overlap because contention
		// overhead is bounded well under the airtime gap.
		air := f.Departed - f.HOL
		if f.HOL < at && air >= slow {
			t.Fatalf("pre-event frame HOL=%v: airtime %v already at slow-rate %v", f.HOL, air, slow)
		}
		if f.HOL >= at && air < slow {
			t.Fatalf("post-event frame HOL=%v: airtime %v below slow-rate %v", f.HOL, air, slow)
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d frames delivered; scenario too small", checked)
	}
}

// TestScheduledTopologyDisconnect turns a two-station full mesh into a
// hidden pair mid-run and asserts overlap collisions appear only after
// the cut: hidden stations transmit over each other's airtime, which
// the mesh's carrier sense had prevented.
func TestScheduledTopologyDisconnect(t *testing.T) {
	end := 3 * sim.Second
	const at = sim.Second
	build := func(withEvent bool) Config {
		cfg := Config{
			Phy:     phy.B11(),
			Seed:    11,
			Horizon: end,
			Stations: []StationConfig{
				{Name: "a", Source: traffic.NewPoisson(sim.NewRand(1), 3e6, 1500, 0, end)},
				{Name: "b", Source: traffic.NewPoisson(sim.NewRand(2), 3e6, 1500, 0, end)},
			},
		}
		if withEvent {
			cfg.Schedule = []ScheduledEvent{
				{At: at, SetTopologyEdge: &TopologyEdge{A: 0, B: 1, Hears: false}},
			}
		}
		return cfg
	}
	plain, err := Run(build(false))
	if err != nil {
		t.Fatal(err)
	}
	cut, err := Run(build(true))
	if err != nil {
		t.Fatal(err)
	}
	collisions := func(r *Result) int { return r.Stats[0].Collisions + r.Stats[1].Collisions }
	if collisions(cut) <= collisions(plain) {
		t.Fatalf("hidden pair after cut collided %d times, mesh %d; expected more",
			collisions(cut), collisions(plain))
	}
	// Pre-cut behaviour is byte-identical.
	for s := range plain.Frames {
		for j, pf := range plain.Frames[s] {
			if pf.Departed >= at {
				break
			}
			if *pf != *cut.Frames[s][j] {
				t.Fatalf("station %d frame %d (pre-cut) differs", s, j)
			}
		}
	}
}

// TestScheduledPowerEnablesCapture raises one station's received power
// mid-run over the capture threshold and asserts captured deliveries
// appear only in the boosted regime.
func TestScheduledPowerEnablesCapture(t *testing.T) {
	end := 3 * sim.Second
	const at = sim.Second
	cfg := Config{
		Phy:     phy.B11(),
		Seed:    13,
		Horizon: end,
		Channel: Channel{CaptureThresholdDB: 10},
		Stations: []StationConfig{
			{Name: "a", Source: traffic.NewPoisson(sim.NewRand(3), 4e6, 1500, 0, end)},
			{Name: "b", Source: traffic.NewPoisson(sim.NewRand(4), 4e6, 1500, 0, end)},
		},
		Schedule: []ScheduledEvent{{At: at, Target: 0, SetPowerDB: fptr(15)}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats[0].Captured == 0 {
		t.Fatal("boosted station never captured despite 15 dB margin after the event")
	}
	if res.Stats[1].Captured != 0 {
		t.Fatalf("equal-power station captured %d frames", res.Stats[1].Captured)
	}
}

// TestScheduledEventsDeterministic asserts a scheduled-event run is a
// pure function of its config: identical reruns, byte-identical.
func TestScheduledEventsDeterministic(t *testing.T) {
	cfg := hotScenario(17, true)
	cfg.Schedule = []ScheduledEvent{
		{At: 500 * sim.Millisecond, Target: -1, SetFER: fptr(0.2)},
		{At: sim.Second, Target: 0, SetDataRate: fptr(5.5e6)},
		{At: 2 * sim.Second, Target: -1, SetFER: fptr(0)},
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgB := hotScenario(17, true)
	cfgB.Schedule = cfg.Schedule
	b, err := Run(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "rerun", a, b)
}
