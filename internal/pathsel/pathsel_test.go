package pathsel

import (
	"math"
	"reflect"
	"testing"

	"csmabw/internal/mac"
	"csmabw/internal/probe"
	"csmabw/internal/sim"
)

// quietPath is a lightly-configured upstream cell sized for fast
// tests: short warm-up, no cross-traffic unless the test adds it.
func quietPath(seed int64) probe.Link {
	return probe.Link{Seed: seed, WarmUp: 50 * sim.Millisecond}
}

// fastCfg keeps replications cheap: short trains, sub-second epochs.
func fastCfg(paths ...probe.Link) Config {
	return Config{
		Paths:        paths,
		Epochs:       5,
		EpochSeconds: 0.5,
		TrainLen:     12,
		RateBps:      6e6,
	}
}

func mustRun(t *testing.T, cfg Config, rep int, m *Meter) *Result {
	t.Helper()
	res, err := Run(cfg, rep, m)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunDeterministic(t *testing.T) {
	loaded := quietPath(7)
	loaded.Contenders = []probe.Flow{{RateBps: 1e6, Size: 1000}}
	cfg := fastCfg(quietPath(3), loaded)
	var m Meter
	a := mustRun(t, cfg, 2, &m)
	b := mustRun(t, cfg, 2, &m)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("rerun diverged:\n%+v\n%+v", a, b)
	}
	// A fresh-engine run must agree with the meter-reusing run.
	c := mustRun(t, cfg, 2, nil)
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("meter reuse changed the result:\n%+v\n%+v", a, c)
	}
	for k, ep := range a.Epochs {
		if ep.Selected < 0 || ep.Selected >= len(cfg.Paths) {
			t.Fatalf("epoch %d selected %d", k, ep.Selected)
		}
		if len(ep.Meas) != 2 || len(ep.Scores) != 2 {
			t.Fatalf("epoch %d shape %+v", k, ep)
		}
	}
	if a.Epochs[0].Switched {
		t.Fatal("first epoch cannot be a switch")
	}
}

// TestWarmMeterAllocsFlatInEpochs: every path probe plans, rebases its
// schedule and measures into the meter's storage, so a warm meter's Run
// allocates only its Result (the Result, its epochs, their measurements
// and scores, and the EMA and use counts), the same at 6 as at 12
// epochs.
func TestWarmMeterAllocsFlatInEpochs(t *testing.T) {
	fer := 0.3
	degrading := quietPath(5)
	degrading.Contenders = []probe.Flow{{RateBps: 1e6, Size: 1000}}
	degrading.Schedule = []mac.ScheduledEvent{{At: 1200 * sim.Millisecond, Target: -1, SetFER: &fer}}
	for _, epochs := range []int{6, 12} {
		cfg := fastCfg(quietPath(3), degrading)
		cfg.Epochs = epochs
		var m Meter
		if got := testing.AllocsPerRun(3, func() { mustRun(t, cfg, 1, &m) }); got != 6 {
			t.Errorf("%d epochs: a warm meter's Run allocates %.1f, want 6", epochs, got)
		}
	}
}

func TestSelectsCleanerPath(t *testing.T) {
	// Path 0 saturates its channel with a heavy contender; path 1 is
	// idle. Every policy should settle on path 1.
	busy := quietPath(11)
	busy.Contenders = []probe.Flow{{RateBps: 6e6, Size: 1500}}
	for _, pol := range []Policy{PolicyEMA, PolicyLast, PolicyUCB} {
		cfg := fastCfg(busy, quietPath(12))
		cfg.Policy = pol
		// Keep UCB's bonus from overriding a clear-cut gap.
		cfg.Explore = 1
		res := mustRun(t, cfg, 0, nil)
		last := res.Epochs[len(res.Epochs)-1]
		if last.Selected != 1 {
			t.Errorf("%s: final selection %d, want the idle path", pol, last.Selected)
		}
		if last.Meas[1].RateBps <= last.Meas[0].RateBps {
			t.Errorf("%s: idle path measured no faster: %+v", pol, last.Meas)
		}
	}
}

func TestFailoverUnderScheduledDegradation(t *testing.T) {
	// Path 0 starts clean and degrades hard at 1.5s (epoch 3 of the
	// 0.5s grid) via its schedule; path 1 carries light load, so it is
	// second-best before the event and best after.
	const degradeEpoch = 3
	fer := 0.7
	degrading := quietPath(21)
	degrading.Schedule = []mac.ScheduledEvent{
		{At: sim.Time(degradeEpoch) * 500 * sim.Millisecond, Target: 0, SetFER: &fer},
	}
	backup := quietPath(22)
	backup.Contenders = []probe.Flow{{RateBps: 5e5, Size: 1000}}
	cfg := fastCfg(degrading, backup)
	cfg.Epochs = 8
	cfg.Alpha = 0.6
	res := mustRun(t, cfg, 1, nil)

	if got := res.Epochs[0].Selected; got != 0 {
		t.Fatalf("selected %d before the degradation, want the clean path", got)
	}
	lag := res.SwitchLag(degradeEpoch - 1)
	if lag < 1 || lag > cfg.Epochs-degradeEpoch {
		t.Fatalf("failover lag %d epochs (selections %+v)", lag, selections(res))
	}
	if res.Epochs[len(res.Epochs)-1].Selected != 1 {
		t.Fatalf("never settled on the backup: %+v", selections(res))
	}
	if res.Switches == 0 {
		t.Fatal("no switch recorded")
	}
}

func selections(r *Result) []int {
	out := make([]int, len(r.Epochs))
	for i, ep := range r.Epochs {
		out[i] = ep.Selected
	}
	return out
}

func TestHysteresisBlocksFailover(t *testing.T) {
	// Same degradation as above, but with an absurd switch margin the
	// incumbent is never abandoned.
	fer := 0.7
	degrading := quietPath(21)
	degrading.Schedule = []mac.ScheduledEvent{
		{At: 1500 * sim.Millisecond, Target: 0, SetFER: &fer},
	}
	cfg := fastCfg(degrading, quietPath(22))
	cfg.Epochs = 8
	cfg.Hysteresis = 1e6
	res := mustRun(t, cfg, 1, nil)
	if res.Switches != 0 {
		t.Fatalf("switched %d times under an unreachable margin: %+v", res.Switches, selections(res))
	}
	for _, ep := range res.Epochs {
		if ep.Selected != res.Epochs[0].Selected {
			t.Fatalf("selection moved without a switch: %+v", selections(res))
		}
	}
}

// TestPinnedAccounting pins each epoch's accounting: the traffic rides
// last round's decision, delivers the routed path's measured rate, and
// never beats the per-epoch oracle.
func TestPinnedAccounting(t *testing.T) {
	fer := 0.7
	degrading := quietPath(31)
	degrading.Schedule = []mac.ScheduledEvent{
		{At: sim.Second, Target: 0, SetFER: &fer},
	}
	cfg := fastCfg(degrading, quietPath(32))
	cfg.Epochs = 6
	res := mustRun(t, cfg, 0, nil)
	prev := res.Epochs[0].Selected
	for k, ep := range res.Epochs {
		if ep.Routed != prev {
			t.Fatalf("epoch %d routed %d, want last round's decision %d", k, ep.Routed, prev)
		}
		prev = ep.Selected
		if want := ep.Meas[ep.Routed].RateBps; ep.DeliveredBps != want {
			t.Fatalf("epoch %d delivered %g, want the routed path's %g", k, ep.DeliveredBps, want)
		}
		if ep.RegretBps < 0 || ep.BestBps < ep.Meas[ep.Routed].RateBps {
			t.Fatalf("epoch %d oracle accounting %+v", k, ep)
		}
	}
	if res.MeanRegretBps < 0 {
		t.Fatalf("mean regret %g", res.MeanRegretBps)
	}
}

func TestScore(t *testing.T) {
	perfect := Score(Meas{})
	if perfect != 100 {
		t.Fatalf("perfect score %g", perfect)
	}
	if s := Score(Meas{Delay: 0.005}); s != 50 {
		t.Fatalf("delay at ref scored %g, want 50", s)
	}
	if s := Score(Meas{Loss: 1}); s != 0 {
		t.Fatalf("total loss scored %g, want 0", s)
	}
	worse := Score(Meas{Delay: 0.01, Jitter: 0.002, Loss: 0.1})
	better := Score(Meas{Delay: 0.002, Jitter: 0.001, Loss: 0.01})
	if !(worse < better && better < 100) {
		t.Fatalf("ordering: worse %g better %g", worse, better)
	}
}

func TestSwitchLag(t *testing.T) {
	r := &Result{Epochs: []Epoch{
		{Selected: 0}, {Selected: 0}, {Selected: 0}, {Selected: 1}, {Selected: 1},
	}}
	if got := r.SwitchLag(1); got != 2 {
		t.Fatalf("lag from 1: %d", got)
	}
	if got := r.SwitchLag(3); got != 2 { // censored: never moves off 1
		t.Fatalf("censored lag: %d", got)
	}
	if got := r.SwitchLag(-1); got != 0 {
		t.Fatalf("out of range: %d", got)
	}
	if got := r.SwitchLag(9); got != 0 {
		t.Fatalf("out of range: %d", got)
	}
}

func TestValidate(t *testing.T) {
	ok := fastCfg(quietPath(1), quietPath(2)).WithDefaults()
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no paths", func(c *Config) { c.Paths = nil }},
		{"bad path", func(c *Config) { c.Paths[0].ProbeSize = -1 }},
		{"bad path schedule", func(c *Config) {
			bad := -1.0
			c.Paths[0].Schedule = []mac.ScheduledEvent{{At: sim.Second, SetFER: &bad}}
		}},
		{"zero epochs", func(c *Config) { c.Epochs = 0 }},
		{"negative epoch seconds", func(c *Config) { c.EpochSeconds = -1 }},
		{"inf epoch seconds", func(c *Config) { c.EpochSeconds = math.Inf(1) }},
		{"short train", func(c *Config) { c.TrainLen = 1 }},
		{"bad rate", func(c *Config) { c.RateBps = math.NaN() }},
		{"bad policy", func(c *Config) { c.Policy = "greedy" }},
		{"alpha high", func(c *Config) { c.Alpha = 1.5 }},
		{"alpha NaN", func(c *Config) { c.Alpha = math.NaN() }},
		{"hysteresis", func(c *Config) { c.Hysteresis = -0.1 }},
		{"explore", func(c *Config) { c.Explore = math.Inf(1) }},
	}
	for _, tc := range cases {
		cfg := fastCfg(quietPath(1), quietPath(2)).WithDefaults()
		cfg.Paths = append([]probe.Link(nil), cfg.Paths...)
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if _, runErr := Run(cfg, 0, nil); runErr == nil {
			t.Errorf("%s: Run accepted what Validate rejected", tc.name)
		}
	}
}

func TestDefaults(t *testing.T) {
	cfg := Config{Paths: []probe.Link{quietPath(1)}, Epochs: 1}.WithDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("defaults do not validate: %v", err)
	}
	if cfg.Policy != PolicyEMA || cfg.TrainLen != 50 || cfg.Alpha != 0.3 {
		t.Fatalf("defaults %+v", cfg)
	}
}
