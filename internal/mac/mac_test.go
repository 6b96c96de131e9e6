package mac

import (
	"math"
	"testing"

	"csmabw/internal/phy"
	"csmabw/internal/sim"
	"csmabw/internal/traffic"
)

func b11() phy.Params { return phy.B11() }

func runOne(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSinglePacketIdleMedium(t *testing.T) {
	p := b11()
	// Packet arrives at 1ms onto a long-idle medium: immediate access —
	// the station senses DIFS of idle from the arrival, then transmits
	// with no backoff, so the access delay is exactly DIFS + airtime.
	arr := []traffic.Arrival{{At: sim.Millisecond, Size: 1500, Index: -1}}
	res := runOne(t, Config{Phy: p, Stations: []StationConfig{{Arrivals: arr}}, Seed: 1})
	if len(res.Frames[0]) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(res.Frames[0]))
	}
	f := res.Frames[0][0]
	if f.HOL != sim.Millisecond {
		t.Errorf("HOL = %v, want 1ms", f.HOL)
	}
	if got, want := f.Departed, sim.Millisecond+p.DIFS+p.DataTxTime(1500); got != want {
		t.Errorf("Departed = %v, want %v (immediate access)", got, want)
	}
	if f.AccessDelay() != p.DIFS+p.DataTxTime(1500) {
		t.Errorf("access delay = %v, want DIFS+airtime %v", f.AccessDelay(), p.DIFS+p.DataTxTime(1500))
	}
	if f.Retries != 0 {
		t.Errorf("retries = %d, want 0", f.Retries)
	}
}

func TestPacketAtTimeZeroSensesDIFS(t *testing.T) {
	p := b11()
	// At t=0 the station must still sense DIFS idle (and, arriving at the
	// exact simulation origin, performs a backoff draw). Departure is at
	// least DIFS + airtime.
	arr := []traffic.Arrival{{At: 0, Size: 1500, Index: -1}}
	res := runOne(t, Config{Phy: p, Stations: []StationConfig{{Arrivals: arr}}, Seed: 2})
	f := res.Frames[0][0]
	if f.Departed < p.DIFS+p.DataTxTime(1500) {
		t.Errorf("departed %v before DIFS+airtime", f.Departed)
	}
	maxBackoff := sim.Time(p.CWMin) * p.Slot
	if f.Departed > p.DIFS+maxBackoff+p.DataTxTime(1500) {
		t.Errorf("departed %v after max initial backoff window", f.Departed)
	}
}

func TestBackToBackPacketsBackoff(t *testing.T) {
	p := b11()
	// Two packets queued together: the second must wait the full
	// exchange, then DIFS + a drawn backoff (post-success backoff is
	// mandatory; no immediate access for queued frames).
	arr := []traffic.Arrival{
		{At: sim.Millisecond, Size: 1500, Index: -1},
		{At: sim.Millisecond, Size: 1500, Index: -1},
	}
	res := runOne(t, Config{Phy: p, Stations: []StationConfig{{Arrivals: arr}}, Seed: 3})
	if len(res.Frames[0]) != 2 {
		t.Fatalf("delivered %d", len(res.Frames[0]))
	}
	f0, f1 := res.Frames[0][0], res.Frames[0][1]
	exchEnd := f0.Departed + p.SIFS + p.ACKTxTime()
	if f1.HOL != exchEnd {
		t.Errorf("second HOL = %v, want end of first exchange %v", f1.HOL, exchEnd)
	}
	gap := f1.Departed - exchEnd
	minGap := p.DIFS + p.DataTxTime(1500)
	maxGap := p.DIFS + sim.Time(p.CWMin)*p.Slot + p.DataTxTime(1500)
	if gap < minGap || gap > maxGap {
		t.Errorf("second departure gap %v outside [%v, %v]", gap, minGap, maxGap)
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	arr := traffic.Merge(
		traffic.Train(20, 50*sim.Microsecond, 1000, sim.Millisecond),
		traffic.Poisson(sim.NewRand(5), 2e6, 500, 0, 20*sim.Millisecond),
	)
	res := runOne(t, Config{Phy: b11(), Stations: []StationConfig{{Arrivals: arr}}, Seed: 4})
	fs := res.Frames[0]
	for i := 1; i < len(fs); i++ {
		if fs[i].Arrived < fs[i-1].Arrived {
			t.Fatalf("FIFO violated: frame %d arrived %v after frame %d arrived %v",
				i, fs[i].Arrived, i-1, fs[i-1].Arrived)
		}
		if fs[i].Departed <= fs[i-1].Departed {
			t.Fatalf("departures not increasing at %d", i)
		}
	}
}

func TestDelaysNonNegativeAndBounded(t *testing.T) {
	p := b11()
	arr := traffic.Merge(
		traffic.TrainAtRate(100, 5e6, 1500, sim.Second),
		traffic.Poisson(sim.NewRand(6), 3e6, 1500, 0, 2*sim.Second),
	)
	cross := traffic.Poisson(sim.NewRand(7), 4e6, 1500, 0, 2*sim.Second)
	res := runOne(t, Config{
		Phy:      p,
		Stations: []StationConfig{{Arrivals: arr}, {Arrivals: cross}},
		Seed:     8,
	})
	for s := range res.Frames {
		for _, f := range res.Frames[s] {
			if f.QueueDelay() < 0 {
				t.Fatalf("negative queue delay %v", f.QueueDelay())
			}
			if f.AccessDelay() < p.DataTxTime(f.Size) {
				t.Fatalf("access delay %v below airtime %v", f.AccessDelay(), p.DataTxTime(f.Size))
			}
			if f.TotalDelay() != f.QueueDelay()+f.AccessDelay() {
				t.Fatal("Z != queue + access decomposition broken")
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *Result {
		arr := traffic.Merge(
			traffic.TrainAtRate(200, 6e6, 1500, sim.Second),
			traffic.Poisson(sim.NewRand(9), 2e6, 1000, 0, 3*sim.Second),
		)
		cross := traffic.Poisson(sim.NewRand(10), 3e6, 1500, 0, 3*sim.Second)
		res, err := Run(Config{
			Phy:      b11(),
			Stations: []StationConfig{{Arrivals: arr}, {Arrivals: cross}},
			Seed:     42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	for s := range a.Frames {
		if len(a.Frames[s]) != len(b.Frames[s]) {
			t.Fatalf("station %d delivered %d vs %d", s, len(a.Frames[s]), len(b.Frames[s]))
		}
		for i := range a.Frames[s] {
			if a.Frames[s][i].Departed != b.Frames[s][i].Departed {
				t.Fatalf("departure %d differs between identical runs", i)
			}
		}
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	mk := func(seed int64) sim.Time {
		arr := traffic.TrainAtRate(50, 8e6, 1500, sim.Millisecond)
		cross := traffic.Poisson(sim.NewRand(11), 4e6, 1500, 0, sim.Second)
		res, err := Run(Config{
			Phy:      b11(),
			Stations: []StationConfig{{Arrivals: arr}, {Arrivals: cross}},
			Seed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		fs := res.Frames[0]
		return fs[len(fs)-1].Departed
	}
	if mk(1) == mk(2) {
		t.Error("different seeds produced identical last departures (suspicious)")
	}
}

func TestSaturationThroughputNearCapacity(t *testing.T) {
	p := b11()
	// One station offered far more than the channel carries: delivered
	// rate should approach MaxThroughput.
	arr := traffic.CBR(20e6, 1500, 0, 2*sim.Second)
	res := runOne(t, Config{
		Phy: p, Stations: []StationConfig{{Arrivals: arr}},
		Seed: 12, Horizon: 2 * sim.Second,
	})
	got := res.Throughput(0, 0, 2*sim.Second)
	want := p.MaxThroughput(1500)
	if math.Abs(got-want) > 0.05*want {
		t.Errorf("saturation throughput %.2f Mb/s, want ~%.2f", got/1e6, want/1e6)
	}
}

func TestTwoSaturatedStationsShareFairly(t *testing.T) {
	p := b11()
	mk := func(seed int64) []traffic.Arrival { return traffic.CBR(20e6, 1500, 0, 4*sim.Second) }
	res := runOne(t, Config{
		Phy:      p,
		Stations: []StationConfig{{Arrivals: mk(1)}, {Arrivals: mk(2)}},
		Seed:     13, Horizon: 4 * sim.Second,
	})
	t0 := res.Throughput(0, sim.Second, 4*sim.Second)
	t1 := res.Throughput(1, sim.Second, 4*sim.Second)
	if math.Abs(t0-t1) > 0.1*(t0+t1)/2 {
		t.Errorf("unfair split: %.2f vs %.2f Mb/s", t0/1e6, t1/1e6)
	}
	// Aggregate stays in the neighbourhood of single-station capacity.
	// (It can slightly exceed it: with two contenders the idle time before
	// the first backoff expiry is the min of two draws, which more than
	// compensates the moderate collision loss at n=2.)
	agg := t0 + t1
	c := p.MaxThroughput(1500)
	if agg > c*1.15 {
		t.Errorf("aggregate %.2f Mb/s implausibly above capacity %.2f", agg/1e6, c/1e6)
	}
	if agg < 0.7*c {
		t.Errorf("aggregate %.2f Mb/s implausibly low vs capacity %.2f", agg/1e6, c/1e6)
	}
}

func TestCollisionsHappenUnderContention(t *testing.T) {
	res := runOne(t, Config{
		Phy: b11(),
		Stations: []StationConfig{
			{Arrivals: traffic.CBR(20e6, 1500, 0, sim.Second)},
			{Arrivals: traffic.CBR(20e6, 1500, 0, sim.Second)},
			{Arrivals: traffic.CBR(20e6, 1500, 0, sim.Second)},
		},
		Seed: 14, Horizon: sim.Second,
	})
	totalColl := 0
	for _, st := range res.Stats {
		totalColl += st.Collisions
	}
	if totalColl == 0 {
		t.Error("three saturated stations produced zero collisions")
	}
	for s, st := range res.Stats {
		if st.Attempts < st.Delivered {
			t.Errorf("station %d: attempts %d < delivered %d", s, st.Attempts, st.Delivered)
		}
	}
}

func TestRetriesRecorded(t *testing.T) {
	res := runOne(t, Config{
		Phy: b11(),
		Stations: []StationConfig{
			{Arrivals: traffic.CBR(20e6, 1500, 0, sim.Second)},
			{Arrivals: traffic.CBR(20e6, 1500, 0, sim.Second)},
		},
		Seed: 15, Horizon: sim.Second,
	})
	any := false
	for _, f := range res.Frames[0] {
		if f.Retries > 0 {
			any = true
		}
		if f.Retries >= b11().RetryLimit {
			t.Errorf("delivered frame with retries %d >= limit", f.Retries)
		}
	}
	if !any {
		t.Error("no delivered frame ever retried under saturation (suspicious)")
	}
}

func TestConservation(t *testing.T) {
	// Everything offered is eventually delivered or dropped when the
	// horizon is unbounded.
	arr := traffic.Poisson(sim.NewRand(16), 3e6, 1500, 0, sim.Second)
	cross := traffic.Poisson(sim.NewRand(17), 3e6, 1000, 0, sim.Second)
	res := runOne(t, Config{
		Phy:      b11(),
		Stations: []StationConfig{{Arrivals: arr}, {Arrivals: cross}},
		Seed:     18,
	})
	if got, want := res.Stats[0].Delivered+res.Stats[0].Dropped, len(arr); got != want {
		t.Errorf("station 0 accounted %d, offered %d", got, want)
	}
	if got, want := res.Stats[1].Delivered+res.Stats[1].Dropped, len(cross); got != want {
		t.Errorf("station 1 accounted %d, offered %d", got, want)
	}
}

func TestHorizonStopsRun(t *testing.T) {
	arr := traffic.CBR(1e6, 1500, 0, 10*sim.Second)
	res := runOne(t, Config{
		Phy: b11(), Stations: []StationConfig{{Arrivals: arr}},
		Seed: 19, Horizon: 100 * sim.Millisecond,
	})
	if res.End > 101*sim.Millisecond {
		t.Errorf("run ended at %v, horizon 100ms", res.End)
	}
	for _, f := range res.Frames[0] {
		if f.Departed > 101*sim.Millisecond {
			t.Errorf("frame departed %v beyond horizon", f.Departed)
		}
	}
}

func TestProbeFramesExtraction(t *testing.T) {
	arr := traffic.Merge(
		traffic.Train(10, 2*sim.Millisecond, 1500, 5*sim.Millisecond),
		traffic.Poisson(sim.NewRand(20), 1e6, 500, 0, 50*sim.Millisecond),
	)
	res := runOne(t, Config{Phy: b11(), Stations: []StationConfig{{Arrivals: arr}}, Seed: 21})
	probes := res.ProbeFrames(0)
	if len(probes) != 10 {
		t.Fatalf("got %d probes, want 10", len(probes))
	}
	for i, f := range probes {
		if f.Index != i {
			t.Fatalf("probe %d has index %d", i, f.Index)
		}
	}
}

func TestOnDepartHookAndQueueLen(t *testing.T) {
	var samples []int
	var hookTimes []sim.Time
	arr := traffic.Train(5, sim.Millisecond, 1500, sim.Millisecond)
	cross := traffic.Poisson(sim.NewRand(22), 5e6, 1500, 0, 20*sim.Millisecond)
	cfg := Config{
		Phy:      b11(),
		Stations: []StationConfig{{Arrivals: arr}, {Arrivals: cross}},
		Seed:     23,
		OnDepart: nil,
	}
	cfg.OnDepart = func(e *Engine, f *Frame) {
		if f.Probe {
			samples = append(samples, e.QueueLen(1))
			hookTimes = append(hookTimes, e.Now())
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	if len(samples) != 5 {
		t.Fatalf("hook fired %d times for probes, want 5", len(samples))
	}
	for i, q := range samples {
		if q < 0 {
			t.Fatalf("negative queue length %d at sample %d", q, i)
		}
	}
	for i := 1; i < len(hookTimes); i++ {
		if hookTimes[i] <= hookTimes[i-1] {
			t.Fatal("hook times not increasing")
		}
	}
}

func TestAccessDelayGrowsWithContention(t *testing.T) {
	// Mean probe access delay with a contender should exceed the
	// uncontended one.
	probe := traffic.TrainAtRate(300, 3e6, 1500, sim.Second)
	mean := func(withCross bool, seed int64) float64 {
		st := []StationConfig{{Arrivals: probe}}
		if withCross {
			st = append(st, StationConfig{
				Arrivals: traffic.Poisson(sim.NewRand(seed), 4e6, 1500, 0, 4*sim.Second)})
		}
		res, err := Run(Config{Phy: b11(), Stations: st, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		fs := res.ProbeFrames(0)
		for _, f := range fs {
			sum += f.AccessDelay().Seconds()
		}
		return sum / float64(len(fs))
	}
	free := mean(false, 30)
	contended := mean(true, 31)
	if contended <= free {
		t.Errorf("contended mean access delay %.6f <= uncontended %.6f", contended, free)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Phy: b11()}); err == nil {
		t.Error("no stations should be rejected")
	}
	bad := b11()
	bad.Slot = 0
	if _, err := Run(Config{Phy: bad, Stations: []StationConfig{{}}}); err == nil {
		t.Error("invalid PHY should be rejected")
	}
	unordered := []traffic.Arrival{{At: 5, Size: 1}, {At: 1, Size: 1}}
	if _, err := Run(Config{Phy: b11(), Stations: []StationConfig{{Arrivals: unordered}}}); err == nil {
		t.Error("unordered arrivals should be rejected")
	}
}

func TestEmptyScheduleRuns(t *testing.T) {
	res := runOne(t, Config{Phy: b11(), Stations: []StationConfig{{}}, Seed: 1})
	if len(res.Frames[0]) != 0 || res.Stats[0].Delivered != 0 {
		t.Error("empty schedule should deliver nothing")
	}
}

func TestThroughputWindowEdges(t *testing.T) {
	res := runOne(t, Config{
		Phy:      b11(),
		Stations: []StationConfig{{Arrivals: traffic.CBR(2e6, 1500, 0, sim.Second)}},
		Seed:     25,
	})
	if res.Throughput(0, sim.Second, sim.Second) != 0 {
		t.Error("zero-length window should report zero throughput")
	}
	if res.Throughput(0, 2*sim.Second, sim.Second) != 0 {
		t.Error("inverted window should report zero throughput")
	}
}

func TestImmediateAccessAcceleratesFirstPacket(t *testing.T) {
	// The paper's transient mechanism: a probe packet arriving to an idle
	// station skips backoff, so the first packet's access delay is close
	// to pure airtime even under moderate cross load. Compare the first
	// packet of many replications against the airtime: a large fraction
	// should be exactly airtime (found the channel idle).
	p := b11()
	exact := 0
	const reps = 100
	for rep := 0; rep < reps; rep++ {
		cross := traffic.Poisson(sim.NewRand(int64(rep)), 2e6, 1500, 0, 2*sim.Second)
		probe := traffic.TrainAtRate(3, 5e6, 1500, sim.Second)
		res, err := Run(Config{
			Phy:      p,
			Stations: []StationConfig{{Arrivals: probe}, {Arrivals: cross}},
			Seed:     int64(1000 + rep),
		})
		if err != nil {
			t.Fatal(err)
		}
		probes := res.ProbeFrames(0)
		if len(probes) == 0 {
			continue
		}
		if probes[0].AccessDelay() == p.DIFS+p.DataTxTime(1500) {
			exact++
		}
	}
	if exact < reps/4 {
		t.Errorf("only %d/%d first packets got immediate access at 2Mb/s cross load", exact, reps)
	}
}

func TestEventKindString(t *testing.T) {
	names := map[EventKind]string{
		EvTxStart:    "txstart",
		EvSuccess:    "success",
		EvCollision:  "collision",
		EvDrop:       "drop",
		EventKind(0): "unknown",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}
