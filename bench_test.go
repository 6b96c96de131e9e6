package csmabw

// The benchmark harness: one benchmark per figure of the paper's
// evaluation (there are no numbered tables), each regenerating the
// figure's series at a reduced but statistically meaningful scale and
// reporting the headline quantities as custom metrics; plus ablation
// benchmarks for modelling choices the paper leaves open (ACK rate,
// footnote 2's KS interpolation, MSER batch size, post-backoff).
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Figure benchmarks run on the shared replication engine (all cores;
// see BenchmarkRunnerScaling for the worker sweep) and record their
// wall time into BENCH_runner.json so later changes can track the perf
// trajectory; the file is only written when figure benchmarks ran.
//
// Absolute values differ from the paper's testbed, but each metric's
// *shape* relationship (who wins, where curves bend) must match; the
// assertions encoding those relationships live in integration_test.go.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"csmabw/internal/campaign"
	"csmabw/internal/experiments"
	"csmabw/internal/mac"
	"csmabw/internal/phy"
	"csmabw/internal/probe"
	"csmabw/internal/runner"
	"csmabw/internal/sim"
	"csmabw/internal/stats"
	"csmabw/internal/traffic"
)

// benchScale keeps each iteration around a second while preserving the
// curve shapes. Workers 0 = the full worker pool.
func benchScale() experiments.Scale {
	return experiments.Scale{Reps: 60, SweepPoints: 10, SteadySeconds: 1}
}

// benchRecord is one figure benchmark's telemetry in BENCH_runner.json.
type benchRecord struct {
	// WallSeconds is the mean wall-clock time of one figure generation.
	WallSeconds float64 `json:"wall_seconds"`
	// Replications is the scale's per-point replication count.
	Replications int `json:"replications"`
	// ReplicationsPerSec is Replications divided by WallSeconds — the
	// replication engine's effective throughput on this figure.
	ReplicationsPerSec float64 `json:"replications_per_sec"`
	// Workers is the resolved worker-pool size the benchmark ran with.
	Workers int `json:"workers"`
	// AllocsPerReplication is the mean heap allocations (mallocs) per
	// replication of the figure — the quantity per-worker engine reuse
	// drives toward zero, and the one scripts/benchguard's alloc gate
	// watches.
	AllocsPerReplication float64 `json:"allocs_per_replication"`
	// Gomaxprocs records the parallelism available when the benchmark
	// ran, so the scaling gate can tell "batching regressed" apart from
	// "the machine had one core".
	Gomaxprocs int `json:"gomaxprocs"`
}

var (
	benchMu      sync.Mutex
	benchRecords = map[string]benchRecord{}
)

// mallocs snapshots the process-wide cumulative malloc count; the delta
// across a benchmark loop, divided by the replications executed, is the
// allocs-per-replication telemetry. Figure benchmarks run serially, so
// the process-wide counter is attributable to the figure being timed.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func recordBench(id string, total time.Duration, iters int, sc experiments.Scale, allocs uint64) {
	wall := total.Seconds() / float64(iters)
	rec := benchRecord{
		WallSeconds:  wall,
		Replications: sc.Reps,
		Workers:      runner.Workers(sc.Workers),
		Gomaxprocs:   runtime.GOMAXPROCS(0),
	}
	if wall > 0 {
		rec.ReplicationsPerSec = float64(sc.Reps) / wall
	}
	if reps := iters * sc.Reps; reps > 0 {
		rec.AllocsPerReplication = float64(allocs) / float64(reps)
	}
	benchMu.Lock()
	benchRecords[id] = rec
	benchMu.Unlock()
}

// writeBenchJSON dumps the recorded figure timings, keyed by figure id,
// so later PRs can diff the perf trajectory machine-readably.
func writeBenchJSON() {
	benchMu.Lock()
	defer benchMu.Unlock()
	if len(benchRecords) == 0 {
		return
	}
	// MarshalIndent sorts map keys, so the file is stable across runs.
	b, err := json.MarshalIndent(benchRecords, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "BENCH_runner.json: %v\n", err)
		return
	}
	if err := os.WriteFile("BENCH_runner.json", append(b, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "BENCH_runner.json: %v\n", err)
	}
}

func TestMain(m *testing.M) {
	code := m.Run()
	writeBenchJSON()
	os.Exit(code)
}

// benchFigure runs a driver b.N times at bench scale, records its wall
// time under id, and returns the last figure.
func benchFigure(b *testing.B, id string, run experiments.Driver) *experiments.Figure {
	b.Helper()
	sc := benchScale()
	var fig *experiments.Figure
	var err error
	m0 := mallocs()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		fig, err = run(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	recordBench(id, elapsed, b.N, sc, mallocs()-m0)
	return fig
}

func runFigure(b *testing.B, id string) *experiments.Figure {
	b.Helper()
	run, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	return benchFigure(b, id, run)
}

// maxY returns the maximum Y of a series.
func maxY(s experiments.Series) float64 {
	m := 0.0
	for _, y := range s.Y {
		if y > m {
			m = y
		}
	}
	return m
}

func BenchmarkFig1SteadyStateRRC(b *testing.B) {
	fig := runFigure(b, "fig01")
	// Headline: the plateau of the probe curve is the achievable
	// throughput B (paper: ~3.4 Mb/s at 11 Mb/s PHY).
	b.ReportMetric(maxY(fig.Series[0]), "B_Mbps")
}

func BenchmarkFig4CompleteRRC(b *testing.B) {
	fig := runFigure(b, "fig04")
	b.ReportMetric(maxY(fig.Series[0]), "probe_peak_Mbps")
	fifo := fig.Series[2]
	b.ReportMetric(fifo.Y[0]-fifo.Y[len(fifo.Y)-1], "fifo_loss_Mbps")
}

func BenchmarkFig6MeanAccessDelay(b *testing.B) {
	fig := runFigure(b, "fig06")
	s := fig.Series[0]
	// Transient magnitude: late-mean minus first-packet mean (ms).
	b.ReportMetric(s.Y[len(s.Y)-1]-s.Y[0], "transient_ms")
}

func BenchmarkFig7Histograms(b *testing.B) {
	fig := runFigure(b, "fig07")
	// Distribution shift: distance between the two histogram modes (ms).
	s1, s2 := fig.Series[0], fig.Series[1]
	mode := func(s experiments.Series) float64 {
		best, bx := -1.0, 0.0
		for i, y := range s.Y {
			if y > best {
				best, bx = y, s.X[i]
			}
		}
		return bx
	}
	b.ReportMetric(mode(s2)-mode(s1), "mode_shift_ms")
}

func BenchmarkFig8KSQueue(b *testing.B) {
	fig := runFigure(b, "fig08")
	ks := fig.Series[0]
	b.ReportMetric(ks.Y[0], "KS_first_packet")
	b.ReportMetric(ks.Y[len(ks.Y)-1], "KS_late_packet")
}

func BenchmarkFig9KSComplex(b *testing.B) {
	fig := runFigure(b, "fig09")
	ks := fig.Series[0]
	b.ReportMetric(ks.Y[0], "KS_first_packet")
}

func BenchmarkFig10TransientDuration(b *testing.B) {
	// Fig 10 is the heaviest sweep; trim it for benching.
	p := experiments.DefaultFig10()
	p.CrossLoads = []float64{0.2, 0.5, 0.8, 1.0}
	p.TrainLen = 300
	fig := benchFigure(b, "fig10", func(sc experiments.Scale) (*experiments.Figure, error) {
		return experiments.Fig10TransientDuration(p, sc)
	})
	tol01 := fig.Series[0]
	b.ReportMetric(maxY(tol01), "max_transient_pkts_tol0.1")
}

func BenchmarkFig13ShortTrains(b *testing.B) {
	fig := runFigure(b, "fig13")
	// Overestimation of the 3-packet train at the top rate vs steady.
	steady, t3 := fig.Series[0], fig.Series[1]
	b.ReportMetric(t3.Y[len(t3.Y)-1]-steady.Y[len(steady.Y)-1], "train3_excess_Mbps")
}

func BenchmarkFig15ShortTrainsFIFO(b *testing.B) {
	fig := runFigure(b, "fig15")
	steady, t3 := fig.Series[0], fig.Series[1]
	b.ReportMetric(t3.Y[len(t3.Y)-1]-steady.Y[len(steady.Y)-1], "train3_excess_Mbps")
}

func BenchmarkFig16PacketPair(b *testing.B) {
	p := experiments.DefaultFig16()
	p.CrossRates = []float64{0, 2e6, 4e6, 6e6, 8e6}
	fig := benchFigure(b, "fig16", func(sc experiments.Scale) (*experiments.Figure, error) {
		return experiments.Fig16PacketPair(p, sc)
	})
	fluid, pair := fig.Series[0], fig.Series[1]
	// Mean overestimation across the sweep.
	sum := 0.0
	for i := range fluid.Y {
		sum += pair.Y[i] - fluid.Y[i]
	}
	b.ReportMetric(sum/float64(len(fluid.Y)), "pair_mean_excess_Mbps")
}

func BenchmarkFig17MSER(b *testing.B) {
	fig := runFigure(b, "fig17")
	steady, raw, corr := fig.Series[0], fig.Series[1], fig.Series[2]
	rawErr, corrErr := 0.0, 0.0
	for i := range steady.Y {
		d1 := raw.Y[i] - steady.Y[i]
		d2 := corr.Y[i] - steady.Y[i]
		if d1 < 0 {
			d1 = -d1
		}
		if d2 < 0 {
			d2 = -d2
		}
		rawErr += d1
		corrErr += d2
	}
	n := float64(len(steady.Y))
	b.ReportMetric(rawErr/n, "raw_mean_abs_err_Mbps")
	b.ReportMetric(corrErr/n, "mser_mean_abs_err_Mbps")
}

func BenchmarkFERRateResponse(b *testing.B) {
	fig := runFigure(b, "fer-rrc")
	// Headline: loss cost at the plateau — clean-channel peak minus the
	// 5% FER peak.
	b.ReportMetric(maxY(fig.Series[0])-maxY(fig.Series[len(fig.Series)-1]), "fer5_plateau_loss_Mbps")
}

func BenchmarkFERTransient(b *testing.B) {
	fig := runFigure(b, "fer-transient")
	clean, lossy := fig.Series[0], fig.Series[len(fig.Series)-1]
	// Headline: how much 5% FER raises the steady mean access delay,
	// averaged over the last quarter of the packet indices to damp
	// per-index noise at bench scale.
	tail := func(s experiments.Series) float64 {
		n := len(s.Y) / 4
		if n == 0 {
			n = 1
		}
		sum := 0.0
		for _, y := range s.Y[len(s.Y)-n:] {
			sum += y
		}
		return sum / float64(n)
	}
	b.ReportMetric(tail(lossy)-tail(clean), "fer5_delay_penalty_ms")
}

func BenchmarkHiddenTerminal(b *testing.B) {
	fig := runFigure(b, "hidden")
	mesh, hidden, rts := fig.Series[0], fig.Series[1], fig.Series[2]
	last := len(mesh.Y) - 1
	// Headlines: the hidden-terminal collapse at the top of the sweep
	// and the share RTS/CTS recovers.
	b.ReportMetric(mesh.Y[last]-hidden.Y[last], "hidden_collapse_Mbps")
	b.ReportMetric(rts.Y[last]-hidden.Y[last], "rts_recovery_Mbps")
}

func BenchmarkEDCATransient(b *testing.B) {
	fig := runFigure(b, "edca-transient")
	// Headline: the priority spread — how much higher the background
	// category's late-train mean access delay sits above voice's,
	// averaged over the last quarter of packet indices.
	tail := func(s experiments.Series) float64 {
		n := len(s.Y) / 4
		if n == 0 {
			n = 1
		}
		sum := 0.0
		for _, y := range s.Y[len(s.Y)-n:] {
			sum += y
		}
		return sum / float64(n)
	}
	series := func(name string) experiments.Series {
		for _, s := range fig.Series {
			if s.Name == name {
				return s
			}
		}
		b.Fatalf("no series %q in %s", name, fig.ID)
		return experiments.Series{}
	}
	vo, bk := series("probe AC_VO"), series("probe AC_BK")
	b.ReportMetric(tail(bk)-tail(vo), "bk_vs_vo_delay_ms")
}

func BenchmarkRateAnomaly(b *testing.B) {
	fig := runFigure(b, "rate-anomaly")
	train, steady := fig.Series[0], fig.Series[1]
	last := len(train.Y) - 1
	// Headlines: the anomaly itself (how far the 1 Mb/s contender drags
	// the probe's carried share below the homogeneous cell's) and the
	// dispersion bias at the slow end (train estimate minus reality).
	b.ReportMetric(steady.Y[0]-steady.Y[last], "anomaly_drag_Mbps")
	b.ReportMetric(train.Y[last]-steady.Y[last], "slow_train_bias_Mbps")
}

// BenchmarkFig6TimeVarying re-runs the Figure 6 transient on a channel
// that degrades mid-window: a scheduled FER step hits every station
// 100ms after the warm-up, inside the per-packet range the figure
// shows. The telemetry entry tracks what the structured-event path
// costs on the hottest transient workload — its reps/sec should stay
// in the same band as the static fig06 entry, since an armed schedule
// only adds timer events at the instants it names.
func BenchmarkFig6TimeVarying(b *testing.B) {
	p := experiments.DefaultFig6()
	fer := 0.2
	base := probe.Link{
		ProbeSize:  p.PacketSize,
		Contenders: p.Contenders,
		Seed:       p.Seed,
		Schedule: []mac.ScheduledEvent{{
			At:     600 * sim.Millisecond, // default 500ms warm-up + 100ms
			Target: -1,
			SetFER: &fer,
		}},
	}
	p.Base = &base
	fig := benchFigure(b, "fig06-timevarying", func(sc experiments.Scale) (*experiments.Figure, error) {
		return experiments.Fig6MeanAccessDelay(p, sc, 150)
	})
	s := fig.Series[0]
	// Headline: the fade's delay penalty — late-mean (under FER 20%)
	// minus first-packet mean, which folds the transient acceleration
	// and the scheduled degradation into one number.
	b.ReportMetric(s.Y[len(s.Y)-1]-s.Y[0], "faded_transient_ms")
}

// BenchmarkPathSelection generates the selection-regret figure: every
// epoch the path-selection harness probes all three candidate upstreams
// with short trains (schedules rebased per epoch), scores them, and
// routes by policy. The telemetry entry's replications_per_sec counts
// figure replications, each of which is Epochs x Paths train
// measurements — the densest consumer of the time-varying machinery.
func BenchmarkPathSelection(b *testing.B) {
	fig := runFigure(b, "selection-regret")
	p := experiments.DefaultPathsel()
	ema := seriesByName(b, fig, "ema")
	last := seriesByName(b, fig, "last")
	n := len(ema.Y)
	// Headlines: the cumulative regret the mid-run collapse inflicts on
	// the smoothed policy, and how much of it memorylessness avoids —
	// the act-then-measure floor every policy pays is the gap between
	// the two.
	b.ReportMetric(ema.Y[n-1]-ema.Y[p.DegradeEpoch-1], "ema_collapse_regret_Mbps_epochs")
	b.ReportMetric((ema.Y[n-1]-ema.Y[p.DegradeEpoch-1])-(last.Y[n-1]-last.Y[p.DegradeEpoch-1]), "ema_vs_last_excess_Mbps_epochs")
}

// BenchmarkRunnerScaling sweeps the replication engine's worker count
// on two registry workloads: the Fig. 6 transient (exactly the fig06
// registry entry's parameters, so `fig06` and `fig06-scaling-workers1`
// in BENCH_runner.json measure the same work and are directly
// comparable) and the heavier Fig. 9 four-contender KS run. On an
// N-core machine (N >= the worker count) the sweep should scale close
// to linearly now that workers claim replications in batches and reuse
// one engine each; the figure output is byte-identical at every worker
// count. scripts/benchguard turns the workers=8-vs-1 ratio into a CI
// gate, capped by the recorded gomaxprocs so single-core machines
// only assert "parallelism is not slower".
func BenchmarkRunnerScaling(b *testing.B) {
	sweep := func(b *testing.B, id string, run experiments.Driver) {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", id, w), func(b *testing.B) {
				sc := benchScale()
				sc.Workers = w
				m0 := mallocs()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					if _, err := run(sc); err != nil {
						b.Fatal(err)
					}
				}
				elapsed := time.Since(start)
				recordBench(fmt.Sprintf("%s-scaling-workers%d", id, w), elapsed, b.N, sc, mallocs()-m0)
			})
		}
	}
	fig06, err := experiments.Lookup("fig06")
	if err != nil {
		b.Fatal(err)
	}
	fig09, err := experiments.Lookup("fig09")
	if err != nil {
		b.Fatal(err)
	}
	sweep(b, "fig06", fig06)
	sweep(b, "fig09", fig09)
}

// --- Ablation benches: modelling choices the paper leaves open ---

// BenchmarkAblationAckRate compares link capacity with ACKs at the
// basic rate (standard) vs at the data rate.
func BenchmarkAblationAckRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		std := phy.B11()
		fast := phy.B11()
		fast.ACKAtDataRate = true
		b.ReportMetric(std.MaxThroughput(1500)/1e6, "C_basicACK_Mbps")
		b.ReportMetric(fast.MaxThroughput(1500)/1e6, "C_dataACK_Mbps")
	}
}

// BenchmarkAblationKSInterp compares the per-packet KS series with and
// without the paper's footnote-2 ECDF interpolation.
func BenchmarkAblationKSInterp(b *testing.B) {
	p := experiments.DefaultFig8()
	p.TrainLen = 200
	sc := benchScale()
	var dInterp, dStep float64
	for i := 0; i < b.N; i++ {
		opt := experiments.DefaultKSOptions(p.TrainLen)
		opt.Packets = 10
		fig, err := experiments.FigKS("ks", p, sc, opt)
		if err != nil {
			b.Fatal(err)
		}
		dInterp = fig.Series[0].Y[0]
		opt.Interpolate = false
		fig, err = experiments.FigKS("ks", p, sc, opt)
		if err != nil {
			b.Fatal(err)
		}
		dStep = fig.Series[0].Y[0]
	}
	b.ReportMetric(dInterp, "KS_first_interp")
	b.ReportMetric(dStep, "KS_first_step")
}

// BenchmarkAblationMSERBatch sweeps the MSER batch size m in {1,2,5}.
func BenchmarkAblationMSERBatch(b *testing.B) {
	l := probe.Link{
		Contenders: []probe.Flow{{RateBps: 4e6, Size: 1500}},
		Seed:       99,
	}
	for i := 0; i < b.N; i++ {
		ts, err := probe.MeasureTrain(l, 20, 8e6, 60)
		if err != nil {
			b.Fatal(err)
		}
		rows := ts.InterDepartureGaps()
		meanGaps := stats.RunningMeans(rows)
		for _, m := range []int{1, 2, 5} {
			cut := stats.MSERm(meanGaps, m)
			b.ReportMetric(float64(cut.Cut), "cut_m"+string(rune('0'+m)))
		}
	}
}

// BenchmarkAblationPostBackoff quantifies the transient's mechanism:
// with 802.11 immediate access (standard) the first probe packet is
// accelerated; with the ablation switch every packet draws a backoff
// and the first-vs-late access-delay difference shrinks.
func BenchmarkAblationPostBackoff(b *testing.B) {
	// instantFrac is the fraction of first probe packets whose access
	// delay equals the pure data airtime — i.e. that found the channel
	// idle and transmitted with zero backoff. Immediate access makes
	// this common; the ablation makes it (nearly) impossible.
	instantFrac := func(disable bool) float64 {
		airtime := phy.B11().DIFS + phy.B11().DataTxTime(1500)
		const reps = 150
		hits, err := runner.Map(reps, 0, func(rep int) (int, error) {
			r := sim.NewRand(int64(rep))
			cfg := mac.Config{
				Phy:                    phy.B11(),
				Seed:                   int64(3000 + rep),
				DisableImmediateAccess: disable,
				Stations: []mac.StationConfig{
					{Arrivals: traffic.TrainAtRate(5, 5e6, 1500, sim.Second)},
					{Arrivals: traffic.Poisson(r, 4e6, 1500, 0, 2*sim.Second)},
				},
			}
			res, err := mac.Run(cfg)
			if err != nil {
				return 0, err
			}
			ps := res.ProbeFrames(0)
			if len(ps) > 0 && ps[0].AccessDelay() == airtime {
				return 1, nil
			}
			return 0, nil
		})
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for _, h := range hits {
			total += h
		}
		return float64(total) / reps
	}
	var std, abl float64
	for i := 0; i < b.N; i++ {
		std = instantFrac(false)
		abl = instantFrac(true)
	}
	b.ReportMetric(std, "instant_frac_std")
	b.ReportMetric(abl, "instant_frac_noIA")
}

// BenchmarkMACEngine measures raw simulator throughput: simulated
// seconds of a loaded two-station scenario per wall-clock second.
// allocs/op is part of the contract: the event-driven engine's hot path
// (arena frames, scratch buffers, lazy sources) must not allocate per
// packet, so the figure stays flat as the scenario grows.
func BenchmarkMACEngine(b *testing.B) {
	l := probe.Link{
		Contenders: []probe.Flow{{RateBps: 4e6, Size: 1500}},
		Seed:       7,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := probe.MeasureTrain(l, 100, 8e6, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainReplication is the allocation benchmark of the
// replication unit itself — one train measurement end to end, the body
// the dense figures execute tens of thousands of times. Compare
// allocs/op against the packet count (train of 200 plus the consumed
// cross-traffic): the ratio must stay far below one allocation per
// packet.
func BenchmarkTrainReplication(b *testing.B) {
	l := probe.Link{
		Contenders: []probe.Flow{{RateBps: 4e6, Size: 1500}},
		Seed:       11,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := probe.MeasureTrainOne(l, 200, 5e6, i); err != nil {
			b.Fatal(err)
		}
	}
}

// seriesByName finds a series or fails the benchmark.
func seriesByName(b *testing.B, fig *experiments.Figure, name string) experiments.Series {
	b.Helper()
	for _, s := range fig.Series {
		if s.Name == name {
			return s
		}
	}
	b.Fatalf("no series %q in %s", name, fig.ID)
	return experiments.Series{}
}

// meanAbsDiff reports the mean |a-b| over the X values present in both
// series — the accuracy headline of the estimator figures. Alignment is
// by X, not array index: an estimator series legitimately skips a
// cross-load point when it had no usable value there, and an
// index-aligned comparison would then pair mismatched loads.
func meanAbsDiff(a, b experiments.Series) float64 {
	bAt := make(map[float64]float64, len(b.X))
	for i, x := range b.X {
		bAt[x] = b.Y[i]
	}
	sum, n := 0.0, 0
	for i, x := range a.X {
		y, ok := bAt[x]
		if !ok {
			continue
		}
		d := a.Y[i] - y
		if d < 0 {
			d = -d
		}
		sum += d
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func BenchmarkAbestAccuracy(b *testing.B) {
	fig := runFigure(b, "abest-accuracy")
	truth := seriesByName(b, fig, "ground truth")
	// Headlines: how far TOPP and the adaptive controller sit from the
	// measured ground truth, averaged over the cross-load sweep.
	b.ReportMetric(meanAbsDiff(truth, seriesByName(b, fig, "TOPP")), "topp_meanabs_Mbps")
	b.ReportMetric(meanAbsDiff(truth, seriesByName(b, fig, "adaptive train")), "adaptive_meanabs_Mbps")
}

func BenchmarkAbestFrontier(b *testing.B) {
	fig := runFigure(b, "abest-frontier")
	cost := seriesByName(b, fig, "probe packets")
	// Headline: the probing cost of the tightest CI target — the price
	// of the most confident estimate on the frontier. Targets sweep
	// loosest-first, so the tightest target is the last point.
	if n := len(cost.Y); n > 0 {
		b.ReportMetric(cost.Y[n-1], "tightest_target_packets")
	}
}

func BenchmarkAbestRobust(b *testing.B) {
	fig := runFigure(b, "abest-robust")
	topp := seriesByName(b, fig, "TOPP")
	// Headline: TOPP's worst-case relative error across the scenario
	// matrix — the robustness envelope of the best estimator.
	b.ReportMetric(maxY(topp), "topp_worst_relerr_pct")
}

func BenchmarkAbestBudget(b *testing.B) {
	fig := runFigure(b, "abest-budget")
	eps := seriesByName(b, fig, "SLoPS eps_eff (%)")
	// Headlines: the honesty gradient — the effective error bound SLoPS
	// reports at the most starved budget vs at the richest one. The
	// starved bound must be the (much) wider of the two.
	if n := len(eps.Y); n > 0 {
		b.ReportMetric(eps.Y[0], "slops_epseff_starved_pct")
		b.ReportMetric(eps.Y[n-1], "slops_epseff_rich_pct")
	}
}

// BenchmarkCampaignOrchestrator measures the campaign fleet scheduler
// end to end on the checked-in smoke campaign: each iteration compiles
// nothing (the plan is reused) but pays the full orchestration bill —
// ground-truth precompute, substream-seeded jobs on the worker pool,
// per-completion JSONL checkpoint appends, and the final compaction
// into canonical bytes. The telemetry entry's replications_per_sec is
// jobs/sec (Reps is the job count), which is the orchestrator
// throughput scripts/benchguard gates alongside the figure benchmarks.
func BenchmarkCampaignOrchestrator(b *testing.B) {
	plan, err := campaign.CompileFile("scenarios/campaigns/smoke.json")
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	sc := experiments.Scale{Reps: len(plan.Jobs)}
	var last runner.MeterStats
	m0 := mallocs()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		var meter runner.Meter
		res, err := campaign.Run(plan, campaign.RunConfig{
			LogPath: filepath.Join(dir, fmt.Sprintf("results-%d.jsonl", i)),
			Meter:   &meter,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Ran != len(plan.Jobs) {
			b.Fatalf("ran %d of %d jobs", res.Ran, len(plan.Jobs))
		}
		last = res.Stats
	}
	elapsed := time.Since(start)
	recordBench("campaign-orchestrator", elapsed, b.N, sc, mallocs()-m0)
	b.ReportMetric(last.UnitsPerSec, "jobs_per_sec")
	b.ReportMetric(last.P99Seconds*1e3, "job_p99_ms")
	b.ReportMetric(last.Utilization*100, "worker_util_pct")
}
