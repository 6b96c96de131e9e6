// Command bench is the repository's benchmark: it runs one workload of
// the simulator for a fixed time, checks the outputs, and prints every
// metric by name with its unit, ending with one JSON line.
//
//	bash bench/run.sh --workload paper-transient --seed 1 --seconds 15 --trace 0
//
// A run sets the workload up, warms it for a second, then runs rounds
// of fixed work until the timed rounds add up to --seconds. Before each
// round it times the set-up of a fresh copy (setup_s); after each, it
// checks the round's outputs, both outside the timed window. With --trace 1 it records spans around its calls into
// each layer and then replays each layer serially on the workload's
// cells, reporting per-layer metrics instead of end-to-end ones. See
// README.md for the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricDef is a declared metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, perLayer those of a
// traced one. BENCHMARK.json declares the same names and units.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"},
		{"units_per_s", "units/s"},
		{"probe_pkts_per_s", "pkts/s"},
		{"unit_p50_ms", "ms"},
		{"allocs_per_unit", "allocs"},
		{"live_heap_mb", "MB"},
	}
	perLayer = []metricDef{
		{"bench.traced_units_per_s", "units/s"},
		{"bench.traced_unit_p99_ms", "ms"},
		{"runner.util", "fraction"},
		{"runner.overhead_us_per_unit", "us"},
		{"runner.tail_ms", "ms"},
		{"scenario.compile_ms", "ms"},
		{"campaign.compile_ms", "ms"},
		{"probe.plan_us", "us"},
		{"probe.us_per_train", "us"},
		{"probe.us_per_pkt", "us"},
		{"probe.delivered_frac", "fraction"},
		{"probe.reduce_ms_per_gen", "ms"},
		{"stats.means_ms_per_gen", "ms"},
		{"stats.ks_ms_per_gen", "ms"},
		{"core.mser_ms_per_gen", "ms"},
		{"mac.new_us", "us"},
		{"mac.reset_us", "us"},
		{"mac.ns_per_attempt", "ns"},
		{"mac.allocs_per_run", "allocs"},
		{"mac.attempts_per_run", "count"},
		{"mac.useful_frac", "fraction"},
		{"mac.collision_frac", "fraction"},
		{"mac.phyerr_frac", "fraction"},
		{"estimate.truth_ms", "ms"},
		{"estimate.topp_ms_per_job", "ms"},
		{"estimate.slops_ms_per_job", "ms"},
		{"estimate.adaptive_ms_per_job", "ms"},
		{"estimate.ms_per_train", "ms"},
		{"estimate.trains_per_job", "count"},
		{"estimate.pkts_per_job", "count"},
		{"estimate.truncated_frac", "fraction"},
		{"campaign.fleet_util", "fraction"},
		{"campaign.serial_ms_per_pass", "ms"},
		{"campaign.checkpoint_ms_per_pass", "ms"},
		{"pathsel.run_ms", "ms"},
		{"pathsel.self_frac", "fraction"},
		{"pathsel.switches_per_run", "count"},
	}
)

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"paper-transient", "imperfect-cells", "campaign-fleet", "pathsel-timevarying"}

// newWorkload builds the named workload over e.
func newWorkload(name string, e *env) (workload, error) {
	switch name {
	case "paper-transient":
		return &trainWorkload{e: e, specs: paperCells}, nil
	case "imperfect-cells":
		return &trainWorkload{e: e, specs: imperfectCells}, nil
	case "campaign-fleet":
		return &campaignWorkload{e: e}, nil
	case "pathsel-timevarying":
		return &pathselWorkload{e: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (%s)", name, strings.Join(workloadNames, "|"))
}

// checkError is an output check that failed, as opposed to a run that
// could not proceed.
type checkError struct{ err error }

func (c checkError) Error() string { return "output check: " + c.err.Error() }

// roundRecord is one timed round as the metrics see it.
type roundRecord struct {
	// setup is the seconds a fresh copy of the workload took to set up,
	// timed just before the round.
	setup float64
	// rate and pktRate are units and probe packets per second.
	rate, pktRate float64
	lat           []cellLatency
}

// report is everything one run measured.
type report struct {
	rounds              []roundRecord
	units, pkts, failed int
	mallocs             uint64
	// liveHeap is the live heap, in bytes, after the set-up and warm-up:
	// what the workload keeps from one round to the next. Later rounds
	// would add the run's own records of the rounds before.
	liveHeap uint64
	timed    time.Duration
	batches  []batch
	digest   string
	// layers and replay are a traced run's replay metrics and the
	// estimate replay's worker-pool batch.
	layers map[string]float64
	replay batch
}

// warmUp is how long a run repeats round 0, untimed, before its timed
// rounds: a host whose CPUs sat idle runs the first second or so of
// work markedly slower.
const warmUp = time.Second

// measure sets the named workload up, warms it for warm, and runs its
// timed rounds, each followed by its output checks and preceded by a
// timed setup of a fresh copy and a forced collection, all outside the
// timed window.
// When e traces, the layer replays follow. A checkError comes back
// with the report so far.
func measure(e *env, name string, seconds float64, warm time.Duration) (workload, *report, error) {
	w, err := newWorkload(name, e)
	if err != nil {
		return nil, nil, err
	}
	if err := w.setup(); err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	tr := e.tr
	e.tr = nil
	for t0 := time.Now(); time.Since(t0) < warm; {
		if _, err := w.round(0, -1); err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		if err := w.check(0, nil); err != nil {
			return w, &report{}, checkError{fmt.Errorf("warm-up: %w", err)}
		}
	}
	e.tr = tr
	rep := &report{}
	h := sha256.New()
	var ms runtime.MemStats
	budget := time.Duration(seconds * float64(time.Second))
	for r := 0; r == 0 || rep.timed < budget; r++ {
		fresh, _ := newWorkload(name, e)
		t0 := time.Now()
		if err := fresh.setup(); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		rec := roundRecord{setup: time.Since(t0).Seconds()}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if r == 0 {
			rep.liveHeap = ms.HeapAlloc
		}
		before := ms.Mallocs

		id := e.tr.open("round", "bench", -1)
		t0 = time.Now()
		rs, err := w.round(r, id)
		wall := time.Since(t0)
		e.tr.close(id)
		if err != nil {
			return nil, nil, fmt.Errorf("round %d: %w", r, err)
		}
		runtime.ReadMemStats(&ms)
		rep.mallocs += ms.Mallocs - before
		rep.timed += wall
		rep.units += rs.units
		rep.pkts += rs.pkts
		rep.failed += rs.failed
		rep.batches = append(rep.batches, rs.batches...)
		rec.rate = float64(rs.units) / wall.Seconds()
		rec.pktRate = float64(rs.pkts) / wall.Seconds()
		rec.lat = w.latency()
		rep.rounds = append(rep.rounds, rec)

		var hw io.Writer
		if r == 0 {
			hw = h
		}
		if err := w.check(r, hw); err != nil {
			return w, rep, checkError{fmt.Errorf("round %d: %w", r, err)}
		}
	}
	rep.digest = hex.EncodeToString(h.Sum(nil))
	if e.tr == nil {
		return w, rep, nil
	}
	if err := rootsCover(e.tr.spans, 0.05); err != nil {
		return w, rep, checkError{err}
	}
	if rep.layers, rep.replay, err = replayLayers(e, w); err != nil {
		return w, rep, checkError{err}
	}
	return w, rep, nil
}

// quiet returns the fastest quarter of the rounds by units per second.
// Other tenants of a shared machine slow a run down, for seconds to
// minutes at a time, and never speed it up, so the fastest rounds are
// the ones that measured this program rather than its neighbours; the
// throughput and latency metrics are taken over them.
func quiet(rounds []roundRecord) []roundRecord {
	s := append([]roundRecord(nil), rounds...)
	sort.Slice(s, func(i, j int) bool { return s[i].rate > s[j].rate })
	return s[:(len(s)+3)/4]
}

// quickest returns the lowest quarter of xs, the set-up times taken
// when the machine was quietest.
func quickest(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[:(len(s)+3)/4]
}

// medianOver is the median of f over rounds.
func medianOver(rounds []roundRecord, f func(roundRecord) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = f(r)
	}
	return median(xs)
}

// cellPercentiles returns cell c's p50 and p99 unit latency in ms over
// rounds q, with the sample count and the samples beyond p99: the
// nearest-rank percentiles of the rounds' pooled unit times, or, where
// the rounds carry only their own percentiles, the median of those.
func cellPercentiles(q []roundRecord, c int) (p50, p99 float64, n, beyond int) {
	var all []time.Duration
	for _, r := range q {
		all = append(all, r.lat[c].durs...)
		n += len(r.lat[c].durs)
		if len(r.lat[c].durs) == 0 {
			n += r.lat[c].units
			beyond += r.lat[c].units - rank(r.lat[c].units, 0.99)
		}
	}
	if len(all) == 0 {
		return medianOver(q, func(r roundRecord) float64 { return r.lat[c].p50 }),
			medianOver(q, func(r roundRecord) float64 { return r.lat[c].p99 }), n, beyond
	}
	slices.Sort(all)
	at := func(p float64) float64 { return all[rank(len(all), p)-1].Seconds() * 1e3 }
	return at(0.5), at(0.99), n, n - rank(n, 0.99)
}

// rank is the 1-based nearest rank of quantile p among n sorted
// samples, as runner.Meter computes it.
func rank(n int, p float64) int { return min(max(int(p*float64(n)+0.9999999), 1), n) }

// unitLatency is the p50 and p99 unit latency in ms over rounds q: per
// cell, combined across cells by geometric mean, since pooling cells
// would make the percentiles jump between the cells' modes.
func unitLatency(q []roundRecord) (p50, p99 float64) {
	var p50s, p99s []float64
	for c := range q[0].lat {
		p50, p99, _, _ := cellPercentiles(q, c)
		p50s, p99s = append(p50s, p50), append(p99s, p99)
	}
	return geomean(p50s), geomean(p99s)
}

// endToEndMetrics derives the untraced run's metrics.
func endToEndMetrics(rep *report) map[string]float64 {
	q := quiet(rep.rounds)
	setups := make([]float64, len(rep.rounds))
	for i, r := range rep.rounds {
		setups[i] = r.setup
	}
	p50, _ := unitLatency(q)
	return map[string]float64{
		"setup_s":          median(quickest(setups)),
		"units_per_s":      medianOver(q, func(r roundRecord) float64 { return r.rate }),
		"probe_pkts_per_s": medianOver(q, func(r roundRecord) float64 { return r.pktRate }),
		"unit_p50_ms":      p50,
		"allocs_per_unit":  float64(rep.mallocs) / float64(rep.units),
		"live_heap_mb":     float64(rep.liveHeap) / (1 << 20),
	}
}

// perLayerMetrics derives the traced run's metrics. The runner layer is
// measured on the timed phase's own runner.MapBatches calls; a workload
// that makes none (campaign-fleet, whose pool runs inside campaign.Run)
// is measured on the estimate replay, which runs the same jobs through
// MapBatches on the same workers, one job per claim.
func perLayerMetrics(rep *report) map[string]float64 {
	q := quiet(rep.rounds)
	out := map[string]float64{"bench.traced_units_per_s": medianOver(q, func(r roundRecord) float64 { return r.rate })}
	_, out["bench.traced_unit_p99_ms"] = unitLatency(q)
	bs := rep.batches
	if len(bs) == 0 {
		bs = []batch{rep.replay}
	}
	out["runner.util"], out["runner.overhead_us_per_unit"], out["runner.tail_ms"] = occupancy(bs)
	for k, v := range rep.layers {
		out[k] = v
	}
	return out
}

// result is the final JSON line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect picks the declared metrics out of got, failing on any that is
// missing or not finite.
func collect(defs []metricDef, got map[string]float64) (map[string]value, error) {
	out := map[string]value{}
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s: no finite value (%v)", d.name, v)
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	return out, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code explicit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, "|"))
	seed := fs.Int64("seed", 1, "seed every input derives from")
	seconds := fs.Float64("seconds", 15, "timed rounds run until their wall time reaches this")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	spans := fs.String("spans", "", "with -trace 1, also write the recorded spans to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 || !(*seconds >= 0) || math.IsInf(*seconds, 0) {
		fmt.Fprintln(stderr, "bench: usage: -workload NAME -seed N -seconds S -trace 0|1 [-spans FILE]")
		return 2
	}
	if *spans != "" && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -spans needs -trace 1")
		return 2
	}

	if !slices.Contains(workloadNames, *name) {
		fmt.Fprintf(stderr, "bench: unknown workload %q (%s)\n", *name, strings.Join(workloadNames, "|"))
		return 2
	}

	workers := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(workers)
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(".bench_build", "scratch-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	e := &env{root: ".", scratch: scratch, seed: *seed, workers: workers, size: fullSize}
	if *trace == 1 {
		e.tr = newTracer()
	}
	fmt.Fprintf(stdout, "run workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "host go=%s gomaxprocs=%d nproc=%d workers=%d\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), workers)

	w, rep, err := measure(e, *name, *seconds, warmUp)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		if errors.As(err, new(checkError)) {
			printResult(stdout, result{Correct: false, Attempted: max(1, rep.units), Failed: rep.failed, Metrics: map[string]value{}})
		}
		return 1
	}
	printReport(stdout, rep, w)

	defs, got := endToEnd, map[string]float64(nil)
	if e.tr == nil {
		got = endToEndMetrics(rep)
	} else {
		defs, got = perLayer, perLayerMetrics(rep)
		printLayers(stdout, e.tr.spans, rep.timed)
		if *spans != "" {
			if err := writeSpans(*spans, e.tr.spans); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
	}
	metrics, err := collect(defs, got)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "metric %s %.6g %s\n", d.name, metrics[d.name].Value, d.unit)
	}
	printResult(stdout, result{Correct: true, Attempted: rep.units, Failed: rep.failed, Metrics: metrics})
	return 0
}

// printReport prints the run's metadata: enough to confirm that two
// runs did identical work and that each percentile is supported.
func printReport(w io.Writer, rep *report, wl workload) {
	q := quiet(rep.rounds)
	fmt.Fprintf(w, "timed rounds=%d quiet=%d wall_s=%.3f units=%d probe_pkts=%d failed=%d live_heap_mb=%.3f\n",
		len(rep.rounds), len(q), rep.timed.Seconds(), rep.units, rep.pkts, rep.failed, float64(rep.liveHeap)/(1<<20))
	for c, cl := range q[0].lat {
		p50, p99, n, beyond := cellPercentiles(q, c)
		fmt.Fprintf(w, "latency cell=%s quiet_rounds=%d samples=%d beyond_p99=%d p50_ms=%.4f p99_ms=%.4f\n",
			cl.name, len(q), n, beyond, p50, p99)
	}
	det := wl.deterministic()
	keys := make([]string, 0, len(det))
	for k := range det {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "deterministic %s=%.17g\n", k, det[k])
	}
	fmt.Fprintf(w, "digest sha256=%s\n", rep.digest)
}

// printLayers prints the timed phase's self time per layer. Unit spans
// run on parallel workers, so layer shares of the wall time can add up
// to the worker count.
func printLayers(w io.Writer, spans []span, timed time.Duration) {
	self := layerSelf(spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(w, "self layer=%s seconds=%.4f share=%.4f\n", l, self[l], self[l]/timed.Seconds())
	}
}

func printResult(w io.Writer, r result) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // every value was checked finite
	}
	fmt.Fprintln(w, string(b))
}
