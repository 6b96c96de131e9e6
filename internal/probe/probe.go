// Package probe implements active dispersion-based bandwidth
// measurement over the simulated CSMA/CA link: periodic probing trains
// (Section 5.1.2), output-gap dispersion measurements (Eq. 16),
// packet-pair probing (Section 7.3), and long-train steady-state rate
// response measurements (the ">10000 packets" curves of Figs. 1 and 4).
//
// A Link describes the paper's validation scenario (Fig. 2/3): one
// measured station whose FIFO transmission queue carries the probing
// flow and optionally FIFO cross-traffic, contending against any number
// of cross-traffic stations. Measurements replicate the experiment many
// times with independent seeds and Poisson-spaced train starts, exactly
// as the paper repeats experiments 80+ times on the testbed and
// 25000-70000 times in simulation.
//
// Beyond the paper's perfect-channel validation setup, a Link carries
// the imperfect-channel knobs (Loss, Topology, CaptureDB and
// RTSThreshold) and the heterogeneity knobs (ProbeAC and
// ProbeDataRateBps on the probing station, Flow.AC and
// Flow.DataRateBps on each contender), so measurements run unchanged
// over lossy links, hidden-terminal topologies, 802.11e EDCA cells and
// mixed-rate cells; the zero values reproduce the paper's single
// perfect collision domain with homogeneous plain-DCF stations
// exactly.
package probe

import (
	"errors"
	"fmt"
	"math"

	"csmabw/internal/mac"
	"csmabw/internal/phy"
	"csmabw/internal/runner"
	"csmabw/internal/sim"
	"csmabw/internal/traffic"
)

// Flow is a cross-traffic flow: rate in bit/s and fixed packet size in
// bytes. By default arrivals are Poisson (the paper's cross-traffic
// model); setting OnMean/OffMean switches to a bursty on/off process
// with the same average rate, the knob for the Section 6.3 burstiness
// discussion. A zero rate is an idle flow: a contender's station stays
// in the cell — a hearing graph and station-targeted events still
// index it — but never offers a frame.
type Flow struct {
	RateBps float64
	Size    int
	// OnMean/OffMean, when both positive, select an on/off process:
	// exponential ON bursts at peak rate RateBps*(OnMean+OffMean)/OnMean
	// separated by exponential OFF periods, preserving RateBps on
	// average.
	OnMean, OffMean sim.Time
	// PowerDB is the sending station's received power at the common
	// receiver in relative dB, consumed by the capture rule (Link
	// CaptureDB). Meaningful for Contenders only; flows sharing the
	// probe station's FIFO transmit at the probe station's power.
	PowerDB float64
	// AC is the sending station's 802.11e access category; the zero
	// value is plain DCF. Meaningful for Contenders only: flows sharing
	// the probe station's FIFO queue contend under Link.ProbeAC.
	AC phy.AccessCategory
	// DataRateBps is the sending station's data-frame modulation rate
	// in bit/s for heterogeneous-rate cells (the 802.11 rate anomaly);
	// 0 means the PHY's DataRate. Contenders only, like AC.
	DataRateBps float64
}

// Link is the measured WLAN scenario.
type Link struct {
	// Phy is the PHY profile (defaults to phy.B11 when zero Name).
	Phy phy.Params
	// ProbeSize is the probing packet payload in bytes (default 1500).
	ProbeSize int
	// FIFOCross are Poisson flows sharing the probing station's FIFO
	// queue (the "FIFO cross-traffic" of Fig. 3).
	FIFOCross []Flow
	// Contenders are Poisson flows on separate stations contending for
	// channel access (the "contending cross-traffic").
	Contenders []Flow
	// WarmUp is how long cross-traffic runs before the probing flow
	// starts, letting the contending queues reach their stationary
	// regime (default 500ms). The paper's transient appears because the
	// *probing flow* starts, not because the cross-traffic is cold.
	WarmUp sim.Time
	// Loss is the frame-error model applied on every station's uplink
	// to the common receiver; the zero value is the perfect channel.
	Loss phy.ErrorModel
	// Topology is the hearing graph over the probing station (index 0)
	// and the contenders (indices 1..len(Contenders)); nil is a full
	// mesh, i.e. the single collision domain the paper validates in.
	Topology *mac.Topology
	// CaptureDB is the receiver capture threshold in dB; 0 disables
	// capture. Station powers come from ProbePowerDB and each
	// contender Flow's PowerDB; all-equal powers (the default) mean no
	// frame can ever capture.
	CaptureDB float64
	// Schedule is the link's time-varying channel: mid-run parameter
	// changes (error rates, modulation rates, powers, hearing-graph
	// edges) the engine applies at their instants, in every
	// replication — station 0 is the probing station, 1.. the
	// contenders. Instants are absolute from each replication's t=0,
	// so the WarmUp period is part of the timeline. Empty means the
	// static channel, byte-identical to the pre-extension behaviour.
	Schedule []mac.ScheduledEvent
	// ProbePowerDB is the probing station's received power at the
	// common receiver in relative dB.
	ProbePowerDB float64
	// RTSThreshold enables the RTS/CTS handshake for payloads meeting
	// it; 0 disables RTS/CTS (the paper's configuration).
	RTSThreshold int
	// ProbeAC is the probing station's 802.11e access category; the
	// zero value is plain DCF, the paper's configuration. Probe packets
	// and FIFO cross-traffic share one transmission queue, so they
	// contend under this category together — the knob for asking how
	// the access-delay transient and the dispersion estimate change
	// when the probing flow is prioritized (or deprioritized) against
	// its cross-traffic.
	ProbeAC phy.AccessCategory
	// ProbeDataRateBps is the probing station's data-frame modulation
	// rate in bit/s; 0 means the PHY's DataRate.
	ProbeDataRateBps float64
	// Seed drives all randomness. Replication r uses an independent
	// derived stream.
	Seed int64
	// Workers bounds the goroutines MeasureTrain (so also MeasurePair
	// and the csmabw facade) replicates on; 0 or negative means
	// GOMAXPROCS. Nothing else reads it: figures, estimators and
	// campaigns run on their callers' pools. Every replication's
	// randomness derives purely from (Seed, replication index), so the
	// statistics are identical at any worker count.
	Workers int
}

// WithDefaults returns a copy of the link with zero fields replaced by
// the paper-standard defaults (802.11b PHY, 1500-byte probes, 500ms
// warm-up).
func (l Link) WithDefaults() Link {
	if l.Phy.Name == "" {
		l.Phy = phy.B11()
	}
	if l.ProbeSize == 0 {
		l.ProbeSize = 1500
	}
	if l.WarmUp == 0 {
		l.WarmUp = 500 * sim.Millisecond
	}
	return l
}

// validate screens one flow's knobs; kind and index name the flow in
// error messages ("FIFOCross[0]", "Contenders[2]").
func (f Flow) validate(kind string, i int) error {
	at := func(field string, format string, a ...any) error {
		return fmt.Errorf("probe: %s[%d].%s: %s", kind, i, field, fmt.Sprintf(format, a...))
	}
	if math.IsNaN(f.RateBps) || math.IsInf(f.RateBps, 0) || f.RateBps < 0 {
		return at("RateBps", "must be finite and >= 0, got %g", f.RateBps)
	}
	if f.Size < 0 {
		return at("Size", "negative packet size %d", f.Size)
	}
	if f.RateBps > 0 && f.Size == 0 {
		return at("Size", "flow carries %g bit/s in zero-byte packets", f.RateBps)
	}
	if f.OnMean < 0 || f.OffMean < 0 {
		return at("OnMean/OffMean", "negative burst period (on=%v off=%v)", f.OnMean, f.OffMean)
	}
	if (f.OnMean > 0) != (f.OffMean > 0) {
		return at("OnMean/OffMean", "on/off process needs both periods positive (on=%v off=%v)", f.OnMean, f.OffMean)
	}
	if math.IsNaN(f.PowerDB) || math.IsInf(f.PowerDB, 0) {
		return at("PowerDB", "non-finite power %g", f.PowerDB)
	}
	if !f.AC.Valid() {
		return at("AC", "unknown access category %v", f.AC)
	}
	if math.IsNaN(f.DataRateBps) || math.IsInf(f.DataRateBps, 0) || f.DataRateBps < 0 {
		return at("DataRateBps", "must be finite and >= 0, got %g", f.DataRateBps)
	}
	return nil
}

// Validate screens every knob of the link for values the engine cannot
// run — NaN/Inf rates and powers, negative sizes and thresholds,
// malformed on/off processes, and a hearing topology whose station
// count disagrees with 1+len(Contenders). Historically these checks
// lived only at command-line parse time, so programmatic construction
// (and the scenario compiler) could smuggle invalid configs into the
// engine; every measurement entry point now calls Validate first. Zero
// values are always valid: defaults are applied later by WithDefaults.
func (l Link) Validate() error {
	if l.ProbeSize < 0 {
		return fmt.Errorf("probe: ProbeSize: negative packet size %d", l.ProbeSize)
	}
	if l.WarmUp < 0 {
		return fmt.Errorf("probe: WarmUp: negative duration %v", l.WarmUp)
	}
	for i, f := range l.FIFOCross {
		if err := f.validate("FIFOCross", i); err != nil {
			return err
		}
	}
	for i, f := range l.Contenders {
		if err := f.validate("Contenders", i); err != nil {
			return err
		}
	}
	if err := l.Loss.Validate(); err != nil {
		return fmt.Errorf("probe: Loss: %w", err)
	}
	if math.IsNaN(l.CaptureDB) || math.IsInf(l.CaptureDB, 0) || l.CaptureDB < 0 {
		return fmt.Errorf("probe: CaptureDB: must be finite and >= 0, got %g", l.CaptureDB)
	}
	if math.IsNaN(l.ProbePowerDB) || math.IsInf(l.ProbePowerDB, 0) {
		return fmt.Errorf("probe: ProbePowerDB: non-finite power %g", l.ProbePowerDB)
	}
	if l.RTSThreshold < 0 {
		return fmt.Errorf("probe: RTSThreshold: negative threshold %d", l.RTSThreshold)
	}
	if !l.ProbeAC.Valid() {
		return fmt.Errorf("probe: ProbeAC: unknown access category %v", l.ProbeAC)
	}
	if math.IsNaN(l.ProbeDataRateBps) || math.IsInf(l.ProbeDataRateBps, 0) || l.ProbeDataRateBps < 0 {
		return fmt.Errorf("probe: ProbeDataRateBps: must be finite and >= 0, got %g", l.ProbeDataRateBps)
	}
	if l.Topology != nil {
		if err := l.Topology.Validate(1 + len(l.Contenders)); err != nil {
			return fmt.Errorf("probe: Topology: %w", err)
		}
	}
	if err := mac.ValidateSchedule(l.Schedule, 1+len(l.Contenders)); err != nil {
		return fmt.Errorf("probe: Schedule: %w", err)
	}
	return nil
}

// TrainSample is the outcome of one probing-train replication.
type TrainSample struct {
	// Delivered probe frames' departure times, indexed by train index;
	// a packet that was dropped holds -1.
	Departures []sim.Time
	// AccessDelays per train index in seconds (-1 when dropped).
	AccessDelays []float64
	// QueueAtDepart is the first contender's queue length sampled at
	// each probe departure (Fig. 8 bottom); empty without contenders.
	QueueAtDepart []float64
	// GO is the measured output gap (Eq. 16); 0 when fewer than two
	// probe packets were delivered.
	GO sim.Time
	// Injected is the number of probe packets the station actually
	// resolved on the air — delivered to the receiver or dropped by the
	// retry limit — before the run ended. A replication the horizon cut
	// short injects fewer than the nominal train length, and cost
	// ledgers must charge this count, not the nominal one: budgets are
	// not debited for packets never sent.
	Injected int
	// Delivered is the number of probe packets that reached the
	// receiver; Injected minus Delivered is the train's channel-loss
	// count, the evidence loss-aware error inflation reads.
	Delivered int
	// Truncated marks a replication the simulation horizon cut short:
	// at least one probe packet was neither delivered nor dropped by
	// the retry limit when the run ended. A truncated train's missing
	// tail is a measurement artifact, not a channel loss, so MeanGO
	// excludes these replications instead of folding their shortened
	// dispersion into E[gO] (which would bias GO under saturation).
	Truncated bool
}

// TrainStats aggregates a set of replications of the same train.
type TrainStats struct {
	N    int      // packets per train
	GI   sim.Time // input gap
	L    int      // probe payload bytes
	Reps int

	// Samples holds each replication.
	Samples []TrainSample
}

// MACConfig assembles the engine configuration of one run of the cell
// the link describes, with engine seed seed, over [0, end): station 0
// is the probing station, which sends probe merged with the FIFO cross
// flows on one transmission queue, and stations 1.. are the
// contenders. Each cross flow draws from its own split of r, FIFO
// flows first. The link's channel and its power, access-category and
// data-rate knobs apply here, so a new Link or Flow knob reaches the
// train and steady-state measurements and scenario.Compiled.MACConfig
// alike. The zero-value channel knobs yield the zero mac.Channel: the
// perfect single collision domain. l must be validated and have its
// defaults applied.
func (l Link) MACConfig(probe traffic.Source, r *sim.Rand, seed int64, end sim.Time) mac.Config {
	return l.assemble(&cellGen{}, probe, r, seed, end)
}

// cellGen is the storage one run of a cell is assembled into: each
// cross flow's generator and source, station 0's merge of the probe
// with its FIFO flows, the station configs and the contenders' names.
// A TrainMeter keeps one and reassembles it for every replication;
// MACConfig builds into a fresh one.
type cellGen struct {
	flows    []flowGen
	station0 []traffic.Source
	merge    traffic.MergeSource
	stations []mac.StationConfig
	names    []string
}

// flowGen is one cross flow's generator and the storage of its source.
type flowGen struct {
	rng     sim.Rand
	poisson traffic.PoissonSource
	onOff   traffic.OnOffSource
}

// assemble is MACConfig building into g: the returned config refers to
// g's storage until g is assembled again.
func (l Link) assemble(g *cellGen, probe traffic.Source, r *sim.Rand, seed int64, end sim.Time) mac.Config {
	nF := len(l.FIFOCross)
	g.flows = resize(g.flows, nF+len(l.Contenders))
	g.station0 = append(g.station0[:0], probe)
	for fi, f := range l.FIFOCross {
		g.station0 = append(g.station0, g.flows[fi].source(f, r, uint64(fi)+100, end))
	}
	src0 := probe
	if len(g.station0) > 1 {
		g.merge.Init(g.station0)
		src0 = &g.merge
	}
	g.stations = append(g.stations[:0], mac.StationConfig{
		Name:     "probe",
		Source:   src0,
		PowerDB:  l.ProbePowerDB,
		AC:       l.ProbeAC,
		DataRate: l.ProbeDataRateBps,
	})
	for ci, f := range l.Contenders {
		for k := len(g.names); k <= ci; k++ {
			g.names = append(g.names, fmt.Sprintf("contender-%d", k))
		}
		g.stations = append(g.stations, mac.StationConfig{
			Name:     g.names[ci],
			Source:   g.flows[nF+ci].source(f, r, uint64(ci)+200, end),
			PowerDB:  f.PowerDB,
			AC:       f.AC,
			DataRate: f.DataRateBps,
		})
	}
	return mac.Config{
		Phy:      l.Phy,
		Stations: g.stations,
		Seed:     seed,
		Horizon:  end,
		Channel: mac.Channel{
			Topology:           l.Topology,
			Loss:               l.Loss,
			CaptureThresholdDB: l.CaptureDB,
		},
		RTSThreshold: l.RTSThreshold,
		Schedule:     l.Schedule,
	}
}

// source realises flow f over [0, end) as a lazy pull-based generator
// on r's substream label: arrivals are drawn only as the simulation
// consumes them, so a replication that stops early never generates the
// tail. The draw order is identical to the eager schedules the engine
// used to take. An idle (zero-rate) flow yields an exhausted source and
// draws nothing from its substream.
func (g *flowGen) source(f Flow, r *sim.Rand, label uint64, end sim.Time) traffic.Source {
	r.SplitInto(label, &g.rng)
	switch {
	case f.RateBps == 0:
		return traffic.FromSchedule(nil)
	case f.OnMean > 0 && f.OffMean > 0:
		duty := float64(f.OnMean) / float64(f.OnMean+f.OffMean)
		g.onOff.Init(&g.rng, f.RateBps/duty, f.Size, f.OnMean, f.OffMean, 0, end)
		return &g.onOff
	default:
		g.poisson.Init(&g.rng, f.RateBps, f.Size, 0, end)
		return &g.poisson
	}
}

// resize returns s with length n, reusing its storage when it is large
// enough; the caller overwrites every element.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// TrainMeter is a per-worker measurement context: it owns one
// mac.Engine that is Reset — arenas, station state and scratch reused —
// between the train replications measured through it, and every other
// piece of a replication's scaffolding: the generators, the train and
// cross-traffic sources, the station configs and the queue-sampling
// hook. A replication on a warm meter allocates only the sample it
// returns (MeasureOne), or nothing when it reuses one (MeasureInto). A
// meter must only be used serially (one per worker goroutine;
// runner.MapBatches builds exactly that), and reuse never changes a
// measured value: a Reset engine is byte-identical to a fresh one. The
// zero value is ready to use; copy a meter only before its first use,
// since its hook is bound to it then.
type TrainMeter struct {
	eng *mac.Engine
	// root is seeded from the link's seed; rng, split from it per
	// replication, draws the train's start and the cross flows'
	// substreams.
	root, rng sim.Rand
	train     traffic.TrainSource
	cell      cellGen
	// queue collects the first contender's queue length at each probe
	// departure of the run in progress; hook, bound to the meter on its
	// first use, appends to it.
	queue []float64
	hook  func(*mac.Engine, *mac.Frame)
}

// sampleQueue is the OnDepart hook behind TrainSample.QueueAtDepart.
func (m *TrainMeter) sampleQueue(e *mac.Engine, f *mac.Frame) {
	if f.Probe {
		m.queue = append(m.queue, float64(e.QueueLen(1)))
	}
}

// run executes cfg on the meter's reused engine, constructing it on
// first use.
func (m *TrainMeter) run(cfg mac.Config) (*mac.Result, error) {
	if m.eng == nil {
		e, err := mac.New(cfg)
		if err != nil {
			return nil, err
		}
		m.eng = e
	} else if err := m.eng.Reset(cfg); err != nil {
		// A failed Reset leaves the engine unusable; drop it so a later
		// valid config rebuilds from scratch.
		m.eng = nil
		return nil, err
	}
	return m.eng.Run(), nil
}

// TrainPlan is a train measurement whose per-replication-invariant
// preparation — defaults resolution, train-length validation, input-gap
// derivation — has been done once, up front. Replications then only
// build their (cheap, per-seed) scenario and run it, which is what the
// batched figure drivers execute tens of thousands of times.
type TrainPlan struct {
	link Link
	n    int
	gI   sim.Time
}

// PlanTrain resolves an n-packet train measurement at probing rate
// rateBps over link l into a TrainPlan. Rate 0 sends the train back to
// back; a NaN, negative or infinite rate is an error. The returned plan
// is immutable and safe to share across worker goroutines.
func PlanTrain(l Link, n int, rateBps float64) (*TrainPlan, error) {
	p := &TrainPlan{}
	if err := p.Init(l, n, rateBps); err != nil {
		return nil, err
	}
	return p, nil
}

// Init plans into p what PlanTrain plans into fresh storage, for callers
// that plan many short measurements in turn. It must not run while p
// is measuring; on error p is unchanged.
func (p *TrainPlan) Init(l Link, n int, rateBps float64) error {
	l, gI, err := l.trainSetup(n, rateBps)
	if err != nil {
		return err
	}
	*p = TrainPlan{link: l, n: n, gI: gI}
	return nil
}

// GI returns the plan's input gap — the nominal spacing the probing
// rate resolves to — so budget-aware callers can price a train before
// sending it.
func (p *TrainPlan) GI() sim.Time { return p.gI }

// MeasureOne runs replication rep of the plan on meter m, reusing m's
// engine across calls; a nil meter uses a fresh engine. The sample is a
// pure function of (plan, rep) — the meter is an arena, never state
// that leaks between replications. It is MeasureInto a zero sample.
func (p *TrainPlan) MeasureOne(m *TrainMeter, rep int) (TrainSample, error) {
	var s TrainSample
	if err := p.MeasureInto(m, rep, &s); err != nil {
		return TrainSample{}, err
	}
	return s, nil
}

// MeasureInto is MeasureOne writing the sample into s, whose slices it
// reuses when they hold at least the train's length, so a caller that
// reduces each sample before measuring the next allocates nothing on a
// warm meter. s then equals MeasureOne's sample, except that a cell
// without contenders leaves a used sample's QueueAtDepart empty rather
// than nil, keeping its storage. On error s holds no measurement.
func (p *TrainPlan) MeasureInto(m *TrainMeter, rep int, s *TrainSample) error {
	return p.link.measureInto(m, p.n, p.gI, int64(rep), s)
}

// MeasureTrain sends reps independent replications of an n-packet train
// with input gap corresponding to rateBps and collects the dispersion
// and per-index access delays. Replications run on a worker pool of
// l.Workers goroutines (GOMAXPROCS when zero), claimed in contiguous
// batches, with each worker reusing one simulation engine (TrainMeter)
// across the replications it executes; each replication's randomness is
// derived purely from (l.Seed, replication index), so the result is
// identical at any worker count and chunking.
func MeasureTrain(l Link, n int, rateBps float64, reps int) (*TrainStats, error) {
	plan, err := PlanTrain(l, n, rateBps)
	if err != nil {
		return nil, err
	}
	if reps < 1 {
		return nil, fmt.Errorf("probe: %d replications", reps)
	}
	samples, err := runner.MapBatches(reps, l.Workers, 0,
		func() *TrainMeter { return &TrainMeter{} },
		func(m *TrainMeter, rep int) (TrainSample, error) {
			return plan.MeasureOne(m, rep)
		})
	if err != nil {
		return nil, err
	}
	return &TrainStats{N: n, GI: plan.gI, L: plan.link.ProbeSize, Reps: reps, Samples: samples}, nil
}

// MaxTrainLen bounds the packets of one probing train: 100 times the
// paper's 1,000-packet trains. A train's samples are sized by its
// length up front, so the bound turns a typo'd length into an error
// instead of an out-of-memory crash; longer measurements are
// steady-state plans (MeasureSteadyState).
const MaxTrainLen = 100_000

// trainSetup is the shared preparation of a train measurement: defaults
// resolved, train length and probing rate validated, and the input gap
// derived from the rate (0 = back to back).
func (l Link) trainSetup(n int, rateBps float64) (Link, sim.Time, error) {
	if err := l.Validate(); err != nil {
		return l, 0, err
	}
	l = l.WithDefaults()
	if n < 1 {
		return l, 0, fmt.Errorf("probe: train length %d", n)
	}
	if n > MaxTrainLen {
		return l, 0, fmt.Errorf("probe: train length %d above MaxTrainLen %d; measure longer spans as a steady state", n, MaxTrainLen)
	}
	if math.IsNaN(rateBps) || math.IsInf(rateBps, 0) || rateBps < 0 {
		return l, 0, fmt.Errorf("probe: probing rate must be finite and >= 0 (0 = back to back), got %g", rateBps)
	}
	var gI sim.Time
	if rateBps > 0 {
		gI = sim.FromSeconds(float64(l.ProbeSize*8) / rateBps)
	}
	return l, gI, nil
}

// MeasureTrainOne runs a single replication, rep, of the n-packet train
// measurement on a fresh engine: running MeasureTrainOne for
// rep = 0..reps-1 (in any order, on any workers) and collecting the
// samples by index is exactly MeasureTrain. Drivers that own their
// worker pool plan once with PlanTrain and measure with MeasureOne on
// per-worker meters instead, which skips the engine construction.
func MeasureTrainOne(l Link, n int, rateBps float64, rep int) (TrainSample, error) {
	var p TrainPlan
	if err := p.Init(l, n, rateBps); err != nil {
		return TrainSample{}, err
	}
	return p.MeasureOne(nil, rep)
}

// measureInto runs replication rep of the n-packet train on meter m
// (nil for a fresh one) and writes its sample into s. It is a pure
// function of (l, n, gI, rep) — the determinism unit the worker pool
// relies on; the meter and s only change where the memory comes from.
//
// The probing train starts WarmUp plus an exponential offset after time
// zero — the paper's "Poisson spacing between probing sequences" that
// guarantees the trains sample the cross-traffic process in random
// phase.
//
// The run stops the instant the train is fully resolved — every probe
// packet delivered or dropped by the retry limit — instead of grinding
// the cross-traffic through the rest of the drain horizon. Everything
// the sample reads happens before that instant, so the measured values
// are identical to a full-horizon run; only the wasted tail is cut.
// Cross-traffic stations' frames are not retained at all (the sample
// never reads them), and a run that hits the horizon with unresolved
// probes is flagged Truncated.
func (l Link) measureInto(m *TrainMeter, n int, gI sim.Time, rep int64, s *TrainSample) error {
	if m == nil {
		m = &TrainMeter{}
	}
	m.root.Seed(l.Seed)
	m.root.SplitInto(uint64(rep)+0x5eed, &m.rng)
	start := l.WarmUp + m.rng.ExpTime(50*sim.Millisecond)
	// Horizon: enough for the train to drain even under saturation.
	// A probe packet's service rarely exceeds ~20ms even with several
	// saturated contenders; 40ms/packet is a generous envelope.
	end := start + sim.Time(n)*gI + sim.Time(n)*40*sim.Millisecond + 200*sim.Millisecond
	m.train.Init(n, gI, l.ProbeSize, start)
	cfg := l.assemble(&m.cell, &m.train, &m.rng, l.Seed^(rep+1)*0x9e3779b9, end)

	s.Departures = resize(s.Departures, n)
	s.AccessDelays = resize(s.AccessDelays, n)
	for i := range s.Departures {
		s.Departures[i] = -1
		s.AccessDelays[i] = -1
	}
	m.queue = s.QueueAtDepart[:0]
	if len(l.Contenders) > 0 {
		if cap(m.queue) < n {
			m.queue = make([]float64, 0, n)
		}
		if m.hook == nil {
			m.hook = m.sampleQueue
		}
		cfg.OnDepart = m.hook
	}
	cfg.StopAfterProbes = n
	cfg.RecordFrames = func(station int) bool { return station == 0 }
	res, err := m.run(cfg)
	s.QueueAtDepart, m.queue = m.queue, nil
	if err != nil {
		return err
	}
	s.Delivered = 0
	for _, f := range res.Frames[0] {
		if f.Probe && f.Index >= 0 && f.Index < n {
			s.Departures[f.Index] = f.Departed
			s.AccessDelays[f.Index] = f.AccessDelay().Seconds()
			s.Delivered++
		}
	}
	// Every resolved probe was transmitted (delivered, or carried to the
	// retry limit and dropped); unresolved probes of a truncated run
	// never reached the air and must not be charged to cost ledgers.
	s.Injected = res.ProbesResolved
	s.Truncated = res.ProbesResolved < n
	s.GO = outputGap(s.Departures)
	return nil
}

// outputGap computes (d_last - d_first)/(count-1) over delivered probes.
func outputGap(deps []sim.Time) sim.Time {
	first, last := sim.Time(-1), sim.Time(-1)
	count := 0
	for _, d := range deps {
		if d < 0 {
			continue
		}
		if first < 0 {
			first = d
		}
		last = d
		count++
	}
	if count < 2 {
		return 0
	}
	return (last - first) / sim.Time(count-1)
}

// MeanGO returns the limiting-average output gap E[gO] in seconds over
// all replications that delivered at least two probes. Replications the
// simulation horizon truncated are excluded: their trains are missing a
// tail the channel never had the chance to serve, and counting their
// foreshortened dispersion as an ordinary measurement would bias E[gO]
// (and therefore the inferred rate) under saturation.
func (ts *TrainStats) MeanGO() float64 {
	sum, n := 0.0, 0
	for _, s := range ts.Samples {
		if s.Truncated {
			continue
		}
		if s.GO > 0 {
			sum += s.GO.Seconds()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ErrNoEstimate reports that a train measurement produced no usable
// dispersion sample: every replication was either truncated by the
// simulation horizon or delivered fewer than two probe packets, so
// L/E[gO] is undefined. Callers that sweep many operating points can
// test for it with errors.Is and skip the point instead of aborting.
var ErrNoEstimate = errors.New("probe: no usable replication for a dispersion estimate")

// RateEstimate is the dispersion-based rate inference L/E[gO] in bit/s
// (Section 5.3's estimator of ro). When no replication yields a usable
// dispersion — all trains truncated by the horizon, or fewer than two
// probes delivered everywhere — it returns NaN and an error wrapping
// ErrNoEstimate rather than a silent (and bogus) 0 bit/s.
func (ts *TrainStats) RateEstimate() (float64, error) {
	g := ts.MeanGO()
	if g <= 0 {
		truncated, short := 0, 0
		for _, s := range ts.Samples {
			switch {
			case s.Truncated:
				truncated++
			case s.GO <= 0:
				short++
			}
		}
		return math.NaN(), fmt.Errorf("%w (%d replications: %d truncated by the horizon, %d delivered <2 probes)",
			ErrNoEstimate, len(ts.Samples), truncated, short)
	}
	return float64(ts.L*8) / g, nil
}

// DelaysByIndex returns the replication-by-index access delay matrix in
// seconds. A dropped packet is removed from its row, not marked: the
// row is shorter than the train by its drops, and every delay after a
// drop sits one column left of its packet index per earlier drop. So
// after a mid-train drop a column mixes packet indices, and
// stats.Column, stats.RunningMeans and the per-index KS tests read it
// as one. The rows share one backing array, each capped at its length,
// so appending to a row never writes into the next.
func (ts *TrainStats) DelaysByIndex() [][]float64 {
	total := 0
	for _, s := range ts.Samples {
		total += len(s.AccessDelays)
	}
	buf := make([]float64, 0, total)
	out := make([][]float64, 0, len(ts.Samples))
	for _, s := range ts.Samples {
		start := len(buf)
		for _, d := range s.AccessDelays {
			if d >= 0 {
				buf = append(buf, d)
			}
		}
		out = append(out, buf[start:len(buf):len(buf)])
	}
	return out
}

// QueueByIndex returns the replication-by-index contender queue-length
// matrix.
func (ts *TrainStats) QueueByIndex() [][]float64 {
	out := make([][]float64, 0, len(ts.Samples))
	for _, s := range ts.Samples {
		out = append(out, s.QueueAtDepart)
	}
	return out
}

// InterDepartureGaps concatenates, over replications, the successive
// inter-departure gaps of each train (seconds) — the input for the
// MSER correction of Section 7.4. Gaps spanning a dropped packet are
// omitted. The rows share one backing array, each capped at its
// length, as in DelaysByIndex.
func (ts *TrainStats) InterDepartureGaps() [][]float64 {
	total := 0
	for _, s := range ts.Samples {
		total += max(len(s.Departures)-1, 0)
	}
	buf := make([]float64, 0, total)
	out := make([][]float64, 0, len(ts.Samples))
	for _, s := range ts.Samples {
		start := len(buf)
		prev := sim.Time(-1)
		for _, d := range s.Departures {
			if d < 0 {
				prev = -1
				continue
			}
			if prev >= 0 {
				buf = append(buf, (d - prev).Seconds())
			}
			prev = d
		}
		out = append(out, buf[start:len(buf):len(buf)])
	}
	return out
}

// MeasurePair runs packet-pair probing (a 2-packet train at infinite
// rate) and returns the mean dispersion-based capacity estimate in
// bit/s over reps replications. When no replication delivers a usable
// pair dispersion the error wraps ErrNoEstimate (and the value is NaN)
// instead of reporting 0 bit/s.
func MeasurePair(l Link, reps int) (float64, error) {
	ts, err := MeasureTrain(l, 2, 0, reps)
	if err != nil {
		return 0, err
	}
	return ts.RateEstimate()
}

// SteadyState measures the steady-state operating point at probing rate
// rateBps using one long constant-rate probing flow of the given
// duration (the paper uses >10000-packet trains). It returns the probe
// output rate and the carried rate of every other flow.
type SteadyState struct {
	ProbeRate   float64   // carried probing rate ro, bit/s
	FIFORate    float64   // carried FIFO cross-traffic on the probe station
	CrossRates  []float64 // carried rate per contender
	MeasureFrom sim.Time
	MeasureTo   sim.Time
}

// MeasureSteadyState runs the long-train experiment at rate rateBps for
// the given duration (excluding warm-up).
func MeasureSteadyState(l Link, rateBps float64, duration sim.Time) (*SteadyState, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	l = l.WithDefaults()
	if math.IsNaN(rateBps) || math.IsInf(rateBps, 0) || rateBps <= 0 {
		return nil, fmt.Errorf("probe: steady state needs a finite positive rate, got %g", rateBps)
	}
	if duration <= 0 {
		return nil, fmt.Errorf("probe: non-positive duration %v", duration)
	}
	r := sim.NewRand(l.Seed).Split(0xabcd)
	start := l.WarmUp
	end := start + duration

	res, err := mac.Run(l.MACConfig(traffic.Marked(traffic.NewCBR(rateBps, l.ProbeSize, start, end)), r, l.Seed, end))
	if err != nil {
		return nil, err
	}

	// Skip the first quarter of the measurement window: the probing flow
	// itself needs to reach its stationary interaction (Section 4).
	from := start + duration/4
	to := end
	ss := &SteadyState{MeasureFrom: from, MeasureTo: to}

	// Split station-0 throughput into probe and FIFO shares.
	var probeBits, fifoBits int64
	for _, f := range res.Frames[0] {
		if f.Departed < from || f.Departed > to {
			continue
		}
		if f.Probe {
			probeBits += int64(f.Size) * 8
		} else {
			fifoBits += int64(f.Size) * 8
		}
	}
	win := (to - from).Seconds()
	ss.ProbeRate = float64(probeBits) / win
	ss.FIFORate = float64(fifoBits) / win
	for ci := range l.Contenders {
		ss.CrossRates = append(ss.CrossRates, res.Throughput(ci+1, from, to))
	}
	return ss, nil
}
