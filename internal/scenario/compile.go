// Package scenario is the declarative front door to the simulator: a
// small JSON spec — one file per measured cell — describing the
// stations (access category, data rate, power, traffic source), the
// hearing topology, the channel error models and the probing plan,
// compiled into the existing probe.Link / mac.Config structures. The
// compiler reads the spec in one pass and checks each key as it reads
// it — unknown keys, NaN/Inf/negative knobs, topology bounds,
// TXOP-vs-hidden-topology conflicts — rejecting a bad spec with a
// positional error ("stations[2].traffic.rate_mbps: …") before
// anything runs; a spec with several faults reports the first one in
// reading order. A spec is the only way to describe a cell to the cmd
// tools: the -scenario flag names one, and campaign and pathsel files
// list them. The checked-in library under scenarios/ holds the
// reusable cells the experiment drivers and docs point at.
//
// The spec is deliberately declarative and engine-agnostic: it names
// workloads (what the cell looks like, how it is probed), not Go
// structures, so campaign tooling can iterate over scenario files
// without touching code in probe, experiments or the cmd front ends.
package scenario

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"csmabw/internal/mac"
	"csmabw/internal/phy"
	"csmabw/internal/probe"
	"csmabw/internal/sim"
	"csmabw/internal/traffic"
)

// Plan names the compiled probing plan kind.
type Plan string

// The two probing plans a spec can select: a finite packet train (the
// transient / dispersion measurements) or a long constant-rate
// steady-state run (the rate-response measurements).
const (
	// PlanTrain is a finite probing train.
	PlanTrain Plan = "train"
	// PlanSteady is a long constant-rate steady-state run.
	PlanSteady Plan = "steady"
)

// Probing is the compiled measurement plan.
type Probing struct {
	// Plan selects train or steady probing.
	Plan Plan
	// TrainLen is the packets per train (train plans).
	TrainLen int
	// RateBps is the probing rate in bit/s: the train's nominal input
	// rate (0 = back-to-back), or the steady plan's offered rate.
	RateBps float64
	// Reps is the spec's replication count (0 = scale preset).
	Reps int
	// DurationSeconds is the spec's per-point duration (0 = preset).
	DurationSeconds float64
}

// Compiled is a scenario compiled into engine configuration: the
// measured cell as a validated probe.Link, the probing plan and
// presentation metadata. It is immutable by convention — tools that
// override fields copy it first.
type Compiled struct {
	// Name is the scenario (and derived figure) identifier.
	Name string
	// Description is the spec's documentation string.
	Description string
	// Link is the measured cell. Link.Workers is left 0: only
	// probe.MeasureTrain reads it, and the figure drivers, estimators
	// and campaign fleet run on their callers' worker pools.
	Link probe.Link
	// StationNames labels the cell's stations for tool output: index 0
	// is the probing station, 1.. the contenders.
	StationNames []string
	// Probing is the measurement plan.
	Probing Probing
	// Notes are the spec's free-text annotations.
	Notes []string
}

// CompileFile reads and compiles a spec file — the path every
// -scenario flag goes through.
func CompileFile(path string) (*Compiled, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	c, err := Compile(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// Compile reads a scenario spec and lowers it into engine
// configuration in one pass. The strict walker (walker.go) rejects
// unknown keys, wrong types and non-finite numbers, and each key is
// range-checked as it is lowered, so every fault is a positional
// error. The top-level keys are read first; then name, phy, seed,
// rts_threshold_bytes, probe, fifo_cross, stations, channel, events
// and probing are lowered in that order, the stations before the
// topology bounds and event targets that need them. Within an object,
// every key is read and unknown keys are rejected before its range
// checks. A spec with several faults reports the first one in this
// order. A TXOP-enabled access category over hidden stations, which
// the engine would only reject at run time, is caught after the
// events, and the compiled Link finally passes probe.Link.Validate, so
// a compiled scenario can never smuggle an invalid knob into a
// measurement.
func Compile(data []byte) (*Compiled, error) {
	root, err := Root(data, "scenario")
	if err != nil {
		return nil, err
	}
	c := &Compiled{
		Name:         root.Str("name"),
		Description:  root.Str("description"),
		Notes:        root.Strs("notes"),
		StationNames: []string{"probe"},
	}
	phyName := root.Str("phy")
	l := probe.Link{Seed: int64(root.Int("seed")), RTSThreshold: root.Int("rts_threshold_bytes")}
	probeObj := root.Child("probe")
	fifo := root.Children("fifo_cross")
	stations := root.Children("stations")
	channel := root.Child("channel")
	events := root.Children("events")
	probing := root.Child("probing")
	if probing == nil {
		root.Fail("probing", "spec needs a probing plan")
	}
	root.Done()

	if c.Name == "" {
		root.Fail("name", "scenario needs a name")
	}
	var ok bool
	if l.Phy, ok = phyFor(phyName); !ok {
		root.Fail("phy", "unknown profile %q (b11|b11short|g54|a54)", phyName)
	}
	if l.RTSThreshold < 0 {
		root.Fail("rts_threshold_bytes", "negative threshold %d", l.RTSThreshold)
	}
	if probeObj != nil {
		readProbe(probeObj, &l)
	}
	for _, f := range fifo {
		l.FIFOCross = append(l.FIFOCross, readFlow(f))
	}
	for i, st := range stations {
		flow, name := readStation(st, i)
		l.Contenders = append(l.Contenders, flow)
		c.StationNames = append(c.StationNames, name)
	}
	if channel != nil {
		readChannel(channel, &l, len(c.StationNames))
	}
	l.Schedule = readEvents(events, c.StationNames)
	checkTXOP(&l, probeObj, stations)
	if probing != nil {
		size := l.ProbeSize
		if size == 0 {
			size = 1500
		}
		c.Probing = readProbing(probing, size)
	}
	if err := root.Err(); err != nil {
		return nil, err
	}
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", c.Name, err)
	}
	c.Link = l
	return c, nil
}

// phyFor resolves the spec's PHY profile name; ok is false for an
// unknown one. The empty name compiles to the zero phy.Params — the
// engine default (802.11b long preamble), applied later by
// Link.WithDefaults — so specs that omit the field produce Links
// identical to hand-wired zero-Phy ones.
func phyFor(name string) (p phy.Params, ok bool) {
	switch name {
	case "":
		return phy.Params{}, true
	case "b11":
		return phy.B11(), true
	case "b11short":
		return phy.B11Short(), true
	case "g54":
		return phy.G54(), true
	case "a54":
		return phy.A54(), true
	}
	return phy.Params{}, false
}

// checkSpan rejects a duration of s seconds at key that is longer than
// sim.MaxSeconds.
func checkSpan(o *Obj, key string, s float64) {
	if s > sim.MaxSeconds {
		o.Fail(key, "%g s: must be at most %.4g s", s, sim.MaxSeconds)
	}
}

// readProbe lowers the probe object into the probing station's knobs.
func readProbe(o *Obj, l *probe.Link) {
	l.ProbeSize = o.Int("size_bytes")
	acName := o.Str("ac")
	rate := o.Num("data_rate_mbps")
	l.ProbePowerDB = o.Num("power_db")
	warmup := o.Num("warmup_seconds")
	o.Done()
	if l.ProbeSize < 0 {
		o.Fail("size_bytes", "negative packet size %d", l.ProbeSize)
	}
	var err error
	if l.ProbeAC, err = phy.ParseAC(acName); err != nil {
		o.Fail("ac", "%v", err)
	}
	if rate < 0 {
		o.Fail("data_rate_mbps", "negative rate %g", rate)
	}
	l.ProbeDataRateBps = rate * 1e6
	if warmup < 0 {
		o.Fail("warmup_seconds", "negative warm-up %g", warmup)
	}
	checkSpan(o, "warmup_seconds", warmup)
	l.WarmUp = sim.FromSeconds(warmup)
}

// readFlow lowers one traffic-flow object: Poisson by default, on/off
// when kind is "onoff" and both burst periods are set.
func readFlow(o *Obj) probe.Flow {
	kind := o.Str("kind")
	rate := o.Num("rate_mbps")
	f := probe.Flow{RateBps: rate * 1e6, Size: o.Int("size_bytes")}
	on, off := o.Num("on_seconds"), o.Num("off_seconds")
	o.Done()
	if rate <= 0 {
		o.Fail("rate_mbps", "flow needs a positive rate, got %g", rate)
	}
	if f.Size < 0 {
		o.Fail("size_bytes", "negative packet size %d", f.Size)
	}
	if f.Size == 0 {
		f.Size = 1500
	}
	switch kind {
	case "", "poisson":
		if on != 0 || off != 0 {
			o.Fail("on_seconds", "burst periods need kind \"onoff\"")
		}
	case "onoff":
		if on <= 0 || off <= 0 {
			o.Fail("on_seconds", "on/off process needs positive on_seconds and off_seconds, got %g/%g", on, off)
		}
		checkSpan(o, "on_seconds", on)
		checkSpan(o, "off_seconds", off)
		f.OnMean, f.OffMean = sim.FromSeconds(on), sim.FromSeconds(off)
	default:
		o.Fail("kind", "unknown traffic kind %q (poisson|onoff)", kind)
	}
	return f
}

// readStation lowers contending station i into its flow and its tool
// output name.
func readStation(o *Obj, i int) (probe.Flow, string) {
	name := o.Str("name")
	acName := o.Str("ac")
	rate := o.Num("data_rate_mbps")
	power := o.Num("power_db")
	traffic := o.Child("traffic")
	if traffic == nil {
		o.Fail("traffic", "station needs a traffic object")
	}
	o.Done()
	var f probe.Flow
	if traffic != nil {
		f = readFlow(traffic)
	}
	var err error
	if f.AC, err = phy.ParseAC(acName); err != nil {
		o.Fail("ac", "%v", err)
	}
	if rate < 0 {
		o.Fail("data_rate_mbps", "negative rate %g", rate)
	}
	f.DataRateBps = rate * 1e6
	f.PowerDB = power
	if name == "" {
		name = fmt.Sprintf("contender-%d", i)
	}
	return f, name
}

// readChannel lowers the channel object — error rates, capture and the
// hearing graph over n stations — into the link.
func readChannel(o *Obj, l *probe.Link, n int) {
	l.Loss = phy.ErrorModel{FER: o.Num("fer"), BER: o.Num("ber")}
	l.CaptureDB = o.Num("capture_db")
	topo := o.Child("topology")
	o.Done()
	if topo != nil {
		l.Topology = readTopology(topo, n)
	}
	if err := l.Loss.Validate(); err != nil {
		o.Fail("fer", "%v", err)
	}
	if l.CaptureDB < 0 {
		o.Fail("capture_db", "negative capture threshold %g", l.CaptureDB)
	}
}

// readTopology builds the hearing graph over the probing station 0 and
// stations 1..n-1; mesh compiles to the nil (full-mesh) topology.
func readTopology(o *Obj, n int) *mac.Topology {
	kind, links := o.Str("kind"), o.Pairs("links")
	o.Done()
	var topo *mac.Topology
	switch kind {
	case "", "mesh":
	case "hidden":
		topo = mac.NewTopology(n)
	case "chain":
		topo = mac.Chain(n)
	case "links":
		topo = mac.NewTopology(n)
		for i, ab := range links {
			a, b := ab[0], ab[1]
			switch {
			case a < 0 || a >= n || b < 0 || b >= n:
				o.Fail(fmt.Sprintf("links[%d]", i), "station index out of range [0, %d): [%d, %d]", n, a, b)
				return nil
			case a == b:
				o.Fail(fmt.Sprintf("links[%d]", i), "station %d cannot hear itself explicitly", a)
				return nil
			}
			topo.Connect(a, b)
		}
		return topo
	default:
		o.Fail("kind", "unknown topology %q (mesh|hidden|chain|links)", kind)
		return nil
	}
	if len(links) > 0 {
		o.Fail("links", "links need kind \"links\"")
	}
	return topo
}

// readEvents lowers the structured mid-run changes into the engine's
// schedule: parseable and monotone instants, station names that
// resolve against the compiled cell (names; index 0 = the probing
// station), error rates in [0, 1), non-negative rates, link edges
// between distinct in-range stations, and no event that changes
// nothing. A pointer field is set only when its key is present, so an
// explicit zero ("fer": 0 — restore the perfect channel) survives.
func readEvents(events []*Obj, names []string) []mac.ScheduledEvent {
	if len(events) == 0 {
		return nil
	}
	n := len(names)
	out := make([]mac.ScheduledEvent, 0, len(events))
	prev := sim.Time(0)
	for _, o := range events {
		at := o.Str("at")
		station := o.Str("station")
		num := func(key string) *float64 {
			if !o.Has(key) {
				return nil
			}
			v := o.Num(key)
			return &v
		}
		me := mac.ScheduledEvent{Target: -1, SetFER: num("fer"), SetBER: num("ber")}
		rate := num("data_rate_mbps")
		me.SetPowerDB = num("power_db")
		if o.Has("hears") && !o.Has("link") {
			o.Fail("hears", `"hears" needs a "link" edge`)
		}
		hears := o.Bool("hears")
		var link []float64
		if o.Has("link") {
			if link = o.Nums("link"); len(link) != 2 || link[0] != math.Trunc(link[0]) || link[1] != math.Trunc(link[1]) {
				o.Fail("link", "want a [a, b] station index pair")
				link = nil
			}
		}
		o.Done()

		if at == "" {
			o.Fail("at", `event needs an instant ("2s", "500ms")`)
		}
		d, err := time.ParseDuration(at)
		if at != "" && err != nil {
			o.Fail("at", "bad duration %q", at)
		}
		me.At = sim.FromSeconds(d.Seconds())
		if me.At < 0 {
			o.Fail("at", "negative instant %q", at)
		}
		if me.At < prev {
			o.Fail("at", "instant %q before the previous event; events must be time-ordered", at)
		}
		prev = me.At
		if station != "" && station != "*" {
			if me.Target = slices.Index(names, station); me.Target < 0 {
				o.Fail("station", "unknown station %q (known: %s)", station, strings.Join(names, ", "))
			}
		}
		if f := me.SetFER; f != nil && (*f < 0 || *f >= 1) {
			o.Fail("fer", "frame-error rate %g outside [0, 1)", *f)
		}
		if b := me.SetBER; b != nil && (*b < 0 || *b >= 1) {
			o.Fail("ber", "bit-error rate %g outside [0, 1)", *b)
		}
		if rate != nil {
			if *rate < 0 {
				o.Fail("data_rate_mbps", "negative rate %g", *rate)
			}
			bps := *rate * 1e6
			me.SetDataRate = &bps
		}
		if link != nil {
			a, b := int(link[0]), int(link[1])
			if a < 0 || a >= n || b < 0 || b >= n {
				o.Fail("link", "station index out of range [0, %d): [%d, %d]", n, a, b)
			} else if a == b {
				o.Fail("link", "station %d cannot hear itself", a)
			}
			me.SetTopologyEdge = &mac.TopologyEdge{A: a, B: b, Hears: hears}
		}
		if me.SetFER == nil && me.SetBER == nil && me.SetDataRate == nil &&
			me.SetPowerDB == nil && me.SetTopologyEdge == nil {
			o.Fail("", "event changes nothing; set fer, ber, data_rate_mbps, power_db or link")
		}
		out = append(out, me)
	}
	return out
}

// checkTXOP rejects an access category with a TXOP limit on a cell
// with hidden stations or scheduled hearing-graph edits (which can
// hide stations mid-run): the engine only rejects that conflict when a
// replication runs, so the compiler names the offending ac field here,
// before any measurement starts.
func checkTXOP(l *probe.Link, probeObj *Obj, stations []*Obj) {
	hidden := l.Topology != nil && !l.Topology.IsFullMesh()
	edgeEvents := false
	for _, ev := range l.Schedule {
		edgeEvents = edgeEvents || ev.SetTopologyEdge != nil
	}
	if !hidden && !edgeEvents {
		return
	}
	why := "over a topology with hidden stations"
	if !hidden {
		why = "with scheduled link events"
	}
	eff := l.Phy
	if eff.Name == "" {
		eff = phy.B11()
	}
	// A category other than plain DCF can only come from a probe object.
	if eff.EDCA(l.ProbeAC).TXOPLimit > 0 {
		probeObj.Fail("ac", "access category %v has a TXOP limit, unsupported %s", l.ProbeAC, why)
	}
	for i, f := range l.Contenders {
		if eff.EDCA(f.AC).TXOPLimit > 0 {
			stations[i].Fail("ac", "access category %v has a TXOP limit, unsupported %s", f.AC, why)
		}
	}
}

// readProbing lowers the measurement plan. probeSize (bytes, defaults
// already applied) converts a gap_ms train spacing into the
// equivalent probing rate.
func readProbing(o *Obj, probeSize int) Probing {
	plan := o.Str("plan")
	packets := o.Int("packets")
	rate := o.Num("rate_mbps")
	gap := o.Num("gap_ms")
	reps := o.Int("reps")
	dur := o.Num("duration_seconds")
	o.Done()
	out := Probing{Plan: Plan(plan)}
	switch out.Plan {
	case PlanTrain, PlanSteady:
	case "":
		o.Fail("plan", "plan is required (train|steady)")
	default:
		o.Fail("plan", "unknown plan %q (train|steady)", plan)
	}
	if rate < 0 {
		o.Fail("rate_mbps", "negative rate %g", rate)
	}
	if gap < 0 {
		o.Fail("gap_ms", "negative gap %g", gap)
	}
	if reps < 0 {
		o.Fail("reps", "negative replication count %d", reps)
	}
	if dur < 0 {
		o.Fail("duration_seconds", "negative duration %g", dur)
	}
	checkSpan(o, "duration_seconds", dur)
	switch out.Plan {
	case PlanTrain:
		if dur > 0 {
			o.Fail("duration_seconds", "a train plan has no duration; use packets/rate_mbps/gap_ms")
		}
		if packets < 2 {
			o.Fail("packets", "a train needs at least 2 packets, got %d", packets)
		}
		if packets > probe.MaxTrainLen {
			o.Fail("packets", "a train holds at most %d packets, got %d; longer measurements are steady plans", probe.MaxTrainLen, packets)
		}
		if rate > 0 && gap > 0 {
			o.Fail("gap_ms", "rate_mbps and gap_ms both set; they define the same spacing")
		}
		out.TrainLen = packets
		out.RateBps = rate * 1e6
		if gap > 0 {
			// A gap is the reciprocal expression of the rate over the
			// probe payload: rate = size_bits / gap.
			out.RateBps = float64(probeSize*8) / (gap / 1e3)
		}
		out.Reps = reps
	case PlanSteady:
		if packets != 0 || gap != 0 || reps != 0 {
			o.Fail("packets", "packets/gap_ms/reps belong to train plans; a steady plan takes rate_mbps and duration_seconds")
		}
		if rate <= 0 {
			o.Fail("rate_mbps", "a steady plan needs a positive rate, got %g", rate)
		}
		out.RateBps = rate * 1e6
		out.DurationSeconds = dur
	}
	return out
}

// MACConfig assembles a general-purpose engine configuration carrying
// the compiled cell over [0, horizon): station 0 is the probing
// station (its probing plan merged with the FIFO cross flows on one
// transmission queue), stations 1.. the contenders. A train plan
// injects one train starting at the warm-up mark; a steady plan offers
// constant-rate probing for the whole horizon past warm-up. All
// traffic randomness derives from stream, so replications handing in
// root.Child(rep) are independent and order-free. This is the
// cmd/dcfsim path; the measurement drivers go through probe.Link
// directly.
func (c *Compiled) MACConfig(stream sim.Stream, horizon sim.Time) (mac.Config, error) {
	if horizon <= 0 {
		return mac.Config{}, fmt.Errorf("scenario: non-positive horizon %v", horizon)
	}
	l := c.Link.WithDefaults()
	if err := l.Validate(); err != nil {
		return mac.Config{}, err
	}
	var probeSrc traffic.Source
	switch c.Probing.Plan {
	case PlanTrain:
		var gI sim.Time
		if c.Probing.RateBps > 0 {
			gI = sim.FromSeconds(float64(l.ProbeSize*8) / c.Probing.RateBps)
		}
		probeSrc = traffic.NewTrain(c.Probing.TrainLen, gI, l.ProbeSize, l.WarmUp)
	case PlanSteady:
		probeSrc = traffic.Marked(traffic.NewCBR(c.Probing.RateBps, l.ProbeSize, l.WarmUp, horizon))
	default:
		return mac.Config{}, fmt.Errorf("scenario: unknown probing plan %q", c.Probing.Plan)
	}
	cfg := l.MACConfig(probeSrc, stream.Rand(), stream.Child(0).Seed(), horizon)
	for i := range cfg.Stations {
		cfg.Stations[i].Name = c.StationNames[i]
	}
	return cfg, nil
}
