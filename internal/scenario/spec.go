// Package scenario is the declarative front door to the simulator: a
// small JSON spec — one file per measured cell — describing the
// stations (access category, data rate, power, traffic source), the
// hearing topology, the channel error models, the probing plan and the
// estimator settings, compiled into the existing probe.Link /
// mac.Config / estimate structures. The compiler validates everything
// statically — unknown keys, NaN/Inf/negative knobs, topology bounds,
// TXOP-vs-hidden-topology conflicts — and rejects a bad spec with a
// positional error ("stations[2].traffic.rate_mbps: …") before
// anything runs. Every cmd tool accepts a spec through the shared
// -scenario flag, and the checked-in library under scenarios/ holds
// the reusable cells the experiment drivers and docs point at.
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
)

// Spec is the parsed (but not yet compiled) scenario description,
// mirroring the JSON field for field. Parse fills it; Compile turns it
// into engine configuration. Zero values mean "use the engine default"
// throughout, so a minimal spec is just a name and a probing plan.
type Spec struct {
	// Name identifies the scenario; it doubles as the figure ID when a
	// driver renders the cell, and scenlint requires it to match the
	// library file's base name.
	Name string
	// Description is free documentation carried along for -h/README use.
	Description string
	// Phy names the PHY profile: "" (engine default, 802.11b long
	// preamble), b11, b11short, g54 or a54.
	Phy string
	// Seed drives all randomness of the compiled cell.
	Seed int64
	// RTSThresholdBytes enables RTS/CTS for payloads meeting it; 0 off.
	RTSThresholdBytes int
	// Probe configures the probing station.
	Probe ProbeSpec
	// FIFOCross are flows sharing the probing station's FIFO queue.
	FIFOCross []FlowSpec
	// Stations are the contending cross-traffic stations.
	Stations []StationSpec
	// Channel is the propagation model.
	Channel ChannelSpec
	// Probing is the measurement plan (required).
	Probing ProbingSpec
	// Estimator optionally configures a closed-loop estimator campaign.
	Estimator *EstimatorSpec
	// Events are the structured mid-run parameter changes — the
	// time-varying channel. Compile validates and lowers them into the
	// engine's event schedule.
	Events []EventSpec
	// Notes are free-text annotations ("0-10s: warmup", …) carried
	// through to the compiled scenario untouched.
	Notes []string
}

// EventSpec is one structured mid-run change, mirroring the JSON:
//
//	{"at": "2s", "station": "sta1", "fer": 0.3}
//	{"at": "5s", "link": [0, 2], "hears": false}
//
// The pointer fields distinguish "absent" from an explicit zero (FER 0
// restores the perfect channel), matching the engine's own semantics.
type EventSpec struct {
	// At is the event's instant as a duration string ("2s", "500ms"),
	// absolute from each replication's t=0 (warm-up included).
	At string
	// Station names the target: a station name from the spec, "probe"
	// for the probing station, or ""/"*" for every station. Ignored by
	// Link events, which name their own pair.
	Station string
	// FER / BER override the target's frame/bit error rates in [0, 1).
	FER, BER *float64
	// DataRateMbps overrides the target's modulation rate; 0 restores
	// the PHY rate.
	DataRateMbps *float64
	// PowerDB overrides the target's received power in relative dB.
	PowerDB *float64
	// Link edits one hearing-graph edge between two station indices
	// (0 = probe, 1.. = stations in spec order); Hears is the edge's
	// new state (absent = false, a cut).
	Link *[2]int
	// Hears is the Link edge's new state.
	Hears bool
}

// ProbeSpec configures the probing station itself.
type ProbeSpec struct {
	// SizeBytes is the probe payload in bytes (0 = default 1500).
	SizeBytes int
	// AC is the probing station's access category ("" = plain DCF).
	AC string
	// DataRateMbps is the station's modulation rate (0 = PHY rate).
	DataRateMbps float64
	// PowerDB is the received power at the common receiver, relative dB.
	PowerDB float64
	// WarmupSeconds is the cross-traffic warm-up (0 = default 0.5s).
	WarmupSeconds float64
}

// FlowSpec is one traffic flow: Poisson by default, on/off when the
// burst periods are set.
type FlowSpec struct {
	// Kind is "poisson" (default) or "onoff".
	Kind string
	// RateMbps is the average offered rate.
	RateMbps float64
	// SizeBytes is the fixed packet size.
	SizeBytes int
	// OnSeconds/OffSeconds are the mean burst periods (onoff only).
	OnSeconds, OffSeconds float64
}

// StationSpec is one contending station and its traffic.
type StationSpec struct {
	// Name labels the station in tool output ("" = contender-i).
	Name string
	// Traffic is the station's offered load (required).
	Traffic FlowSpec
	// AC is the station's access category ("" = plain DCF).
	AC string
	// DataRateMbps is the station's modulation rate (0 = PHY rate).
	DataRateMbps float64
	// PowerDB is the received power at the common receiver, relative dB.
	PowerDB float64
}

// ChannelSpec is the propagation model: frame/bit error rates,
// receiver capture and the hearing topology.
type ChannelSpec struct {
	// FER is the frame-error rate in [0,1).
	FER float64
	// BER is the bit-error rate in [0,1).
	BER float64
	// CaptureDB is the receiver capture threshold (0 = no capture).
	CaptureDB float64
	// Topology is the hearing graph (nil = full mesh).
	Topology *TopologySpec
}

// TopologySpec names the hearing graph over station 0 (the probing
// station) and stations 1..len(Stations).
type TopologySpec struct {
	// Kind is mesh, hidden, chain or links.
	Kind string
	// Links lists the hearing pairs for kind "links", as [a,b] station
	// index pairs (symmetric).
	Links [][2]int
}

// ProbingSpec is the measurement plan: either a packet train
// (transient / dispersion measurements) or a long steady-state run
// (rate-response measurements).
type ProbingSpec struct {
	// Plan is "train" or "steady".
	Plan string
	// Packets is the train length (train plans).
	Packets int
	// RateMbps is the probing rate: the train's nominal input rate, or
	// the steady plan's offered rate (doubling as the sweep ceiling for
	// rate-response figures).
	RateMbps float64
	// GapMs is the train input gap in milliseconds, an alternative to
	// RateMbps (setting both is an error).
	GapMs float64
	// Reps is the replication count (train plans; 0 = scale preset).
	Reps int
	// DurationSeconds is the per-point duration (steady plans; 0 =
	// scale preset).
	DurationSeconds float64
}

// EstimatorSpec configures a closed-loop estimator campaign over the
// compiled cell.
type EstimatorSpec struct {
	// Kind is topp, slops, adaptive or all.
	Kind string
	// TargetRel is the adaptive controller's relative CI95 target
	// (0 = tool default).
	TargetRel float64
	// ResolutionMbps is the SLoPS bisection resolution (0 = default).
	ResolutionMbps float64
	// MaxProbeSeconds caps the campaign's cumulative wire time (0 = uncapped).
	MaxProbeSeconds float64
	// MaxPackets caps the campaign's probe packets (0 = uncapped).
	MaxPackets int
}

// Parse decodes a scenario spec from JSON, strictly: unknown keys,
// wrong types and non-finite numbers are positional errors (the Obj
// walker in walker.go). Parse only checks structure; Compile performs
// the semantic validation (ranges, topology bounds, plan consistency,
// TXOP conflicts).
func Parse(data []byte) (*Spec, error) {
	root, err := Root(data, "scenario")
	if err != nil {
		return nil, err
	}

	s := &Spec{
		Name:              root.Str("name"),
		Description:       root.Str("description"),
		Phy:               root.Str("phy"),
		Seed:              int64(root.Int("seed")),
		RTSThresholdBytes: root.Int("rts_threshold_bytes"),
		Notes:             root.Strs("notes"),
	}
	for _, ev := range root.Children("events") {
		s.Events = append(s.Events, parseEvent(ev))
	}
	if p := root.Child("probe"); p != nil {
		s.Probe = ProbeSpec{
			SizeBytes:     p.Int("size_bytes"),
			AC:            p.Str("ac"),
			DataRateMbps:  p.Num("data_rate_mbps"),
			PowerDB:       p.Num("power_db"),
			WarmupSeconds: p.Num("warmup_seconds"),
		}
		p.Done()
	}
	for _, f := range root.Children("fifo_cross") {
		s.FIFOCross = append(s.FIFOCross, parseFlow(f))
	}
	for _, st := range root.Children("stations") {
		sp := StationSpec{
			Name:         st.Str("name"),
			AC:           st.Str("ac"),
			DataRateMbps: st.Num("data_rate_mbps"),
			PowerDB:      st.Num("power_db"),
		}
		if tr := st.Child("traffic"); tr != nil {
			sp.Traffic = parseFlow(tr)
		} else {
			st.Fail("traffic", "station needs a traffic object")
		}
		st.Done()
		s.Stations = append(s.Stations, sp)
	}
	if ch := root.Child("channel"); ch != nil {
		s.Channel = ChannelSpec{
			FER:       ch.Num("fer"),
			BER:       ch.Num("ber"),
			CaptureDB: ch.Num("capture_db"),
		}
		if topo := ch.Child("topology"); topo != nil {
			s.Channel.Topology = &TopologySpec{
				Kind:  topo.Str("kind"),
				Links: topo.Pairs("links"),
			}
			topo.Done()
		}
		ch.Done()
	}
	if pr := root.Child("probing"); pr != nil {
		s.Probing = ProbingSpec{
			Plan:            pr.Str("plan"),
			Packets:         pr.Int("packets"),
			RateMbps:        pr.Num("rate_mbps"),
			GapMs:           pr.Num("gap_ms"),
			Reps:            pr.Int("reps"),
			DurationSeconds: pr.Num("duration_seconds"),
		}
		pr.Done()
	} else if root.Err() == nil {
		root.Fail("probing", "spec needs a probing plan")
	}
	if est := root.Child("estimator"); est != nil {
		s.Estimator = &EstimatorSpec{
			Kind:            est.Str("kind"),
			TargetRel:       est.Num("target_rel"),
			ResolutionMbps:  est.Num("resolution_mbps"),
			MaxProbeSeconds: est.Num("max_probe_seconds"),
			MaxPackets:      est.Int("max_packets"),
		}
		est.Done()
	}
	root.Done()
	if err := root.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// parseEvent reads one structured event object. Pointer fields record
// presence, so an explicit zero ("fer": 0 — restore the perfect
// channel) survives to the compiler.
func parseEvent(o *Obj) EventSpec {
	e := EventSpec{
		At:      o.Str("at"),
		Station: o.Str("station"),
	}
	num := func(key string) *float64 {
		if !o.Has(key) {
			return nil
		}
		v := o.Num(key)
		return &v
	}
	e.FER = num("fer")
	e.BER = num("ber")
	e.DataRateMbps = num("data_rate_mbps")
	e.PowerDB = num("power_db")
	if o.Has("hears") && !o.Has("link") {
		o.Fail("hears", `"hears" needs a "link" edge`)
	}
	e.Hears = o.Bool("hears")
	if o.Has("link") {
		ns := o.Nums("link")
		if len(ns) != 2 || ns[0] != math.Trunc(ns[0]) || ns[1] != math.Trunc(ns[1]) {
			o.Fail("link", "want a [a, b] station index pair")
		} else {
			pair := [2]int{int(ns[0]), int(ns[1])}
			e.Link = &pair
		}
	}
	o.Done()
	return e
}

// parseFlow reads one traffic-flow object.
func parseFlow(o *Obj) FlowSpec {
	f := FlowSpec{
		Kind:       o.Str("kind"),
		RateMbps:   o.Num("rate_mbps"),
		SizeBytes:  o.Int("size_bytes"),
		OnSeconds:  o.Num("on_seconds"),
		OffSeconds: o.Num("off_seconds"),
	}
	o.Done()
	return f
}

// Load reads and parses a spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// CompileFile loads, parses and compiles a spec file in one step — the
// path every -scenario flag goes through.
func CompileFile(path string) (*Compiled, error) {
	s, err := Load(path)
	if err != nil {
		return nil, err
	}
	c, err := s.Compile()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}
