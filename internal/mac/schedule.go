package mac

import (
	"fmt"
	"math"

	"csmabw/internal/sim"
)

// This file holds the time-varying-channel machinery: a Config may
// carry a Schedule of mid-run parameter changes — per-station or
// channel-wide frame/bit error rates, data rates, received powers, and
// hearing-topology edges — that take effect while the scenario runs.
// The schedule integrates with the event-driven core at its decision
// points: every busy period starting at or after an event's instant
// sees the updated parameters, and a configuration with an empty
// schedule takes the identical code path (and therefore the identical
// RNG draw order) as before the extension, which is what keeps every
// pre-existing golden snapshot byte-for-byte stable.

// TopologyEdge is one hearing-graph edit: after the event fires,
// stations A and B hear each other iff Hears (the edit is symmetric,
// like Topology.Connect). The common receiver is not part of the graph
// and always hears everyone.
type TopologyEdge struct {
	A, B  int
	Hears bool
}

// ScheduledEvent is one mid-run change of channel or station
// parameters. The nil pointer fields are "leave unchanged", so a single
// event can adjust any subset of knobs atomically at its instant.
//
// Semantics: an event applies at the first transmission decision at or
// after At — every busy period starting at t >= At is resolved under
// the event's parameters, while a transmission already on the air (and
// the frames of a TXOP burst whose opportunity began earlier) keeps the
// parameters it started with, matching the physical picture of a
// channel that changed mid-flight being charged to the next access.
type ScheduledEvent struct {
	// At is the event's simulated-time instant (absolute, from the
	// run's t=0; warm-up is part of the run).
	At sim.Time
	// Target is the station index the event applies to; -1 applies the
	// event to every station (a channel-wide change). Ignored by
	// SetTopologyEdge, which names its own pair.
	Target int
	// SetFER / SetBER override the target's frame/bit error model
	// fields, each in [0, 1).
	SetFER, SetBER *float64
	// SetDataRate overrides the target's data-frame modulation rate in
	// bit/s; 0 restores the PHY's DataRate. Control frames keep the
	// basic rate, as always.
	SetDataRate *float64
	// SetPowerDB overrides the target's received power at the common
	// receiver in relative dB (the capture rule's input).
	SetPowerDB *float64
	// SetTopologyEdge edits one hearing-graph edge. The engine clones
	// the configured topology at construction when the schedule carries
	// edge events, so the Config's own Topology (possibly shared across
	// replications) is never mutated.
	SetTopologyEdge *TopologyEdge
}

// ValidateSchedule screens an event schedule against a station count:
// non-negative and non-decreasing instants, targets in range, error
// rates in [0, 1), finite rates and powers, topology edges between
// distinct in-range stations, and at least one Set field per event.
// The probe layer and the scenario compiler call it so an invalid
// schedule dies at validation time, not mid-measurement.
func ValidateSchedule(sched []ScheduledEvent, stations int) error {
	at := func(i int, format string, a ...any) error {
		return fmt.Errorf("mac: schedule[%d]: %s", i, fmt.Sprintf(format, a...))
	}
	prev := sim.Time(0)
	for i, ev := range sched {
		if ev.At < 0 {
			return at(i, "negative instant %v", ev.At)
		}
		if ev.At < prev {
			return at(i, "instant %v before schedule[%d]'s %v; events must be time-ordered", ev.At, i-1, prev)
		}
		prev = ev.At
		if ev.Target < -1 || ev.Target >= stations {
			return at(i, "target station %d outside [-1, %d)", ev.Target, stations)
		}
		if ev.SetFER == nil && ev.SetBER == nil && ev.SetDataRate == nil &&
			ev.SetPowerDB == nil && ev.SetTopologyEdge == nil {
			return at(i, "event changes nothing; set at least one field")
		}
		if f := ev.SetFER; f != nil && (math.IsNaN(*f) || *f < 0 || *f >= 1) {
			return at(i, "FER %g outside [0, 1)", *f)
		}
		if b := ev.SetBER; b != nil && (math.IsNaN(*b) || *b < 0 || *b >= 1) {
			return at(i, "BER %g outside [0, 1)", *b)
		}
		if r := ev.SetDataRate; r != nil && (math.IsNaN(*r) || math.IsInf(*r, 0) || *r < 0) {
			return at(i, "data rate must be finite and >= 0, got %g", *r)
		}
		if p := ev.SetPowerDB; p != nil && (math.IsNaN(*p) || math.IsInf(*p, 0)) {
			return at(i, "non-finite power %g dB", *p)
		}
		if te := ev.SetTopologyEdge; te != nil {
			if te.A < 0 || te.A >= stations || te.B < 0 || te.B >= stations {
				return at(i, "topology edge [%d, %d] outside [0, %d)", te.A, te.B, stations)
			}
			if te.A == te.B {
				return at(i, "topology edge cannot relink station %d to itself", te.A)
			}
		}
	}
	return nil
}

// hasTopologyEvents reports whether any event edits the hearing graph.
func hasTopologyEvents(sched []ScheduledEvent) bool {
	for _, ev := range sched {
		if ev.SetTopologyEdge != nil {
			return true
		}
	}
	return false
}

// initSchedule wires the validated schedule into the engine: the
// events are copied into an engine-owned slice (recycled across
// Resets), and when the schedule edits topology edges the engine
// additionally takes an owned, mutable clone of the configured hearing
// graph — a shared Config.Channel.Topology is never written to.
func (e *Engine) initSchedule(cfg Config) error {
	nSt := len(cfg.Stations)
	if err := ValidateSchedule(cfg.Schedule, nSt); err != nil {
		return err
	}
	e.sched = append(e.sched[:0], cfg.Schedule...)
	e.nextEv = 0
	if !hasTopologyEvents(e.sched) {
		return nil
	}
	for _, s := range e.stations {
		if s.txop > 0 {
			// Mirrors resolveEDCA's static rejection: an edge event can
			// hide stations from each other mid-run, and a TXOP burst
			// assumes every station defers to it.
			return fmt.Errorf("mac: station %d (%s): TXOP limit %v unsupported with scheduled topology events", s.id, s.name, s.txop)
		}
	}
	if e.topo != nil {
		e.topoOwned = cloneTopologyInto(e.topoOwned, e.topo)
	} else if e.topoOwned != nil && e.topoOwned.n == nSt {
		// Reset-reuse path with a full-mesh base: refill the recycled
		// clone instead of allocating a fresh mesh per replication. Like
		// FullMesh, every station hears itself too.
		for i := range e.topoOwned.hear {
			for j := range e.topoOwned.hear[i] {
				e.topoOwned.hear[i][j] = true
			}
		}
	} else {
		e.topoOwned = FullMesh(nSt)
	}
	e.topo = e.topoOwned
	return nil
}

// cloneTopologyInto copies src into dst, reusing dst's adjacency rows
// when the station count matches (the Reset-reuse path), and returns
// the clone.
func cloneTopologyInto(dst, src *Topology) *Topology {
	if dst == nil || dst.n != src.n {
		return src.Clone()
	}
	for i := range src.hear {
		copy(dst.hear[i], src.hear[i])
	}
	return dst
}

// applyEvents applies, in order, every scheduled event with At <= upTo.
// The caller gates on schedPending so the zero-schedule hot path pays
// one integer comparison and nothing else.
func (e *Engine) applyEvents(upTo sim.Time) {
	for e.nextEv < len(e.sched) && e.sched[e.nextEv].At <= upTo {
		ev := &e.sched[e.nextEv]
		e.nextEv++
		e.applyEvent(ev)
	}
}

// schedPending reports whether an unapplied event is due at or before t.
func (e *Engine) schedPending(t sim.Time) bool {
	return e.nextEv < len(e.sched) && e.sched[e.nextEv].At <= t
}

// applyEvent mutates the engine's runtime state per one event. Error
// model changes may switch a perfect channel lossy (enabling the
// channel RNG from this busy period on — a perfect-channel run with no
// such event never draws from it, preserving the pre-extension draw
// sequence); topology edits go to the engine-owned clone, which the
// busy-period resolver reads from the next busy period on.
func (e *Engine) applyEvent(ev *ScheduledEvent) {
	if te := ev.SetTopologyEdge; te != nil {
		e.topoOwned.hear[te.A][te.B] = te.Hears
		e.topoOwned.hear[te.B][te.A] = te.Hears
	}
	if ev.SetFER == nil && ev.SetBER == nil && ev.SetDataRate == nil && ev.SetPowerDB == nil {
		return
	}
	if ev.Target >= 0 {
		e.applyStationEvent(e.stations[ev.Target], ev)
		return
	}
	for _, s := range e.stations {
		e.applyStationEvent(s, ev)
	}
}

// applyStationEvent applies one event's station-parameter fields to s.
func (e *Engine) applyStationEvent(s *station, ev *ScheduledEvent) {
	if f := ev.SetFER; f != nil {
		s.loss.FER = *f
		if *f > 0 {
			e.lossy = true
		}
	}
	if b := ev.SetBER; b != nil {
		s.loss.BER = *b
		if *b > 0 {
			e.lossy = true
		}
	}
	if r := ev.SetDataRate; r != nil {
		s.rate = *r
		if s.rate == 0 {
			s.rate = e.phy.DataRate
		}
	}
	if p := ev.SetPowerDB; p != nil {
		s.power = *p
	}
}
