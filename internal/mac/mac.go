// Package mac implements a discrete-event simulator of the IEEE 802.11
// Distributed Coordination Function (DCF): infinite FIFO transmission
// queues, binary exponential backoff, DIFS/EIFS sensing, SIFS+ACK
// exchanges, post-backoff, immediate channel access, optional RTS/CTS,
// and collisions between overlapping transmissions at the receiver.
//
// Stations need not be homogeneous. Each StationConfig can select an
// 802.11e EDCA access category (AC, resolved against the base PHY's
// parameter table: AIFS sensing, the category's CWmin/CWmax, TXOP
// bursting) or an explicit EDCAParams override, and a per-station
// data rate for heterogeneous-rate cells — the 802.11 rate anomaly,
// where a slow sender's long airtimes drag every contender's
// throughput toward its own. The zero-value knobs are plain DCF at
// the PHY rate, byte-identical (RNG draw order included) to the
// pre-EDCA engine.
//
// The channel is configurable. The zero-value Channel reproduces the
// paper's validation appendix exactly — a single perfect collision
// domain (NS2 2.29 conditions: no propagation errors, no capture, no
// hidden terminals), where the only overlaps are backoffs expiring in
// the same slot. Beyond that, Config.Channel opens the imperfect-channel
// scenario space:
//
//   - Topology restricts which stations sense each other. Stations
//     hidden from one another transmit with overlapping airtimes and
//     collide at the common receiver (the access point implied by the
//     paper's infrastructure setup, which always hears every station).
//   - Loss corrupts data frames per the phy.ErrorModel; the transmitter
//     times out and backs off with a doubled window, and stations whose
//     own copy was undecodable defer EIFS — the 802.11 recovery rule.
//   - CaptureThresholdDB lets the receiver decode the strongest of
//     several overlapping frames when its power margin is large enough;
//     stations that overheard the overlap still defer EIFS, since the
//     losing frames were undecodable on the air.
//
// One resolver (transmitCluster, channel.go) turns every busy period
// into outcomes, on every topology: a lone exchange, a same-slot
// collision and a cluster of hidden transmissions overlapping at the
// receiver follow the same DCF rules. A full mesh is the cluster no one
// can join — every station that does not transmit first hears the
// first transmission and freezes.
//
// The quantity of interest throughout is the *access delay* of a frame:
// the time from when it reaches the head of its station's FIFO queue
// until it is completely transmitted (Section 3.1 of the paper). The
// engine records it for every delivered frame, along with queueing
// delay, retry counts, and queue-length samples, so the experiment
// drivers can study both the steady state (Figs. 1, 4) and the transient
// (Figs. 6-10, 13, 15-17), under perfect and imperfect channels alike.
//
// The engine core is event-driven rather than scan-driven: a
// per-station array of pending arrival instants and its cached minimum
// replace the all-station arrival scans, an active-station counter
// replaces the all-station backlog scans, and each idle period computes
// every station's sensing start and countdown expiry exactly once,
// updating the minimum incrementally as arrivals are admitted; the
// busy-period resolver reads those cached instants. Traffic is pulled
// lazily from traffic.Source generators (StationConfig.Source), so a
// run that stops early — see Config.StopAfterProbes — never
// materializes or draws the tail of a schedule it will not consume.
// Frames come from a slab arena. None of this changes behaviour: RNG
// draw order is byte-identical to the scan-driven engine.
//
// Model simplifications (documented, deliberate): control frames (RTS,
// CTS, ACK) are never corrupted by the error model — they are short and
// sent at the robust basic rate; ACKs from the common receiver always
// reach their transmitter; and the engine resolves one busy cluster of
// overlapping transmissions at a time, so with hidden stations a
// station in a disjoint domain resumes contention no earlier than the
// cluster's end.
package mac

import (
	"fmt"

	"csmabw/internal/phy"
	"csmabw/internal/sim"
	"csmabw/internal/traffic"
)

// Frame is one packet flowing through the MAC. The timestamps trace its
// life: Arrived (entered FIFO queue) -> HOL (reached head of line) ->
// Departed (data frame completely on the air, i.e. the instant the
// receiver has it).
type Frame struct {
	ID      int64
	Station int
	Size    int // payload bytes
	Probe   bool
	Index   int // probe-train index, -1 for cross traffic

	Arrived  sim.Time
	HOL      sim.Time
	Departed sim.Time
	Retries  int
}

// AccessDelay is the paper's µ_i: head-of-line to complete transmission.
func (f *Frame) AccessDelay() sim.Time { return f.Departed - f.HOL }

// QueueDelay is the time spent waiting behind other frames in the FIFO.
func (f *Frame) QueueDelay() sim.Time { return f.HOL - f.Arrived }

// TotalDelay is the paper's Z_i = d_i - a_i (Eq. 15).
func (f *Frame) TotalDelay() sim.Time { return f.Departed - f.Arrived }

// StationConfig describes one contending station and its offered traffic.
type StationConfig struct {
	// Name appears in diagnostics.
	Name string
	// Arrivals is the station's time-ordered packet schedule. Probe and
	// FIFO cross-traffic sharing one queue are expressed by merging
	// their schedules into a single station (traffic.Merge). Ignored
	// when Source is set.
	Arrivals []traffic.Arrival
	// Source is the lazy form of Arrivals: a pull-based generator the
	// engine consumes as simulated time advances (traffic.MergeSources
	// combines probe and FIFO cross flows). It must yield arrivals in
	// non-decreasing time order with positive sizes; the engine panics
	// on a violation, since by then the run is undefined.
	Source traffic.Source
	// PowerDB is the station's received power at the common receiver in
	// relative dB, consumed by the capture rule. The default 0 dB for
	// every station means equal powers, so no frame can capture.
	PowerDB float64
	// Loss overrides Channel.Loss for frames this station transmits,
	// giving each uplink of the star its own error rate.
	Loss *phy.ErrorModel

	// AC selects the station's 802.11e EDCA access category, resolved
	// against the base PHY's default parameter table (phy.Params.EDCA):
	// AIFS sensing instead of DIFS, the category's CWmin/CWmax, and
	// TXOP bursting for the categories that have a limit. The zero
	// value, phy.ACLegacy, is plain DCF — byte-identical behaviour,
	// including RNG draw order, to the pre-EDCA engine.
	AC phy.AccessCategory
	// EDCA, when non-nil, overrides the table tuple entirely, for
	// scenarios that tune AIFSN/CW/TXOP beyond the standard defaults.
	// AC still labels the station's frames in events and traces.
	EDCA *phy.EDCAParams
	// DataRate is the modulation rate of this station's data frames in
	// bit/s, for heterogeneous-rate cells: a slow sender occupies the
	// medium longer per frame, dragging every contender's throughput
	// toward its own (the 802.11 rate anomaly). Zero means the PHY's
	// DataRate. Control frames always use the PHY's basic rate.
	DataRate float64
}

// Channel describes the propagation environment between the stations
// and their common receiver. The zero value is the perfect single
// collision domain of the original simulator: full-mesh hearing, no
// frame errors, no capture — byte-identical behaviour, including RNG
// draw sequences, to the pre-extension engine.
type Channel struct {
	// Topology is the station hearing graph; nil means full mesh.
	Topology *Topology
	// Loss is the frame-error model applied to every data frame
	// (per-station overrides live in StationConfig.Loss).
	Loss phy.ErrorModel
	// CaptureThresholdDB enables receiver capture: when the strongest
	// of several overlapping frames exceeds the runner-up by at least
	// this margin, the receiver decodes it despite the overlap. Zero
	// disables capture; negative is rejected.
	CaptureThresholdDB float64
}

// Config describes a complete single-BSS scenario.
type Config struct {
	Phy      phy.Params
	Stations []StationConfig
	// Channel selects the propagation model; the zero value is the
	// perfect single collision domain.
	Channel Channel
	// Seed drives every backoff draw. Identical configs and seeds
	// reproduce identical runs.
	Seed int64
	// Horizon stops the simulation even if arrivals remain. Zero means
	// run until all offered traffic is delivered or dropped.
	Horizon sim.Time

	// RTSThreshold enables the RTS/CTS four-way handshake for frames
	// whose payload meets or exceeds it. Zero disables RTS/CTS, which is
	// the paper's configuration ("RTS/CTS is not used"); the option
	// exists as an extension/ablation: with RTS/CTS a collision only
	// wastes an RTS airtime instead of a full data frame.
	RTSThreshold int

	// Schedule lists mid-run parameter changes — time-varying error
	// rates, data rates, powers and hearing-topology edges — in
	// non-decreasing time order (see ScheduledEvent in schedule.go).
	// An empty schedule takes the identical code path, RNG draw order
	// included, as the pre-extension engine.
	Schedule []ScheduledEvent

	// DisableImmediateAccess forces every frame — even one arriving to a
	// fully idle station on an idle medium — to draw a backoff before
	// transmitting. Real DCF grants immediate access after DIFS idle;
	// this switch exists for the ablation study of the mechanism behind
	// the paper's Fig. 6 transient (experiments.AblationImmediateAccess):
	// without the first-packet acceleration the access-delay transient
	// shrinks markedly.
	DisableImmediateAccess bool

	// OnDepart, if set, is invoked at the instant each frame of a
	// recorded station (see RecordFrames) finishes transmission, before
	// it is appended to the result. The engine pointer allows sampling
	// instantaneous state such as queue lengths (used to reproduce
	// Fig. 8 bottom).
	OnDepart func(e *Engine, f *Frame)

	// OnEvent, if set, receives every channel event (transmission
	// start, success, collision, drop, channel error) — the hook
	// cmd/dcfsim's -trace recorder attaches to.
	OnEvent func(ev Event)

	// StopAfterProbes, if positive, ends the run once that many probe
	// frames have been delivered or dropped by the retry limit
	// (Result.ProbesResolved), checked after every resolved busy period.
	// Everything simulated up to the stop instant — delivered frames,
	// stats, hook invocations — is exactly what an un-stopped run would
	// have produced, so a measurement that only needs a prefix of the
	// scenario (a probing train that has fully drained) cuts the tail
	// without changing a single recorded value. Zero runs to the
	// horizon.
	StopAfterProbes int

	// RecordFrames, if set, selects which stations' delivered frames
	// are retained in Result.Frames and passed to OnDepart; other
	// stations deliver normally (stats, events and timing are
	// unaffected) but their frames are neither accumulated nor handed
	// to the hook. Nil records every station.
	RecordFrames func(station int) bool
}

// EventKind classifies channel events for tracing.
type EventKind uint8

// Channel event kinds.
const (
	EvTxStart   EventKind = iota + 1 // a station begins transmitting
	EvSuccess                        // exchange completed, frame delivered
	EvCollision                      // two or more stations transmitted together
	EvDrop                           // retry limit exhausted, frame discarded
	EvPhyError                       // frame corrupted by the channel error model
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvTxStart:
		return "txstart"
	case EvSuccess:
		return "success"
	case EvCollision:
		return "collision"
	case EvDrop:
		return "drop"
	case EvPhyError:
		return "phyerror"
	}
	return "unknown"
}

// Event is one channel event for the trace stream.
type Event struct {
	At      sim.Time
	Kind    EventKind
	Station int
	Size    int // payload bytes of the frame involved (0 for collisions spanning several)
	Probe   bool
	Index   int // probe index or -1
	Retries int
	// AC is the transmitting station's 802.11e access category
	// (phy.ACLegacy for plain DCF stations), so trace analysis can
	// aggregate outcomes per contention class.
	AC phy.AccessCategory
}

// StationStats aggregates per-station outcomes.
type StationStats struct {
	Delivered   int
	Dropped     int
	PayloadBits int64
	Collisions  int // transmission attempts that collided
	Attempts    int // total transmission attempts (wins of contention)
	// ChannelErrors counts attempts whose data frame the error model
	// corrupted at the receiver (no overlap involved).
	ChannelErrors int
	// Captured counts frames delivered through the capture rule despite
	// overlapping transmissions.
	Captured int
}

// Result is everything a run produces.
type Result struct {
	// Frames holds every delivered frame, per station, in departure
	// order (empty for stations excluded by Config.RecordFrames).
	Frames [][]*Frame
	// Stats per station.
	Stats []StationStats
	// End is the simulated time at which the run stopped.
	End sim.Time
	// ProbesResolved counts the probe frames delivered or dropped by
	// the retry limit, on every station (the count StopAfterProbes
	// polls).
	ProbesResolved int
}

// Throughput returns station s's carried rate in bit/s over [from, to],
// counting frames that departed inside the window.
func (r *Result) Throughput(s int, from, to sim.Time) float64 {
	if to <= from {
		return 0
	}
	var bits int64
	for _, f := range r.Frames[s] {
		if f.Departed >= from && f.Departed <= to {
			bits += int64(f.Size) * 8
		}
	}
	return float64(bits) / (to - from).Seconds()
}

// ProbeFrames returns the delivered probe frames of station s ordered by
// train index. Missing indices (dropped frames) are skipped.
func (r *Result) ProbeFrames(s int) []*Frame {
	var out []*Frame
	for _, f := range r.Frames[s] {
		if f.Probe {
			out = append(out, f)
		}
	}
	return out
}

// station is the runtime state of one DCF transmitter.
type station struct {
	id   int
	name string

	src traffic.Source
	// pending is the next arrival pulled from src but not yet due; it
	// is valid while the engine's pendAt entry for the station is below
	// sim.MaxTime. lastAt enforces the source's time ordering.
	pending traffic.Arrival
	lastAt  sim.Time

	queue   []*Frame
	head    int // index of HOL frame within queue (amortised pop)
	cw      int
	retries int
	backoff int  // slots remaining; -1 when no countdown is active
	eifs    bool // next sensing period must be EIFS (observed an erroneous frame)
	inTx    bool // scratch flag: transmitting in the busy period being resolved
	// senseFrom is a personal lower bound on when this station started
	// sensing the medium for the current countdown: a frame arriving to
	// a fully idle station starts sensing at its arrival instant, not at
	// the (possibly long past) moment the medium went idle.
	senseFrom sim.Time
	// idleAt is the instant the medium last became idle from this
	// station's perspective. With a full-mesh topology every station
	// holds the same value; with hidden terminals the views diverge.
	idleAt sim.Time
	// cdStart and expiry cache the armed countdown's sensing start
	// (senseStart) and the instant its backoff runs out. contend's scan
	// and admitIdleArrivals compute them once per idle period; the
	// busy-period resolver that follows reads them, and every contend
	// rebuilds them.
	cdStart, expiry sim.Time

	power    float64        // received power at the common receiver, relative dB
	loss     phy.ErrorModel // resolved error model for this station's uplink
	rng      sim.Rand       // backoff draws
	frameSeq int64

	// EDCA state, resolved once at engine construction. For a
	// zero-value station configuration these reproduce plain DCF
	// exactly: aifs = DIFS, eifsT = EIFS, cwMin/cwMax = the PHY's,
	// txop = 0 and rate = the PHY's DataRate.
	ac    phy.AccessCategory
	aifs  sim.Time // arbitration inter-frame space (DIFS for legacy)
	eifsT sim.Time // extended IFS after an undecodable frame
	cwMin int
	cwMax int
	txop  sim.Time // TXOP limit; 0 = one frame per contention win
	rate  float64  // data-frame modulation rate, bit/s

	// Data airtime cache: airT is the airtime of an airSize-byte payload
	// at airRate, the last frame size and rate dataTxTime saw.
	airSize int
	airRate float64
	airT    sim.Time
}

func (s *station) queueLen() int { return len(s.queue) - s.head }

func (s *station) hol() *Frame {
	if s.queueLen() == 0 {
		return nil
	}
	return s.queue[s.head]
}

func (s *station) popHOL() *Frame {
	f := s.queue[s.head]
	s.queue[s.head] = nil
	s.head++
	if s.head > 64 && s.head*2 >= len(s.queue) {
		s.queue = append(s.queue[:0], s.queue[s.head:]...)
		s.head = 0
	}
	return f
}

// active reports whether the station holds a frame or an armed
// countdown. A countdown with an empty queue is always a post-backoff,
// so this is the predicate the engine's active-station counter tracks.
func (s *station) active() bool { return s.queueLen() > 0 || s.backoff >= 0 }

// advancePending pulls the next arrival from the station's source into
// pending, enforcing the Source ordering contract, and returns its
// instant, or sim.MaxTime once the source is exhausted.
func (s *station) advancePending() sim.Time {
	a, ok := s.src.Next()
	if !ok {
		return sim.MaxTime
	}
	if a.Size <= 0 {
		panic(fmt.Sprintf("mac: station %d (%s): source produced non-positive size %d", s.id, s.name, a.Size))
	}
	if a.At < s.lastAt || a.At < 0 {
		panic(fmt.Sprintf("mac: station %d (%s): source produced out-of-order arrival at %v after %v",
			s.id, s.name, a.At, s.lastAt))
	}
	s.lastAt = a.At
	s.pending = a
	return a.At
}

// Engine runs one scenario. Create with New, drive with Run.
type Engine struct {
	cfg      Config
	phy      phy.Params
	stations []*station
	now      sim.Time
	res      Result
	// ackT, rtsT and ctsT are the control-frame airtimes, fixed by the PHY.
	ackT, rtsT, ctsT sim.Time

	topo      *Topology // nil means full mesh
	lossy     bool      // some link has a non-zero error model
	captureOn bool      // capture threshold configured
	// sched is the engine-owned copy of Config.Schedule (recycled
	// across Resets); nextEv indexes the first unapplied event. When
	// the schedule edits topology edges, topoOwned is the engine's
	// mutable clone of the configured hearing graph.
	sched     []ScheduledEvent
	nextEv    int
	topoOwned *Topology
	// seeds is the run's root generator, seeded from Config.Seed: each
	// station's backoff stream and then chrng are split from it.
	seeds sim.Rand
	// chrng drives channel randomness (frame-error trials). It is a
	// separate stream from the stations' backoff generators, and it is
	// never advanced on a perfect channel, so perfect-channel runs make
	// exactly the pre-extension draw sequence.
	chrng sim.Rand

	// Event-driven bookkeeping: nActive counts stations satisfying
	// station.active(); pendAt holds each station's next arrival
	// instant (sim.MaxTime once its source is exhausted) and nextAt
	// their minimum, refreshed after every pump; arena batches Frame
	// allocations; record caches the RecordFrames decisions; and the
	// scratch slices below are reused across busy periods so the hot
	// path allocates nothing.
	nActive int
	pendAt  []sim.Time
	nextAt  sim.Time
	arena   frameArena
	record  []bool
	// slotInv is the reciprocal the frozen-countdown decrement divides
	// by (see slotsIn); 0 when the PHY's slot admits no exact one.
	slotInv uint64

	candScratch  []clusterCand
	entryScratch []clusterEntry
}

// New validates the configuration and prepares an engine.
func New(cfg Config) (*Engine, error) {
	e := &Engine{}
	if err := e.init(cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset reinitialises the engine for a fresh run of cfg, reusing the
// memory the previous run grew: the frame slab arena, the station
// structs and their FIFO backing arrays, the pending-arrival array, the
// result buffers and the busy-period scratch. The reuse survives a
// change of station count: the per-station state only grows, so a
// Reset to a smaller cell reslices it and one back to a larger cell
// finds the stations it held before. After a successful Reset the engine behaves
// byte-identically — RNG draw order included — to a freshly
// constructed New(cfg), so a worker that measures a batch of
// replications on one engine produces exactly the replications it
// would have produced on a fresh engine each time; the reuse
// equivalence is pinned by TestResetEquivalence and all golden figure
// snapshots.
//
// Reset invalidates the Result of the previous Run and every *Frame it
// referenced: the arena recycles their storage. Callers must copy what
// they need out of a Result before resetting (the probe layer copies
// departures and delays into its TrainSample, so the batched train
// path satisfies this naturally).
//
// If cfg fails validation, Reset returns the error and the engine is
// no longer usable — validation runs against the engine's new state,
// so a failed Reset leaves neither the old nor the new configuration
// intact.
func (e *Engine) Reset(cfg Config) error {
	return e.init(cfg)
}

// init is the shared construction path of New and Reset: validate cfg,
// then (re)build every piece of engine state, reusing the allocations a
// previous run left. The per-station state is grow-only (see resize),
// so every station count takes this one path.
func (e *Engine) init(cfg Config) error {
	if err := cfg.Phy.Validate(); err != nil {
		return err
	}
	if len(cfg.Stations) == 0 {
		return fmt.Errorf("mac: no stations configured")
	}
	if err := cfg.Channel.Loss.Validate(); err != nil {
		return err
	}
	if cfg.Channel.CaptureThresholdDB < 0 {
		return fmt.Errorf("mac: negative capture threshold %g dB", cfg.Channel.CaptureThresholdDB)
	}
	if t := cfg.Channel.Topology; t != nil {
		if err := t.Validate(len(cfg.Stations)); err != nil {
			return err
		}
	}
	e.seeds.Seed(cfg.Seed)
	nSt := len(cfg.Stations)
	e.cfg = cfg
	e.phy = cfg.Phy
	e.ackT, e.rtsT, e.ctsT = cfg.Phy.ACKTxTime(), cfg.Phy.RTSTxTime(), cfg.Phy.CTSTxTime()
	e.topo = cfg.Channel.Topology
	e.now = 0
	e.nActive = 0
	e.captureOn = cfg.Channel.CaptureThresholdDB > 0
	e.lossy = !cfg.Channel.Loss.IsZero()
	e.slotInv = reciprocal(cfg.Phy.Slot)
	e.arena.reset()
	e.stations = resize(e.stations, nSt)
	for i, sc := range cfg.Stations {
		src := sc.Source
		if src == nil {
			if err := traffic.Validate(sc.Arrivals); err != nil {
				return fmt.Errorf("mac: station %d (%s): %w", i, sc.Name, err)
			}
			src = traffic.FromSchedule(sc.Arrivals)
		}
		loss := cfg.Channel.Loss
		if sc.Loss != nil {
			if err := sc.Loss.Validate(); err != nil {
				return fmt.Errorf("mac: station %d (%s): %w", i, sc.Name, err)
			}
			loss = *sc.Loss
			if !loss.IsZero() {
				e.lossy = true
			}
		}
		// Rebuild the station in place, keeping its FIFO backing array;
		// its generator is reseeded with exactly the draw Split would
		// have made, in station order.
		s := e.stations[i]
		if s == nil {
			s = &station{}
			e.stations[i] = s
		}
		*s = station{
			id:      i,
			name:    sc.Name,
			src:     src,
			backoff: -1,
			power:   sc.PowerDB,
			loss:    loss,
			queue:   s.queue[:0],
		}
		e.seeds.SplitInto(uint64(i)+1, &s.rng)
		if err := e.resolveEDCA(s, sc); err != nil {
			return fmt.Errorf("mac: station %d (%s): %w", i, sc.Name, err)
		}
	}
	if err := e.initSchedule(cfg); err != nil {
		return err
	}
	// Derived after the station loop so the stations' substreams stay
	// identical to the pre-extension engine.
	e.seeds.SplitInto(0xC11A17, &e.chrng)
	e.res.Frames = resize(e.res.Frames, nSt)
	for i := range e.res.Frames {
		e.res.Frames[i] = e.res.Frames[i][:0]
	}
	e.res.Stats = resize(e.res.Stats, nSt)
	clear(e.res.Stats)
	e.res.End = 0
	e.res.ProbesResolved = 0
	e.record = resize(e.record, nSt)
	for i := range e.record {
		e.record[i] = cfg.RecordFrames == nil || cfg.RecordFrames(i)
	}
	// A busy period holds at most one entry or candidate per station.
	if cap(e.entryScratch) < nSt {
		e.entryScratch = make([]clusterEntry, 0, nSt)
		e.candScratch = make([]clusterCand, 0, nSt)
	}
	// Prime each station's pending arrival. Every pump writes pendAt, so
	// its array fills whole 64-byte cache lines: two engines built on one
	// goroutine and then run on two would otherwise share a line of it,
	// and each pump would stall on the other core's writes.
	if cap(e.pendAt) < nSt {
		e.pendAt = make([]sim.Time, nSt, (nSt+7)&^7)
	}
	e.pendAt = e.pendAt[:nSt]
	e.nextAt = sim.MaxTime
	for i, s := range e.stations {
		e.pendAt[i] = s.advancePending()
		e.nextAt = min(e.nextAt, e.pendAt[i])
	}
	return nil
}

// resize returns s resliced to length n. It keeps every element of the
// backing array, those past len(s) included, so state sized for an
// earlier, larger cell is found again; it allocates only when cap(s) < n.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		grown := make([]T, n)
		copy(grown, s[:cap(s)])
		return grown
	}
	return s[:n]
}

// resolveEDCA fixes the station's contention parameters and data rate
// from its configuration. A zero-value configuration (ACLegacy, no
// override, no rate) resolves to exactly the pre-EDCA DCF constants —
// the PHY's DIFS/EIFS and window bounds — so default scenarios stay
// byte-identical; anything else resolves against the 802.11e table
// (or the explicit EDCA override).
func (e *Engine) resolveEDCA(s *station, sc StationConfig) error {
	p := e.phy
	if !sc.AC.Valid() {
		return fmt.Errorf("invalid access category %v", sc.AC)
	}
	s.ac = sc.AC
	var edca phy.EDCAParams
	switch {
	case sc.EDCA != nil:
		edca = *sc.EDCA
	default:
		edca = p.EDCA(sc.AC)
	}
	if err := edca.Validate(); err != nil {
		return err
	}
	if sc.EDCA == nil && sc.AC == phy.ACLegacy {
		// Plain DCF: take the PHY's own DIFS/EIFS rather than
		// recomputing them from AIFSN, so custom Params whose DIFS is
		// not SIFS+2*Slot keep their exact pre-EDCA timing.
		s.aifs = p.DIFS
		s.eifsT = p.EIFS()
	} else {
		s.aifs = edca.AIFS(p)
		s.eifsT = p.SIFS + p.ACKTxTime() + s.aifs
	}
	s.cwMin = edca.CWMin
	s.cwMax = edca.CWMax
	s.txop = edca.TXOPLimit
	s.cw = s.cwMin
	if s.txop > 0 && e.topo != nil && !e.topo.IsFullMesh() {
		// A TXOP burst holds the medium on the premise that every other
		// station hears it and defers; a hidden station could start
		// mid-burst, which the resolver does not model, so reject rather
		// than silently ignore the limit.
		return fmt.Errorf("TXOP limit %v unsupported with hidden stations: a burst assumes every station defers to it", s.txop)
	}
	if sc.DataRate < 0 {
		return fmt.Errorf("negative data rate %g", sc.DataRate)
	}
	s.rate = sc.DataRate
	if s.rate == 0 {
		s.rate = p.DataRate
	}
	return nil
}

// dataTxTime is the airtime of a data frame from station s — the
// per-station form of phy.Params.DataTxTime for heterogeneous-rate
// cells.
func (e *Engine) dataTxTime(s *station, payload int) sim.Time {
	if payload != s.airSize || s.rate != s.airRate {
		s.airSize, s.airRate, s.airT = payload, s.rate, e.phy.DataTxTimeAt(payload, s.rate)
	}
	return s.airT
}

// hears reports whether station a senses station b's transmissions.
func (e *Engine) hears(a, b int) bool {
	if e.topo == nil {
		return true
	}
	return e.topo.Hears(a, b)
}

// Now reports the current simulated time (valid inside OnDepart hooks).
func (e *Engine) Now() sim.Time { return e.now }

// QueueLen reports the instantaneous FIFO occupancy of station s,
// including the head-of-line frame.
func (e *Engine) QueueLen(s int) int { return e.stations[s].queueLen() }

// pumpStation moves every due arrival of s into its queue, maintaining
// its pendAt entry and the active-station counter. The caller refreshes
// nextAt.
func (e *Engine) pumpStation(s *station, now sim.Time) {
	wasActive := s.active()
	for e.pendAt[s.id] <= now {
		a := s.pending
		// The arena hands out frames of earlier runs without clearing
		// them, so every field is written before it is read: the
		// arrival's fields here, HOL here or when the frame reaches the
		// head of its queue, Departed and Retries when it is delivered.
		f := e.arena.next()
		f.ID = int64(s.id)<<40 | s.frameSeq
		f.Station = s.id
		f.Size = a.Size
		f.Probe = a.Probe
		f.Index = a.Index
		f.Arrived = a.At
		s.frameSeq++
		if s.queueLen() == 0 {
			f.HOL = a.At
		}
		s.queue = append(s.queue, f)
		e.pendAt[s.id] = s.advancePending()
	}
	if !wasActive && s.active() {
		e.nActive++
	}
}

// pumpArrivals moves every arrival with At <= now into its queue, in
// station order, and refreshes nextAt in the same pass. A pump draws
// only from its own station's source, so the order is free.
func (e *Engine) pumpArrivals(now sim.Time) {
	if e.nextAt > now {
		return
	}
	next := sim.MaxTime
	for i, at := range e.pendAt {
		if at <= now {
			e.pumpStation(e.stations[i], now)
			at = e.pendAt[i]
		}
		next = min(next, at)
	}
	e.nextAt = next
}

// drawBackoff draws a fresh backoff for s from [0, cw].
func (s *station) drawBackoff() { s.backoff = s.rng.Intn(s.cw + 1) }

// senseStart computes the station's IFS end for the current idle
// period: the inter-frame space (the station's AIFS normally — DIFS for
// legacy DCF — or its EIFS after observing an undecodable frame)
// counted from whichever is later — the instant the medium went idle,
// or the instant the station itself started sensing (its frame's
// arrival, for stations that were fully idle). Per-station AIFS is the
// heart of EDCA: a high-priority queue starts its countdown slots
// before a low-priority one after every busy period.
func (e *Engine) senseStart(s *station) sim.Time {
	base := s.idleAt
	if s.senseFrom > base {
		base = s.senseFrom
	}
	if s.eifs {
		return base + s.eifsT
	}
	return base + s.aifs
}

// arm caches s's sensing start and countdown expiry for the current
// idle period and returns its candidate transmission instant: the
// expiry, or now for an immediate-access frame that arrived after its
// DIFS-idle point and so transmits right away.
func (e *Engine) arm(s *station) sim.Time {
	s.cdStart = e.senseStart(s)
	s.expiry = s.cdStart + sim.Time(s.backoff)*e.phy.Slot
	return max(s.expiry, e.now)
}

// Run executes the scenario to completion and returns the result.
// It may only be called once per New or Reset; to run another
// scenario on the same engine (reusing its arenas and scratch),
// Reset it first.
func (e *Engine) Run() *Result {
	horizon := e.cfg.Horizon
	if horizon == 0 {
		horizon = sim.MaxTime
	}
	for e.now < horizon {
		// Arrivals that landed while the medium was busy enter their
		// queues without immediate-access rights (they must back off).
		e.pumpArrivals(e.now)
		if e.nActive == 0 {
			na := e.nextAt
			if na == sim.MaxTime || na > horizon {
				break
			}
			// The medium is idle when these packets arrive: grant
			// immediate access per the DIFS-idle rule.
			e.now = na
			e.admitIdleArrivals()
			continue
		}
		if !e.contend(horizon) {
			break
		}
		if stop := e.cfg.StopAfterProbes; stop > 0 && e.res.ProbesResolved >= stop {
			break
		}
	}
	e.res.End = e.now
	return &e.res
}

// contend resolves one idle period: it determines which station(s)
// transmit next, processes the resulting success or collision, and
// advances the clock past the busy period. It returns false when the
// simulation should stop (horizon reached with nothing left to do).
//
// Every station's candidate transmission instant is computed exactly
// once at the start of the idle period (the only point backoffs can
// need drawing); afterwards the minimum is maintained incrementally as
// arrivals are admitted, so the idle period costs O(stations + due
// arrivals) instead of a full rescan per admitted arrival.
func (e *Engine) contend(horizon sim.Time) bool {
	// Candidate transmission instants for stations with an active
	// countdown (frame pending or post-backoff). Stations that became
	// backlogged while the medium was busy draw their backoff here, in
	// station order — the draw order of the scan-driven engine.
	txAt := sim.MaxTime
	for _, s := range e.stations {
		if s.backoff < 0 {
			if s.hol() == nil {
				continue
			}
			// Frame pending but no countdown: it became HOL while
			// the medium was busy, or the station has no immediate
			// access right. Draw a fresh backoff now.
			s.drawBackoff()
		}
		txAt = min(txAt, e.arm(s))
	}
	for {
		na := e.nextAt
		if txAt == sim.MaxTime && na == sim.MaxTime {
			return false
		}
		if na < txAt {
			// An arrival lands inside the idle period before anyone
			// transmits. Admit it; it may gain immediate access.
			if na > horizon {
				e.now = horizon
				return false
			}
			e.now = na
			if c := e.admitIdleArrivals(); c < txAt {
				txAt = c
			}
			continue
		}
		if txAt > horizon {
			e.now = horizon
			return false
		}
		e.transmitAt(txAt)
		return true
	}
}

// admitIdleArrivals pumps arrivals due now, granting immediate access
// (zero backoff after DIFS sensing) to stations that were completely
// idle — the 802.11 rule that a station sensing the medium idle for DIFS
// transmits without backoff. This acceleration of early probe packets is
// the mechanism behind the paper's transient (Section 4). It returns
// the earliest candidate transmission instant among the newly admitted
// stations (sim.MaxTime when none gained a countdown), so contend can
// maintain its minimum without rescanning.
func (e *Engine) admitIdleArrivals() sim.Time {
	// The due stations are processed in station order, the ablation
	// path's backoff draw order; nextAt is refreshed in the same pass.
	minCand, next := sim.MaxTime, sim.MaxTime
	for i, at := range e.pendAt {
		if at > e.now {
			next = min(next, at)
			continue
		}
		s := e.stations[i]
		hadFrame := s.queueLen() > 0
		counting := s.backoff >= 0
		e.pumpStation(s, e.now)
		next = min(next, e.pendAt[i])
		if s.queueLen() == 0 || hadFrame {
			continue
		}
		// Station just became backlogged.
		if counting {
			// Post-backoff countdown in progress: the frame inherits it
			// (its candidate instant is already accounted for).
			continue
		}
		// The station starts sensing at the arrival instant; it may
		// transmit once it has observed DIFS of idle medium from here.
		s.senseFrom = e.now
		if e.cfg.DisableImmediateAccess {
			// Ablation mode: treat the idle arrival like any other and
			// draw a full backoff.
			s.drawBackoff()
		} else {
			// Fully idle station: immediate access — transmit after DIFS
			// with no backoff.
			s.backoff = 0
		}
		minCand = min(minCand, e.arm(s))
	}
	e.nextAt = next
	return minCand
}

// transmitAt applies the schedule events due by txAt, then resolves
// the busy period starting there.
func (e *Engine) transmitAt(txAt sim.Time) {
	if e.schedPending(txAt) {
		// Scheduled parameter changes take effect here — before the busy
		// period starting at txAt is resolved, and before any channel
		// randomness for it is drawn.
		e.applyEvents(txAt)
	}
	e.transmitCluster(txAt)
}

// usesRTS reports whether frame f is sent with the four-way handshake.
func (e *Engine) usesRTS(f *Frame) bool {
	return e.cfg.RTSThreshold > 0 && f.Size >= e.cfg.RTSThreshold
}

// txopBurst continues station s's transmit opportunity after the frame
// that won contention was delivered (the clock stands at that frame's
// ACK end): the 802.11e TXOP rule lets the winner send further
// already-queued frames back-to-back — SIFS-separated, each
// individually acknowledged — as long as the whole burst, from the
// contention win at txopStart to the last ACK, fits inside the
// station's TXOP limit. The frame that won contention always
// transmits, limit or not, matching the standard's allowance for a
// single frame per opportunity. Frames arriving mid-burst do not join
// it (they contend normally afterwards), burst continuations never use
// RTS/CTS (the opportunity is already protected by the initial
// exchange), and a frame the channel corrupts ends the opportunity
// with the ordinary retry bookkeeping. Captured wins do not burst:
// the overlapping losers' airtime makes the medium state too murky to
// extend the opportunity over.
func (e *Engine) txopBurst(s *station, txopStart sim.Time) {
	sifs := e.phy.SIFS
	for {
		f := s.hol()
		if f == nil {
			return
		}
		txStart := e.now + sifs
		dataEnd := txStart + e.dataTxTime(s, f.Size)
		exchEnd := dataEnd + sifs + e.ackT
		if exchEnd-txopStart > s.txop {
			return
		}
		if e.lossy && e.chrng.Float64() < s.loss.FrameErrorProb(f.Size) {
			e.now = txStart
			e.phyFail(s, f, dataEnd)
			return
		}
		e.now = exchEnd
		for _, o := range e.stations {
			o.idleAt = exchEnd
			o.eifs = false
		}
		e.deliver(s, f, txStart, dataEnd, exchEnd, false)
	}
}

// deliver applies the shared successful-exchange bookkeeping — the
// counterpart of retryFail: the frame's timestamps and result records,
// the trace events, the per-station stats, the contention-window reset
// and the mandatory backoff (regular if more frames wait, post-backoff
// otherwise). Callers advance the clock to the end of the busy period
// first, so the OnDepart hook observes the post-exchange time.
func (e *Engine) deliver(s *station, f *Frame, txStart, dataEnd, exchEnd sim.Time, captured bool) {
	s.popHOL()
	f.Departed = dataEnd
	f.Retries = s.retries
	if e.cfg.OnEvent != nil {
		e.cfg.OnEvent(Event{At: txStart, Kind: EvTxStart, Station: s.id,
			Size: f.Size, Probe: f.Probe, Index: f.Index, Retries: s.retries, AC: s.ac})
		e.cfg.OnEvent(Event{At: dataEnd, Kind: EvSuccess, Station: s.id,
			Size: f.Size, Probe: f.Probe, Index: f.Index, Retries: s.retries, AC: s.ac})
	}

	st := &e.res.Stats[s.id]
	st.Attempts++
	st.Delivered++
	if captured {
		st.Captured++
	}
	st.PayloadBits += int64(f.Size) * 8

	s.cw = s.cwMin
	s.retries = 0
	s.eifs = false
	if nf := s.hol(); nf != nil {
		nf.HOL = exchEnd
	}
	s.drawBackoff()

	if f.Probe {
		e.res.ProbesResolved++
	}
	if e.record[s.id] {
		if e.cfg.OnDepart != nil {
			e.cfg.OnDepart(e, f)
		}
		e.res.Frames[s.id] = append(e.res.Frames[s.id], f)
	}
}

// phyFail handles a TXOP continuation frame the channel corrupted: the
// data frame occupied the medium but arrived corrupted, so no ACK
// follows. The transmitter times out and backs off with a doubled
// window (the ACK timeout is folded into EIFS sensing, as after a
// collision); each bystander draws its own copy's error trial and
// defers EIFS when it, too, could not decode the frame — the rule the
// busy-period resolver applies to the frame that won contention.
func (e *Engine) phyFail(s *station, f *Frame, dataEnd sim.Time) {
	st := &e.res.Stats[s.id]
	st.Attempts++
	st.ChannelErrors++
	if e.cfg.OnEvent != nil {
		e.cfg.OnEvent(Event{At: e.now, Kind: EvTxStart, Station: s.id,
			Size: f.Size, Probe: f.Probe, Index: f.Index, Retries: s.retries, AC: s.ac})
		e.cfg.OnEvent(Event{At: dataEnd, Kind: EvPhyError, Station: s.id,
			Size: f.Size, Probe: f.Probe, Index: f.Index, Retries: s.retries, AC: s.ac})
	}
	for _, o := range e.stations {
		o.idleAt = dataEnd
		if o != s && e.hears(o.id, s.id) {
			o.eifs = e.chrng.Float64() < s.loss.FrameErrorProb(f.Size)
		}
	}
	e.retryFail(s, dataEnd)
	e.now = dataEnd
}

// retryFail applies the shared failed-attempt bookkeeping: the retry
// counter, window doubling or the retry-limit drop, the backoff redraw,
// and the EIFS deferral that stands in for the ACK timeout.
func (e *Engine) retryFail(s *station, at sim.Time) {
	s.retries++
	if s.retries >= e.phy.RetryLimit {
		// Long retry limit exhausted: drop the frame.
		df := s.popHOL()
		e.res.Stats[s.id].Dropped++
		if df.Probe {
			e.res.ProbesResolved++
		}
		if e.cfg.OnEvent != nil {
			e.cfg.OnEvent(Event{At: at, Kind: EvDrop, Station: s.id,
				Size: df.Size, Probe: df.Probe, Index: df.Index, Retries: s.retries, AC: s.ac})
		}
		s.retries = 0
		s.cw = s.cwMin
		if nf := s.hol(); nf != nil {
			nf.HOL = at
		}
	} else {
		s.cw = 2*(s.cw+1) - 1
		if s.cw > s.cwMax {
			s.cw = s.cwMax
		}
	}
	s.drawBackoff()
	// The station senses its ACK timeout before re-contending; fold it
	// into the station's sensing by marking EIFS (ACKTimeout+DIFS ~= EIFS
	// for our PHY profiles).
	s.eifs = true
}

// Run is a convenience wrapper: build an engine and execute it.
func Run(cfg Config) (*Result, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return e.Run(), nil
}
