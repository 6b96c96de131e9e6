package traffic

import (
	"fmt"

	"csmabw/internal/sim"
)

// Source is a pull-based arrival generator: the lazy counterpart of the
// materialized []Arrival schedules. The MAC engine pulls arrivals one at
// a time as simulated time advances, so a replication that stops early
// (for example once its probing train has drained) never pays for the
// tail of a schedule it will not consume — neither the memory for the
// slice nor the RNG draws that would fill it.
//
// A Source must yield arrivals in non-decreasing time order with
// positive sizes; the engine enforces this as it pulls. Sources are
// single-use and not safe for concurrent use: each simulation run owns
// its sources exclusively, exactly as it owns its RNG streams.
//
// Determinism contract: every generator below draws from its RNG in
// exactly the order the eager function of the same name does, so a lazy
// source produces the identical arrival sequence (a prefix of it, when
// the run stops early) for the same generator state.
type Source interface {
	// Next returns the next arrival, or ok == false when the process is
	// exhausted.
	Next() (a Arrival, ok bool)
}

// FromSchedule wraps a materialized schedule as a Source. The slice is
// not copied; callers must not mutate it while the source is live. An
// empty schedule yields one shared exhausted source, which Next never
// writes, so idle flows cost no allocation.
func FromSchedule(sched []Arrival) Source {
	if len(sched) == 0 {
		return exhausted
	}
	return &sliceSource{sched: sched}
}

// exhausted is the source of every empty schedule.
var exhausted = &sliceSource{}

type sliceSource struct {
	sched []Arrival
	next  int
}

// Next implements Source over the wrapped schedule.
func (s *sliceSource) Next() (Arrival, bool) {
	if s.next >= len(s.sched) {
		return Arrival{}, false
	}
	a := s.sched[s.next]
	s.next++
	return a, true
}

// Collect drains a source into a slice — the bridge back to the eager
// representation, used by tests and by callers that genuinely need the
// whole schedule.
func Collect(src Source) []Arrival {
	var out []Arrival
	for {
		a, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, a)
	}
}

// NewPoisson is the lazy form of Poisson: a Poisson arrival process of
// fixed-size packets at rateBps over [start, end), drawing each
// exponential gap from r only when the next arrival is pulled.
func NewPoisson(r *sim.Rand, rateBps float64, size int, start, end sim.Time) Source {
	p := &PoissonSource{}
	p.Init(r, rateBps, size, start, end)
	return p
}

// PoissonSource is NewPoisson's source. Its zero value is inert; Init
// (re)starts it, so a caller that runs many replications keeps one and
// reinitialises it per run instead of allocating.
type PoissonSource struct {
	r    *sim.Rand
	mean sim.Time
	size int
	t    sim.Time // last emitted arrival (process start before the first)
	end  sim.Time
}

// Init starts p as NewPoisson(r, rateBps, size, start, end), discarding
// whatever p held before.
func (p *PoissonSource) Init(r *sim.Rand, rateBps float64, size int, start, end sim.Time) {
	*p = PoissonSource{r: r, mean: gapFor(rateBps, size), size: size, t: start, end: end}
}

// Next implements Source, drawing one exponential gap per pull.
func (p *PoissonSource) Next() (Arrival, bool) {
	p.t += p.r.ExpTime(p.mean)
	if p.t >= p.end {
		return Arrival{}, false
	}
	return Arrival{At: p.t, Size: p.size, Index: -1}, true
}

// NewCBR is the lazy form of CBR: constant-bit-rate fixed-size packets
// over [start, end).
func NewCBR(rateBps float64, size int, start, end sim.Time) Source {
	return &cbrSource{gap: gapFor(rateBps, size), size: size, t: start, end: end}
}

type cbrSource struct {
	gap  sim.Time
	size int
	t    sim.Time
	end  sim.Time
}

// Next implements Source with constant spacing.
func (c *cbrSource) Next() (Arrival, bool) {
	if c.t >= c.end {
		return Arrival{}, false
	}
	a := Arrival{At: c.t, Size: c.size, Index: -1}
	c.t += c.gap
	return a, true
}

// NewTrain is the lazy form of Train: n probe packets with input gap gI
// starting at start, indexed 0..n-1.
func NewTrain(n int, gI sim.Time, size int, start sim.Time) Source {
	t := &TrainSource{}
	t.Init(n, gI, size, start)
	return t
}

// TrainSource is NewTrain's source; like PoissonSource, Init restarts
// it in place.
type TrainSource struct {
	n     int
	gI    sim.Time
	size  int
	start sim.Time
	i     int
}

// Init starts t as NewTrain(n, gI, size, start), panicking on the same
// invalid arguments.
func (t *TrainSource) Init(n int, gI sim.Time, size int, start sim.Time) {
	if n <= 0 {
		panic(fmt.Sprintf("traffic: train length %d must be positive", n))
	}
	if gI < 0 {
		panic(fmt.Sprintf("traffic: negative input gap %v", gI))
	}
	*t = TrainSource{n: n, gI: gI, size: size, start: start}
}

// Next implements Source, emitting the indexed probe packets.
func (t *TrainSource) Next() (Arrival, bool) {
	if t.i >= t.n {
		return Arrival{}, false
	}
	a := Arrival{At: t.start + sim.Time(t.i)*t.gI, Size: t.size, Probe: true, Index: t.i}
	t.i++
	return a, true
}

// NewOnOff is the lazy form of OnOff: exponential ON bursts at peakBps
// separated by exponential OFF periods over [start, end), drawing the
// burst and silence lengths from r in the same order the eager
// generator does.
func NewOnOff(r *sim.Rand, peakBps float64, size int, onMean, offMean, start, end sim.Time) Source {
	s := &OnOffSource{}
	s.Init(r, peakBps, size, onMean, offMean, start, end)
	return s
}

// OnOffSource is NewOnOff's source; like PoissonSource, Init restarts
// it in place.
type OnOffSource struct {
	r       *sim.Rand
	gap     sim.Time
	size    int
	onMean  sim.Time
	offMean sim.Time
	t       sim.Time
	end     sim.Time
	onEnd   sim.Time
	inOn    bool
}

// Init starts s as NewOnOff(r, peakBps, size, onMean, offMean, start,
// end), panicking on the same invalid means.
func (s *OnOffSource) Init(r *sim.Rand, peakBps float64, size int, onMean, offMean, start, end sim.Time) {
	if onMean <= 0 || offMean < 0 {
		panic(fmt.Sprintf("traffic: on/off means %v/%v", onMean, offMean))
	}
	*s = OnOffSource{r: r, gap: gapFor(peakBps, size), size: size,
		onMean: onMean, offMean: offMean, t: start, end: end}
}

// Next implements Source, advancing the burst/silence phases as
// needed to reach the next packet.
func (s *OnOffSource) Next() (Arrival, bool) {
	for {
		if !s.inOn {
			if s.t >= s.end {
				return Arrival{}, false
			}
			s.onEnd = s.t + s.r.ExpTime(s.onMean)
			if s.onEnd > s.end {
				s.onEnd = s.end
			}
			s.inOn = true
		}
		if s.t < s.onEnd {
			a := Arrival{At: s.t, Size: s.size, Index: -1}
			s.t += s.gap
			return a, true
		}
		s.inOn = false
		if s.offMean > 0 {
			s.t += s.r.ExpTime(s.offMean)
		}
	}
}

// Marked wraps a source so every arrival is marked as part of the
// probing flow and indexed sequentially — the lazy form of MarkProbe.
func Marked(src Source) Source {
	return &markedSource{src: src}
}

type markedSource struct {
	src Source
	i   int
}

// Next implements Source, stamping probe marks and indices.
func (m *markedSource) Next() (Arrival, bool) {
	a, ok := m.src.Next()
	if !ok {
		return Arrival{}, false
	}
	a.Probe = true
	a.Index = m.i
	m.i++
	return a, true
}

// MergeSources merges multiple time-ordered sources into one, the lazy
// form of Merge. Ties keep the order in which the sources were passed
// (source 0 before source 1, ...), matching Merge's stable sort, so a
// probe packet scheduled at the same instant as a cross packet keeps
// its FIFO position.
func MergeSources(srcs ...Source) Source {
	if len(srcs) == 1 {
		return srcs[0]
	}
	m := &MergeSource{}
	m.Init(srcs)
	return m
}

// MergeSource is the merge MergeSources builds over two or more
// sources; Init restarts it in place, reusing its per-input storage.
type MergeSource struct {
	srcs   []Source
	heads  []Arrival
	live   []bool
	primed bool
}

// Init starts m as the merge of srcs, in input order. m keeps srcs, not
// a copy: the caller must not change it while m is live.
func (m *MergeSource) Init(srcs []Source) {
	n := len(srcs)
	if cap(m.heads) < n {
		m.heads, m.live = make([]Arrival, n), make([]bool, n)
	}
	*m = MergeSource{srcs: srcs, heads: m.heads[:n], live: m.live[:n]}
}

// Next implements Source: the earliest head among the live inputs,
// input order breaking ties.
func (m *MergeSource) Next() (Arrival, bool) {
	if !m.primed {
		for i, s := range m.srcs {
			m.heads[i], m.live[i] = s.Next()
		}
		m.primed = true
	}
	best := -1
	for i := range m.srcs {
		if !m.live[i] {
			continue
		}
		if best < 0 || m.heads[i].At < m.heads[best].At {
			best = i
		}
	}
	if best < 0 {
		return Arrival{}, false
	}
	a := m.heads[best]
	m.heads[best], m.live[best] = m.srcs[best].Next()
	return a, true
}
