package mac

import (
	"math"
	"math/bits"

	"csmabw/internal/sim"
)

// This file holds the busy-period resolver, the one engine path that
// turns expiring countdowns into transmissions on every topology. A
// busy period is a *cluster* of possibly overlapping transmissions: a
// station that hears none of the ongoing transmitters keeps counting
// down and can start mid-air — the hidden-terminal effect. A full mesh
// is the cluster no one can join: everyone who does not transmit at the
// first instant hears that transmission and freezes.
//
// The cluster is resolved at the common receiver, which hears every
// station. Per the package-comment simplifications, control frames are
// never corrupted, and stations outside the cluster resume contention
// no earlier than the cluster's end.
//
// The resolver allocates nothing: candidates and entries (a value
// arena) live in engine-owned scratch, sized by init for one of each
// per station, that Reset carries over.

// clusterEntry is one transmission inside a busy cluster.
type clusterEntry struct {
	s   *station
	f   *Frame
	rts bool

	start   sim.Time // airtime start
	airEnd  sim.Time // end of the frame's own airtime (RTS, or the data frame)
	dataEnd sim.Time // end of the data frame if the exchange proceeds
	exchEnd sim.Time // end of the full exchange including the ACK
	// vulnEnd is the last instant a hidden joiner can disrupt this
	// entry: the end of the data frame, or — with RTS/CTS — the end of
	// the CTS, after which every station has heard the receiver's CTS
	// and defers for the rest of the exchange (the NAV reservation; the
	// collision-window shortening RTS/CTS exists for).
	vulnEnd sim.Time

	collided  bool // overlapped at the receiver by another entry and lost
	captured  bool // overlapped, but decoded through the capture rule
	corrupted bool // decodable, but failed the channel error trial
}

// clusterCand is a contending station that did not transmit at the
// cluster's first instant and may not hear everyone (its countdown
// expiry is the station's cached one) with, once the cluster has grown,
// the instant its countdown froze: the start of the first transmission
// it heard (heard set), the end of the receiver's vulnerable window, or
// sim.MaxTime when the countdown expired inside the cluster instead (the
// station joined it, or its post-backoff ended).
type clusterCand struct {
	s      *station
	freeze sim.Time
	heard  bool
}

// candLess orders candidates by (expiry, station id). Station ids are
// unique, so this is a total order.
func candLess(a, b clusterCand) bool {
	if a.s.expiry != b.s.expiry {
		return a.s.expiry < b.s.expiry
	}
	return a.s.id < b.s.id
}

// sortCands sorts cands in place by candLess. An insertion sort: the
// slice holds at most one candidate per station and arrives in station
// order, and unlike sort.Slice it allocates nothing.
func sortCands(cands []clusterCand) {
	for i := 1; i < len(cands); i++ {
		c := cands[i]
		j := i
		for ; j > 0 && candLess(c, cands[j-1]); j-- {
			cands[j] = cands[j-1]
		}
		cands[j] = c
	}
}

// appendEntry appends s's transmission starting at start, with its
// exchange timeline, to entries. The entry is built in place: entries
// has room for one per station (init sizes the scratch), and the slot's
// previous contents are overwritten field by field.
func (e *Engine) appendEntry(entries []clusterEntry, s *station, start sim.Time) []clusterEntry {
	entries = entries[:len(entries)+1]
	en := &entries[len(entries)-1]
	sifs := e.phy.SIFS
	f := s.hol()
	en.s, en.f, en.start, en.rts = s, f, start, e.usesRTS(f)
	en.collided, en.captured, en.corrupted = false, false, false
	if en.rts {
		en.airEnd = start + e.rtsT
		en.vulnEnd = en.airEnd + sifs + e.ctsT // CTS end
		en.dataEnd = en.vulnEnd + sifs + e.dataTxTime(s, f.Size)
	} else {
		en.airEnd = start + e.dataTxTime(s, f.Size)
		en.dataEnd = en.airEnd
		en.vulnEnd = en.airEnd
	}
	en.exchEnd = en.dataEnd + sifs + e.ackT
	return entries
}

// endPostBackoff ends a post-backoff countdown that expired with an
// empty queue: the station returns to the fully idle state.
func (e *Engine) endPostBackoff(s *station) {
	s.backoff = -1
	e.nActive--
}

// transmitCluster resolves the busy period starting at txAt: it forms
// the cluster seeded by the countdowns expiring at txAt, grows it with
// hidden stations whose countdowns keep running, resolves every
// transmission at the common receiver, and advances the clock to the
// cluster's end (a TXOP burst's end, when the lone exchange bursts).
// Arrivals during the busy period are left for Run to admit. All
// iteration is in (time, station id) order and all randomness comes
// from the engine's own generators, so runs are deterministic for a
// given config and seed.
func (e *Engine) transmitCluster(txAt sim.Time) {
	mesh := e.topo == nil
	cands, entries := e.candScratch[:0], e.entryScratch[:0]

	// One scan over the countdowns, reading the expiries the idle period
	// cached (arm). Those expiring by txAt transmit there. On a full
	// mesh every other station hears that transmission, whoever makes
	// it, and freezes at txAt; with a hearing graph the others become
	// candidates, settled once the cluster is known.
	for _, s := range e.stations {
		if s.backoff < 0 {
			continue
		}
		switch {
		case s.expiry <= txAt && s.hol() == nil:
			e.endPostBackoff(s)
		case s.expiry <= txAt:
			entries = e.appendEntry(entries, s, txAt)
		case mesh:
			e.decrementTo(s, txAt)
		default:
			cands = append(cands, clusterCand{s: s})
		}
	}
	e.now = txAt
	if len(entries) == 0 {
		// No transmission happened; the candidates counted down to txAt.
		for _, c := range cands {
			e.decrementTo(c.s, txAt)
		}
		return
	}

	// Grow the cluster. Candidates are processed in expiry order: a
	// candidate that hears a transmission already on the air froze at
	// that transmission's start; one that hears nothing keeps counting,
	// and transmits if it expires while the receiver is still
	// vulnerable. Candidates expiring after the vulnerable window have
	// heard the receiver's CTS/ACK by then and freeze — if the receiver
	// sent one at all, which is settled below.
	if len(cands) > 0 {
		sortCands(cands)
		vulnEnd := txAt
		for i := range entries {
			vulnEnd = max(vulnEnd, entries[i].vulnEnd)
		}
		for i := range cands {
			c := &cands[i]
			expiry := c.s.expiry
			c.freeze = sim.MaxTime
			for j := range entries {
				// A transmission starting in the same slot as c's expiry
				// cannot be sensed in time: both stations transmit.
				if st := entries[j].start; st < expiry && st < c.freeze && e.hears(c.s.id, entries[j].s.id) {
					c.freeze = st
				}
			}
			switch {
			case c.freeze != sim.MaxTime:
				c.heard = true
			case expiry >= vulnEnd:
				c.freeze = vulnEnd
			case c.s.hol() == nil:
				e.endPostBackoff(c.s)
			default:
				entries = e.appendEntry(entries, c.s, expiry)
				vulnEnd = max(vulnEnd, entries[len(entries)-1].vulnEnd)
			}
		}
	}

	// Resolve at the common receiver, one pass in entry order: an entry
	// is disrupted when another entry's airtime overlaps its vulnerable
	// window, and capture rescues it when its power margin over every
	// overlapping transmission meets the threshold. A frame the receiver
	// decodes then takes its channel error trial. The cluster ends when
	// its last exchange (or doomed airtime) ends; receiverSpoke records
	// whether the receiver transmitted at all (a CTS for a clean RTS
	// handshake, or an ACK for a delivered frame): only then do stations
	// hidden from every transmitter learn the medium was busy. collision
	// and corrupt record whether any entry collided or was corrupted.
	end, receiverSpoke, collision, corrupt := txAt, false, false, false
	for i := range entries {
		en := &entries[i]
		disrupted, strongest := false, math.Inf(-1)
		for j := range entries {
			if o := &entries[j]; j != i && o.start < en.vulnEnd && o.airEnd > en.start {
				disrupted = true
				strongest = max(strongest, o.s.power)
			}
		}
		en.captured = disrupted && e.captureOn && en.s.power-strongest >= e.cfg.Channel.CaptureThresholdDB
		en.collided = disrupted && !en.captured
		t := en.exchEnd
		switch {
		case en.collided:
			t = en.airEnd
			collision = true
		case e.lossy && e.chrng.Float64() < en.s.loss.FrameErrorProb(en.f.Size):
			en.corrupted, corrupt = true, true
			t = en.dataEnd
			receiverSpoke = receiverSpoke || en.rts
		default:
			receiverSpoke = true
		}
		end = max(end, t)
	}
	e.now = end

	// Frozen countdowns decrement by the slots elapsed before their
	// freeze instant. A station that heard no transmitter froze only if
	// the receiver spoke (its CTS/ACK reaches everyone); with the
	// receiver silent too, the station sensed an idle medium throughout
	// and its countdown — an absolute expiry — continues untouched, so
	// it may start the next busy period immediately. That re-collision
	// pressure is the hidden-terminal pathology RTS/CTS exists to fix.
	for _, c := range cands {
		if c.freeze != sim.MaxTime && (c.heard || receiverSpoke) {
			e.decrementTo(c.s, c.freeze)
		}
	}

	// Per-entry outcomes, in airtime order (initial entries in station
	// order, then joiners in expiry order).
	for i := range entries {
		en := &entries[i]
		s, f := en.s, en.f
		s.inTx = true
		if en.collided || en.corrupted {
			st := &e.res.Stats[s.id]
			st.Attempts++
			if e.cfg.OnEvent != nil {
				e.cfg.OnEvent(Event{At: en.start, Kind: EvTxStart, Station: s.id,
					Size: f.Size, Probe: f.Probe, Index: f.Index, Retries: s.retries, AC: s.ac})
			}
			if en.corrupted {
				st.ChannelErrors++
				if e.cfg.OnEvent != nil {
					e.cfg.OnEvent(Event{At: en.dataEnd, Kind: EvPhyError, Station: s.id,
						Size: f.Size, Probe: f.Probe, Index: f.Index, Retries: s.retries, AC: s.ac})
				}
			} else {
				st.Collisions++
				if e.cfg.OnEvent != nil {
					e.cfg.OnEvent(Event{At: en.start, Kind: EvCollision, Station: s.id,
						Size: f.Size, Probe: f.Probe, Index: f.Index, Retries: s.retries, AC: s.ac})
				}
			}
			e.retryFail(s, end)
			continue
		}
		e.deliver(s, f, en.start, en.dataEnd, en.exchEnd, en.captured)
	}

	// Bystander bookkeeping: what a station defers with next depends on
	// what it could hear. A heard collision forces EIFS — even when the
	// receiver captured another frame of the overlap; a heard corrupted
	// frame triggers the bystander's own decode trial (its copy crossed
	// an independent channel); a heard clean exchange clears any pending
	// EIFS; hearing nothing leaves it untouched.
	for _, o := range e.stations {
		switch {
		case o.inTx:
			o.inTx = false
			o.idleAt = end
			continue
		case mesh && !corrupt:
			// On a full mesh every bystander heard every entry; with no
			// corrupted frame to decode, all of them defer alike.
			o.idleAt, o.eifs = end, collision
			continue
		}
		heard, heardCollision, heardCorrupt := false, false, false
		for i := range entries {
			if en := &entries[i]; e.hears(o.id, en.s.id) {
				heard = true
				heardCollision = heardCollision || en.collided
				heardCorrupt = heardCorrupt || en.corrupted
			}
		}
		if !heard && !receiverSpoke {
			// The station heard neither a transmitter nor the receiver:
			// from its perspective the medium stayed idle and nothing
			// about its state changes.
			continue
		}
		o.idleAt = end
		switch {
		case heardCollision:
			o.eifs = true
		case heardCorrupt:
			bad := false
			for i := range entries {
				en := &entries[i]
				if en.corrupted && e.hears(o.id, en.s.id) &&
					e.chrng.Float64() < en.s.loss.FrameErrorProb(en.f.Size) {
					bad = true
				}
			}
			o.eifs = bad
		default:
			// A clean data exchange, or at least the receiver's own
			// CTS/ACK, was decodable: any pending EIFS is cleared.
			o.eifs = false
		}
	}

	// A lone clean exchange may continue as a TXOP burst; only a full
	// mesh admits TXOP limits (resolveEDCA), so everyone defers to it.
	if en := &entries[0]; len(entries) == 1 && !en.corrupted && en.s.txop > 0 {
		e.txopBurst(en.s, txAt)
	}
}

// decrementTo decrements s's frozen countdown by the whole slots that
// elapsed between its cached sensing start and the freeze instant. A
// freeze at or past the cached expiry leaves no slot to count.
func (e *Engine) decrementTo(s *station, freezeAt sim.Time) {
	switch {
	case freezeAt <= s.cdStart:
	case freezeAt >= s.expiry:
		s.backoff = 0
	default:
		s.backoff -= int(slotsIn(freezeAt-s.cdStart, e.phy.Slot, e.slotInv))
	}
}

// reciprocal returns ⌊2⁶⁴/slot⌋ + 1, the multiplier slotsIn uses in
// place of a division by slot, or 0 when slot is below 2 or not below
// 2³², where no exact one fits.
func reciprocal(slot sim.Time) uint64 {
	if slot < 2 || slot >= 1<<32 {
		return 0
	}
	q, _ := bits.Div64(1, 0, uint64(slot))
	return q + 1
}

// slotsIn returns the whole slots in d ≥ 0, ⌊d/slot⌋, without a 64-bit
// division when it can. For d and slot below 2³² the high word of
// d·reciprocal(slot) is exact: the multiplier overshoots 2⁶⁴/slot by at
// most 1, so the product overshoots d·2⁶⁴/slot by at most d, which is
// below 2⁶⁴/slot and so cannot carry the quotient to the next integer.
func slotsIn(d, slot sim.Time, inv uint64) sim.Time {
	if inv == 0 || d >= 1<<32 {
		return d / slot
	}
	q, _ := bits.Mul64(uint64(d), inv)
	return sim.Time(q)
}
