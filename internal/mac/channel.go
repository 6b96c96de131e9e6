package mac

import (
	"math"

	"csmabw/internal/sim"
)

// This file holds the multi-domain busy-cluster engine: the engine used
// when Config.Channel.Topology hides some stations from each other. The
// single-domain fast path in mac.go resolves one transmission (or one
// same-slot collision) per busy period; here a busy period is a
// *cluster* of possibly overlapping transmissions, because a station
// that hears none of the ongoing transmitters keeps counting down and
// can start mid-air — the hidden-terminal effect.
//
// The cluster is resolved at the common receiver, which hears every
// station. Per the package-comment simplifications, control frames are
// never corrupted, and stations outside the cluster resume contention
// no earlier than the cluster's end.
//
// Like the single-domain path, the resolver allocates nothing once
// warm: winners, candidates and entries live in engine-owned scratch
// (entries as a value arena) that Reset carries over.

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

	disrupted bool // overlapped at the receiver by another entry
	captured  bool // overlapped, but decoded through the capture rule
	corrupted bool // no (effective) overlap, but failed the channel error trial
}

// clusterCand is a contending station outside the cluster's initial
// winners, with its effective countdown expiry.
type clusterCand struct {
	s      *station
	expiry sim.Time
}

// candLess orders candidates by (expiry, station id). Station ids are
// unique, so this is a total order.
func candLess(a, b clusterCand) bool {
	if a.expiry != b.expiry {
		return a.expiry < b.expiry
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

// newClusterEntry computes the exchange timeline of a transmission
// starting at start.
func (e *Engine) newClusterEntry(s *station, start sim.Time) clusterEntry {
	p := e.phy
	f := s.hol()
	en := clusterEntry{s: s, f: f, start: start, rts: e.usesRTS(f)}
	if en.rts {
		rtsEnd := start + p.RTSTxTime()
		ctsEnd := rtsEnd + p.SIFS + p.CTSTxTime()
		en.airEnd = rtsEnd
		en.vulnEnd = ctsEnd
		en.dataEnd = ctsEnd + p.SIFS + e.dataTxTime(s, f.Size)
	} else {
		en.airEnd = start + e.dataTxTime(s, f.Size)
		en.dataEnd = en.airEnd
		en.vulnEnd = en.airEnd
	}
	en.exchEnd = en.dataEnd + p.SIFS + p.ACKTxTime()
	return en
}

// transmitCluster is the multi-domain counterpart of transmitAt: it
// forms the busy cluster seeded by the countdowns expiring at txAt,
// grows it with hidden stations whose countdowns keep running, resolves
// every transmission at the common receiver, and advances the clock to
// the cluster's end. All iteration is in (time, station id) order and
// all randomness comes from the engine's own generators, so runs are
// deterministic for a given config and seed.
func (e *Engine) transmitCluster(txAt sim.Time) {
	p := e.phy

	winners, cands, entries := e.winnersScratch[:0], e.candScratch[:0], e.entryScratch[:0]
	defer func() {
		e.winnersScratch, e.candScratch, e.entryScratch = winners[:0], cands[:0], entries[:0]
	}()

	// Effective countdown expiries, clamped to now exactly as contend()
	// computed them when it chose txAt.
	for _, s := range e.stations {
		if s.backoff < 0 {
			continue
		}
		t := e.senseStart(s) + sim.Time(s.backoff)*p.Slot
		if t < e.now {
			t = e.now
		}
		if t <= txAt {
			winners = append(winners, s)
			continue
		}
		cands = append(cands, clusterCand{s, t})
	}
	e.now = txAt

	// Post-backoff countdowns that expire with an empty queue simply
	// end; the station returns to the fully idle state.
	for _, s := range winners {
		if s.hol() == nil {
			s.backoff = -1
			s.postBO = false
			e.nActive--
			continue
		}
		entries = append(entries, e.newClusterEntry(s, txAt))
	}
	if len(entries) == 0 {
		// No transmission happened; the others counted down to txAt.
		for _, c := range cands {
			decrementTo(c.s, e.senseStart(c.s), txAt, p.Slot)
		}
		return
	}

	// Grow the cluster. Candidates are processed in expiry order: a
	// candidate that hears a transmission already on the air froze at
	// that transmission's start; one that hears nothing keeps counting,
	// and transmits if it expires while the receiver is still
	// vulnerable. Candidates expiring after the vulnerable window have
	// heard the receiver's CTS/ACK by then and freeze.
	sortCands(cands)
	vulnEnd := txAt
	for i := range entries {
		if entries[i].vulnEnd > vulnEnd {
			vulnEnd = entries[i].vulnEnd
		}
	}
	const notFrozen = sim.Time(-1)
	frozen, heardTx := e.frozenScratch, e.heardScratch
	for i := range frozen {
		frozen[i] = notFrozen
		heardTx[i] = false
	}
	for _, c := range cands {
		heard := sim.MaxTime
		// en points into entries, which a joiner's append below may
		// reallocate: it must not outlive this inner loop.
		for i := range entries {
			en := &entries[i]
			// A transmission starting in the same slot as c's expiry
			// cannot be sensed in time: both stations transmit.
			if en.start < c.expiry && en.start < heard && e.hears(c.s.id, en.s.id) {
				heard = en.start
			}
		}
		switch {
		case heard != sim.MaxTime:
			frozen[c.s.id] = heard
			heardTx[c.s.id] = true
		case c.expiry < vulnEnd:
			if c.s.hol() == nil {
				c.s.backoff = -1
				c.s.postBO = false
				e.nActive--
				continue
			}
			en := e.newClusterEntry(c.s, c.expiry)
			entries = append(entries, en)
			if en.vulnEnd > vulnEnd {
				vulnEnd = en.vulnEnd
			}
		default:
			// Expired past the vulnerable window: by then the station
			// has heard the receiver's CTS/ACK — if the receiver sent
			// one at all; otherwise its countdown continues untouched
			// (resolved below once the outcomes are known).
			frozen[c.s.id] = vulnEnd
		}
	}

	// Resolve at the common receiver: an entry is disrupted when any
	// other entry's airtime overlaps its vulnerable window. Capture can
	// rescue a disrupted entry whose power margin over every overlapping
	// transmission meets the threshold.
	for i := range entries {
		en := &entries[i]
		strongest := math.Inf(-1)
		for j := range entries {
			if i == j {
				continue
			}
			other := &entries[j]
			if other.start < en.vulnEnd && other.airEnd > en.start {
				en.disrupted = true
				if other.s.power > strongest {
					strongest = other.s.power
				}
			}
		}
		if en.disrupted && e.captureOn && en.s.power-strongest >= e.cfg.Channel.CaptureThresholdDB {
			en.captured = true
		}
	}

	// Channel error trials for the frames the receiver decodes, in
	// entry order.
	for i := range entries {
		en := &entries[i]
		if en.disrupted && !en.captured {
			continue
		}
		if e.lossy && e.chrng.Float64() < en.s.loss.FrameErrorProb(en.f.Size) {
			en.corrupted = true
		}
	}

	// The cluster ends when its last exchange (or doomed airtime) ends.
	// receiverSpoke records whether the common receiver transmitted at
	// all (a CTS for a clean RTS handshake, or an ACK for a delivered
	// frame): only then do stations hidden from every transmitter learn
	// the medium was busy.
	end := txAt
	receiverSpoke := false
	for i := range entries {
		en := &entries[i]
		t := en.exchEnd
		switch {
		case en.disrupted && !en.captured:
			t = en.airEnd
		case en.corrupted:
			t = en.dataEnd
			receiverSpoke = receiverSpoke || en.rts
		default:
			receiverSpoke = true
		}
		if t > end {
			end = t
		}
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
		fa := frozen[c.s.id]
		if fa == notFrozen {
			continue
		}
		if !heardTx[c.s.id] && !receiverSpoke {
			frozen[c.s.id] = notFrozen
			continue
		}
		decrementTo(c.s, e.senseStart(c.s), fa, p.Slot)
	}

	// Per-entry outcomes, in airtime order (initial entries in station
	// order, then joiners in expiry order).
	for i := range entries {
		en := &entries[i]
		s, f := en.s, en.f
		if en.disrupted && !en.captured || en.corrupted {
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
	// what it could hear. A heard collision forces EIFS; a heard
	// corrupted frame triggers the bystander's own decode trial (its
	// copy crossed an independent channel); a heard clean exchange
	// clears any pending EIFS; hearing nothing leaves it untouched.
	inCluster := e.clusterScratch
	for i := range inCluster {
		inCluster[i] = false
	}
	for i := range entries {
		inCluster[entries[i].s.id] = true
	}
	for _, o := range e.stations {
		if inCluster[o.id] {
			o.idleAt = end
			continue
		}
		heardCollision, heardCorrupt, heardClean := false, false, false
		for i := range entries {
			en := &entries[i]
			if !e.hears(o.id, en.s.id) {
				continue
			}
			switch {
			case en.disrupted && !en.captured:
				heardCollision = true
			case en.corrupted:
				heardCorrupt = true
			default:
				heardClean = true
			}
		}
		if !heardCollision && !heardCorrupt && !heardClean && !receiverSpoke {
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

	e.pumpArrivals(end)
}

// decrementTo decrements s's frozen countdown by the whole slots that
// elapsed between its sensing start and the freeze instant.
func decrementTo(s *station, senseStart, freezeAt, slot sim.Time) {
	if freezeAt <= senseStart {
		return
	}
	elapsed := int((freezeAt - senseStart) / slot)
	if elapsed > s.backoff {
		elapsed = s.backoff
	}
	s.backoff -= elapsed
}
