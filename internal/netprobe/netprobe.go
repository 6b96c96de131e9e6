// Package netprobe is the network-layer probing tool of the
// reproduction: a UDP train sender and receiver with monotonic
// timestamping, playing the role the MGEN toolset and the modified
// driver timestamping play in the paper's testbed (Appendix A).
//
// The tool follows the paper's packet-based approach: it needs no
// knowledge of the layers below IP. The sender emits periodic trains
// (or packet pairs) with a configurable input gap; the receiver
// timestamps arrivals and reports the output dispersion gO, from which
// the dispersion-based rate estimate L/gO follows. Run against a real
// CSMA/CA path it measures achievable throughput exactly as Section 7
// describes; the repository's tests run it over loopback.
package netprobe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"
)

// Magic identifies probe packets on the wire.
const Magic = 0xCB0211AC

// HeaderLen is the wire-format header size in bytes.
const HeaderLen = 28

// Header is the probe packet header. All integers are big-endian on the
// wire.
type Header struct {
	Magic   uint32
	Session uint32 // identifies one train
	Seq     uint32 // packet index within the train
	Total   uint32 // packets in the train
	SentNs  int64  // sender monotonic-ish timestamp (informational)
	Size    uint32 // full datagram length, for sanity checks
}

// Marshal writes the header into b, which must hold HeaderLen bytes.
func (h Header) Marshal(b []byte) {
	_ = b[HeaderLen-1]
	binary.BigEndian.PutUint32(b[0:], h.Magic)
	binary.BigEndian.PutUint32(b[4:], h.Session)
	binary.BigEndian.PutUint32(b[8:], h.Seq)
	binary.BigEndian.PutUint32(b[12:], h.Total)
	binary.BigEndian.PutUint64(b[16:], uint64(h.SentNs))
	binary.BigEndian.PutUint32(b[24:], h.Size)
}

// ParseHeader decodes and validates a probe header. b must be the full
// datagram: the header's Size field — the length the sender claims it
// transmitted — is checked against the bytes that actually arrived, so
// a truncated or padded datagram is rejected instead of silently
// skewing the size-based rate estimate downstream.
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderLen {
		return Header{}, fmt.Errorf("netprobe: packet too short (%d bytes)", len(b))
	}
	h := Header{
		Magic:   binary.BigEndian.Uint32(b[0:]),
		Session: binary.BigEndian.Uint32(b[4:]),
		Seq:     binary.BigEndian.Uint32(b[8:]),
		Total:   binary.BigEndian.Uint32(b[12:]),
		SentNs:  int64(binary.BigEndian.Uint64(b[16:])),
		Size:    binary.BigEndian.Uint32(b[24:]),
	}
	if h.Magic != Magic {
		return Header{}, fmt.Errorf("netprobe: bad magic %#x", h.Magic)
	}
	if h.Total == 0 || h.Seq >= h.Total {
		return Header{}, fmt.Errorf("netprobe: bad seq %d/%d", h.Seq, h.Total)
	}
	if int64(h.Size) != int64(len(b)) {
		return Header{}, fmt.Errorf("netprobe: size field %d does not match datagram length %d", h.Size, len(b))
	}
	return h, nil
}

// TrainSpec describes one probing train to send.
type TrainSpec struct {
	// N is the number of packets (>= 2).
	N int
	// Gap is the input gap gI between consecutive sends; zero sends
	// back-to-back (a packet pair when N == 2).
	Gap time.Duration
	// Size is the full datagram size in bytes (>= HeaderLen).
	Size int
	// Session tags the train; pick distinct values per train.
	Session uint32
}

// Validate reports whether the spec is usable.
func (s TrainSpec) Validate() error {
	switch {
	case s.N < 2:
		return fmt.Errorf("netprobe: train of %d packets (need >= 2)", s.N)
	case s.Gap < 0:
		return fmt.Errorf("netprobe: negative gap %v", s.Gap)
	case s.Size < HeaderLen:
		return fmt.Errorf("netprobe: size %d below header %d", s.Size, HeaderLen)
	case s.Size > 65507:
		return fmt.Errorf("netprobe: size %d exceeds UDP maximum", s.Size)
	}
	return nil
}

// Sender emits probe trains over a connected UDP socket.
type Sender struct {
	conn net.Conn
	// now returns the current time; replaceable for tests.
	now func() time.Time
	// sleep pauses pacing; replaceable for tests.
	sleep func(time.Duration)
}

// NewSender wraps a connected UDP conn (e.g. from net.Dial("udp", addr)).
func NewSender(conn net.Conn) *Sender {
	return &Sender{conn: conn, now: time.Now, sleep: time.Sleep}
}

// SendTrain emits the train, pacing packets Gap apart. It returns the
// send timestamps (one per packet). Pacing uses absolute deadlines so
// jitter does not accumulate: packet i targets start + i*Gap.
func (s *Sender) SendTrain(spec TrainSpec) ([]time.Time, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	buf := make([]byte, spec.Size)
	stamps := make([]time.Time, 0, spec.N)
	start := s.now()
	for i := 0; i < spec.N; i++ {
		target := start.Add(time.Duration(i) * spec.Gap)
		for {
			now := s.now()
			if !now.Before(target) {
				break
			}
			d := target.Sub(now)
			// Sleep coarsely, then busy-wait the last stretch for
			// microsecond-scale gaps (the paper cares about tens of us).
			if d > 200*time.Microsecond {
				s.sleep(d - 100*time.Microsecond)
			}
		}
		sent := s.now()
		h := Header{
			Magic:   Magic,
			Session: spec.Session,
			Seq:     uint32(i),
			Total:   uint32(spec.N),
			SentNs:  sent.UnixNano(),
			Size:    uint32(spec.Size),
		}
		h.Marshal(buf)
		if _, err := s.conn.Write(buf); err != nil {
			return stamps, fmt.Errorf("netprobe: send %d/%d: %w", i+1, spec.N, err)
		}
		stamps = append(stamps, sent)
	}
	return stamps, nil
}

// Reception is one received probe packet.
type Reception struct {
	Header Header
	At     time.Time // receiver timestamp, taken immediately after read
	Len    int
}

// Report summarises one received train.
type Report struct {
	Session   uint32
	Expected  int
	Received  int
	Lost      int
	OutputGap time.Duration // (d_last - d_first)/(received-1)
	// Size is the datagram size L in bytes: the smallest validated
	// datagram received, 0 when none arrived.
	Size int
	// RateBps is the dispersion estimate L/gO.
	RateBps float64
	// Arrivals holds the receiver timestamps by sequence number; zero
	// time for lost packets.
	Arrivals []time.Time
}

// Receiver collects probe trains from a UDP socket.
type Receiver struct {
	conn net.PacketConn
	now  func() time.Time
}

// NewReceiver wraps a listening UDP conn (e.g. net.ListenPacket).
func NewReceiver(conn net.PacketConn) *Receiver {
	return &Receiver{conn: conn, now: time.Now}
}

// ErrTimeout is returned when the read deadline expires before the
// train completes; the partial report accompanies it.
var ErrTimeout = errors.New("netprobe: timed out waiting for train")

// ReceiveTrain reads packets until a full train with the given session
// id has arrived or the deadline passes. Packets from other sessions,
// packets failing header validation, and duplicates of sequence numbers
// already received are ignored — a UDP-duplicated datagram must not
// complete a train that is still missing a distinct sequence number. On
// timeout the partial report is returned along with ErrTimeout.
func (r *Receiver) ReceiveTrain(session uint32, deadline time.Time) (*Report, error) {
	buf := make([]byte, 65536)
	rep := &Report{Session: session}
	var recvs []Reception
	var seen map[uint32]bool
	for {
		if err := r.conn.SetReadDeadline(deadline); err != nil {
			return rep, err
		}
		n, _, err := r.conn.ReadFrom(buf)
		at := r.now()
		if err != nil {
			if isTimeout(err) {
				finishReport(rep, recvs)
				return rep, ErrTimeout
			}
			return rep, err
		}
		h, perr := ParseHeader(buf[:n])
		if perr != nil || h.Session != session {
			continue
		}
		if rep.Expected == 0 {
			rep.Expected = int(h.Total)
			seen = make(map[uint32]bool, rep.Expected)
		}
		// Deduplicate by sequence number before testing completion:
		// recvs holds one reception per distinct in-range Seq.
		if int(h.Seq) >= rep.Expected || seen[h.Seq] {
			continue
		}
		seen[h.Seq] = true
		recvs = append(recvs, Reception{Header: h, At: at, Len: n})
		if len(recvs) >= rep.Expected {
			finishReport(rep, recvs)
			return rep, nil
		}
	}
}

func finishReport(rep *Report, recvs []Reception) {
	if rep.Expected == 0 {
		for _, rc := range recvs {
			if int(rc.Header.Total) > rep.Expected {
				rep.Expected = int(rc.Header.Total)
			}
		}
	}
	rep.Arrivals = make([]time.Time, rep.Expected)
	size := 0
	var first, last time.Time
	count := 0
	for _, rc := range recvs {
		if int(rc.Header.Seq) < rep.Expected && rep.Arrivals[rc.Header.Seq].IsZero() {
			rep.Arrivals[rc.Header.Seq] = rc.At
			count++
			// Every reception's Len was validated against its header's
			// Size field at parse time. A probing train is fixed-size by
			// construction; should a sender mix sizes anyway, the
			// smallest keeps the dispersion estimate conservative
			// (instead of whichever packet happened to be counted last).
			if size == 0 || rc.Len < size {
				size = rc.Len
			}
			if first.IsZero() || rc.At.Before(first) {
				first = rc.At
			}
			if rc.At.After(last) {
				last = rc.At
			}
		}
	}
	rep.Size = size
	rep.Received = count
	rep.Lost = rep.Expected - count
	if count >= 2 {
		rep.OutputGap = last.Sub(first) / time.Duration(count-1)
		if rep.OutputGap > 0 {
			rep.RateBps = float64(size*8) / rep.OutputGap.Seconds()
		}
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
