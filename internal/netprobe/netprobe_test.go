package netprobe

import (
	"net"
	"strings"
	"testing"
	"time"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Magic: Magic, Session: 7, Seq: 3, Total: 10, SentNs: 123456789, Size: 1500}
	// ParseHeader validates Size against the datagram length, so hand it
	// the full-size datagram the sender would emit.
	buf := make([]byte, h.Size)
	h.Marshal(buf)
	got, err := ParseHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("round trip: %+v != %+v", got, h)
	}
}

func TestParseHeaderErrors(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Header)
		frag string
	}{
		{"bad magic", func(h *Header) { h.Magic = 1 }, "magic"},
		{"zero total", func(h *Header) { h.Total = 0 }, "seq"},
		{"seq >= total", func(h *Header) { h.Seq = 10 }, "seq"},
		{"size exceeds datagram", func(h *Header) { h.Size = HeaderLen + 1 }, "size"},
		{"size below datagram", func(h *Header) { h.Size = HeaderLen - 1 }, "size"},
	}
	for _, tt := range tests {
		h := Header{Magic: Magic, Session: 1, Seq: 0, Total: 10, Size: HeaderLen}
		tt.mut(&h)
		buf := make([]byte, HeaderLen)
		h.Marshal(buf)
		_, err := ParseHeader(buf)
		if err == nil || !strings.Contains(err.Error(), tt.frag) {
			t.Errorf("%s: err = %v", tt.name, err)
		}
	}
	if _, err := ParseHeader(make([]byte, 4)); err == nil {
		t.Error("short packet accepted")
	}
}

func TestTrainSpecValidate(t *testing.T) {
	good := TrainSpec{N: 10, Gap: time.Millisecond, Size: 1400, Session: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []TrainSpec{
		{N: 1, Size: 1400},
		{N: 2, Gap: -1, Size: 1400},
		{N: 2, Size: 10},
		{N: 2, Size: 70000},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("spec %d accepted: %+v", i, s)
		}
	}
}

// loopbackPair builds a receiver socket and a sender dialled at it.
func loopbackPair(t *testing.T) (*Sender, *Receiver) {
	t.Helper()
	pc, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP available: %v", err)
	}
	t.Cleanup(func() { pc.Close() })
	conn, err := net.Dial("udp4", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return NewSender(conn), NewReceiver(pc)
}

func TestLoopbackTrain(t *testing.T) {
	snd, rcv := loopbackPair(t)
	spec := TrainSpec{N: 10, Gap: 2 * time.Millisecond, Size: 600, Session: 42}

	done := make(chan *Report, 1)
	errc := make(chan error, 1)
	go func() {
		rep, err := rcv.ReceiveTrain(42, time.Now().Add(5*time.Second))
		done <- rep
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the receiver arm

	stamps, err := snd.SendTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(stamps) != 10 {
		t.Fatalf("sent %d stamps", len(stamps))
	}
	rep := <-done
	if err := <-errc; err != nil {
		t.Fatalf("receive: %v (report %+v)", err, rep)
	}
	if rep.Received != 10 || rep.Lost != 0 {
		t.Fatalf("received %d lost %d", rep.Received, rep.Lost)
	}
	// Loopback preserves pacing loosely; the gap should be within an
	// order of magnitude of the input gap.
	if rep.OutputGap <= 0 || rep.OutputGap > 20*time.Millisecond {
		t.Errorf("output gap %v implausible for 2ms pacing", rep.OutputGap)
	}
	if rep.RateBps <= 0 {
		t.Error("no rate estimate")
	}
	if rep.Size != spec.Size {
		t.Errorf("report size %d, want the %d bytes sent", rep.Size, spec.Size)
	}
}

func TestLoopbackPairBackToBack(t *testing.T) {
	snd, rcv := loopbackPair(t)
	done := make(chan *Report, 1)
	errc := make(chan error, 1)
	go func() {
		rep, err := rcv.ReceiveTrain(7, time.Now().Add(5*time.Second))
		done <- rep
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if _, err := snd.SendTrain(TrainSpec{N: 2, Gap: 0, Size: 1200, Session: 7}); err != nil {
		t.Fatal(err)
	}
	rep := <-done
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if rep.Received != 2 {
		t.Fatalf("received %d", rep.Received)
	}
	// Back-to-back over loopback: dispersion is tiny but non-negative.
	if rep.OutputGap < 0 {
		t.Error("negative dispersion")
	}
}

func TestReceiveTimeoutPartial(t *testing.T) {
	snd, rcv := loopbackPair(t)
	done := make(chan *Report, 1)
	errc := make(chan error, 1)
	go func() {
		rep, err := rcv.ReceiveTrain(9, time.Now().Add(300*time.Millisecond))
		done <- rep
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	// Send a train claiming 5 packets but emit only 3 (by sending a
	// 3-packet prefix manually).
	buf := make([]byte, 400)
	for i := 0; i < 3; i++ {
		h := Header{Magic: Magic, Session: 9, Seq: uint32(i), Total: 5, Size: 400}
		h.Marshal(buf)
		if _, err := snd.conn.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	rep := <-done
	if err := <-errc; err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if rep.Received != 3 || rep.Lost != 2 {
		t.Errorf("received %d lost %d, want 3/2", rep.Received, rep.Lost)
	}
}

func TestReceiverIgnoresOtherSessions(t *testing.T) {
	snd, rcv := loopbackPair(t)
	done := make(chan *Report, 1)
	errc := make(chan error, 1)
	go func() {
		rep, err := rcv.ReceiveTrain(2, time.Now().Add(3*time.Second))
		done <- rep
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	// Noise from session 1, then the real train for session 2.
	if _, err := snd.SendTrain(TrainSpec{N: 3, Size: 300, Session: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := snd.SendTrain(TrainSpec{N: 4, Size: 300, Session: 2}); err != nil {
		t.Fatal(err)
	}
	rep := <-done
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if rep.Session != 2 || rep.Received != 4 {
		t.Errorf("report %+v", rep)
	}
}

func TestSendTrainPacingTargets(t *testing.T) {
	// With a fake clock the sender must hit exact absolute deadlines.
	var now time.Time
	base := time.Unix(1000, 0)
	now = base
	pc, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer pc.Close()
	conn, err := net.Dial("udp4", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	s := NewSender(conn)
	s.now = func() time.Time { return now }
	s.sleep = func(d time.Duration) { now = now.Add(d + 100*time.Microsecond) }
	stamps, err := s.SendTrain(TrainSpec{N: 5, Gap: time.Millisecond, Size: 100, Session: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range stamps {
		want := base.Add(time.Duration(i) * time.Millisecond)
		if st.Before(want) {
			t.Errorf("packet %d sent at %v before target %v", i, st, want)
		}
		if st.Sub(want) > time.Millisecond {
			t.Errorf("packet %d sent %v after target", i, st.Sub(want))
		}
	}
}

func TestSendTrainInvalidSpec(t *testing.T) {
	snd, _ := loopbackPair(t)
	if _, err := snd.SendTrain(TrainSpec{N: 1, Size: 100}); err == nil {
		t.Error("invalid spec accepted")
	}
}

// sendRaw marshals and writes one probe datagram of the given length.
func sendRaw(t *testing.T, snd *Sender, h Header, length int) {
	t.Helper()
	buf := make([]byte, length)
	h.Marshal(buf)
	if _, err := snd.conn.Write(buf); err != nil {
		t.Fatal(err)
	}
}

// TestReceiveTrainDeduplicatesSeq covers the UDP-duplication bug: a
// duplicated datagram must not complete a train that is still missing a
// distinct sequence number.
func TestReceiveTrainDeduplicatesSeq(t *testing.T) {
	snd, rcv := loopbackPair(t)
	done := make(chan *Report, 1)
	errc := make(chan error, 1)
	go func() {
		rep, err := rcv.ReceiveTrain(11, time.Now().Add(400*time.Millisecond))
		done <- rep
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	// A 3-packet train where seq 0 is duplicated and seq 2 never sent:
	// three datagrams arrive, but only two distinct sequence numbers.
	h := Header{Magic: Magic, Session: 11, Total: 3, Size: 300}
	h.Seq = 0
	sendRaw(t, snd, h, 300)
	sendRaw(t, snd, h, 300) // duplicate of seq 0
	h.Seq = 1
	sendRaw(t, snd, h, 300)
	rep := <-done
	if err := <-errc; err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout (duplicate must not complete the train)", err)
	}
	if rep.Received != 2 || rep.Lost != 1 {
		t.Errorf("received %d lost %d, want 2/1", rep.Received, rep.Lost)
	}
}

// TestReceiveTrainDeduplicatedComplete: with duplicates present, the
// train still completes once every distinct sequence number arrives.
func TestReceiveTrainDeduplicatedComplete(t *testing.T) {
	snd, rcv := loopbackPair(t)
	done := make(chan *Report, 1)
	errc := make(chan error, 1)
	go func() {
		rep, err := rcv.ReceiveTrain(12, time.Now().Add(3*time.Second))
		done <- rep
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	h := Header{Magic: Magic, Session: 12, Total: 3, Size: 300}
	for _, seq := range []uint32{0, 0, 1, 1, 2} {
		h.Seq = seq
		sendRaw(t, snd, h, 300)
	}
	rep := <-done
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if rep.Received != 3 || rep.Lost != 0 {
		t.Errorf("received %d lost %d, want 3/0", rep.Received, rep.Lost)
	}
}

// TestReceiveTrainRejectsMismatchedSize covers the Size-validation bug:
// datagrams whose wire length disagrees with their header's Size field
// are discarded rather than counted (and rather than polluting the
// size-based rate estimate).
func TestReceiveTrainRejectsMismatchedSize(t *testing.T) {
	snd, rcv := loopbackPair(t)
	done := make(chan *Report, 1)
	errc := make(chan error, 1)
	go func() {
		rep, err := rcv.ReceiveTrain(13, time.Now().Add(400*time.Millisecond))
		done <- rep
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	h := Header{Magic: Magic, Session: 13, Total: 2, Size: 500}
	h.Seq = 0
	sendRaw(t, snd, h, 500) // honest packet
	h.Seq = 1
	sendRaw(t, snd, h, 400) // claims 500 bytes, carries 400: must be dropped
	rep := <-done
	if err := <-errc; err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout (truncated datagram must not count)", err)
	}
	if rep.Received != 1 {
		t.Errorf("received %d, want 1", rep.Received)
	}
}

// TestFinishReportConservativeSize: if mixed-size packets somehow form
// one train (each self-consistent on the wire), the rate derives from
// the smallest validated size, not whichever packet was counted last.
func TestFinishReportConservativeSize(t *testing.T) {
	base := time.Unix(2000, 0)
	recvs := []Reception{
		{Header: Header{Magic: Magic, Session: 1, Seq: 0, Total: 3, Size: 900}, At: base, Len: 900},
		{Header: Header{Magic: Magic, Session: 1, Seq: 1, Total: 3, Size: 300}, At: base.Add(time.Millisecond), Len: 300},
		{Header: Header{Magic: Magic, Session: 1, Seq: 2, Total: 3, Size: 900}, At: base.Add(2 * time.Millisecond), Len: 900},
	}
	rep := &Report{Session: 1, Expected: 3}
	finishReport(rep, recvs)
	if rep.Received != 3 {
		t.Fatalf("received %d", rep.Received)
	}
	want := float64(300*8) / rep.OutputGap.Seconds()
	if rep.RateBps != want {
		t.Errorf("RateBps = %g, want %g (smallest validated size)", rep.RateBps, want)
	}
	if rep.Size != 300 {
		t.Errorf("Size = %d, want 300 (smallest validated size)", rep.Size)
	}
}
