// Command bwprobe is the real-network probing tool: it sends UDP
// probing trains (or packet pairs) and reports receiver-side dispersion
// — the network-layer measurement of the paper's Appendix A, usable
// over any path including live CSMA/CA links.
//
// Receiver:
//
//	bwprobe -recv -listen :9900 [-session 1] [-timeout 10s]
//
// Sender:
//
//	bwprobe -send HOST:9900 [-n 50] [-rate-mbps 5] [-size 1500] [-session 1] [-trains 1] [-mser 0]
//	bwprobe -send HOST:9900 -scenario FILE.json
//
// With -scenario the train shape — packet count, probing rate, payload
// size — comes from a declarative spec file's train probing plan, so
// the same spec drives the simulator tools and the real-network
// sender; explicit -n/-rate-mbps/-size flags override the spec.
//
// With -mser m > 0 the sender is expected to pair with a receiver whose
// report is post-processed by the MSER-m correction; bwprobe -recv
// prints both the raw estimate and, when a full train arrived, the
// corrected one.
package main

import (
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"time"

	"csmabw/internal/clikit"
	"csmabw/internal/core"
	"csmabw/internal/netprobe"
	"csmabw/internal/scenario"
)

// bwprobeConfig is the tool configuration resolved from the command
// line: exactly one of recv/send selects the mode.
type bwprobeConfig struct {
	recv     bool
	listen   string
	send     string
	n        int
	rateMbps float64
	size     int
	session  uint32
	trains   int
	gapMs    float64
	timeout  time.Duration
	mser     int
}

// parseArgs resolves and validates the command line.
func parseArgs(args []string) (*bwprobeConfig, error) {
	fs := flag.NewFlagSet("bwprobe", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	c := &bwprobeConfig{}
	var session uint
	fs.BoolVar(&c.recv, "recv", false, "run as receiver")
	fs.StringVar(&c.listen, "listen", ":9900", "receiver listen address")
	fs.StringVar(&c.send, "send", "", "sender: destination host:port")
	fs.IntVar(&c.n, "n", 50, "packets per train")
	fs.Float64Var(&c.rateMbps, "rate-mbps", 5, "probing rate (Mb/s); 0 = back to back")
	fs.IntVar(&c.size, "size", 1500, "datagram size (bytes)")
	fs.UintVar(&session, "session", 1, "session id")
	fs.IntVar(&c.trains, "trains", 1, "number of trains to send/receive")
	fs.Float64Var(&c.gapMs, "train-gap-ms", 200, "pause between trains (sender)")
	fs.DurationVar(&c.timeout, "timeout", 10*time.Second, "receiver timeout per train")
	fs.IntVar(&c.mser, "mser", 2, "MSER batch size for the corrected estimate (0 = off)")
	scenFlag := clikit.RegisterScenario(fs)
	if err := fs.Parse(args); err != nil {
		return nil, clikit.ParseError(err)
	}
	if scen, err := scenFlag.Compiled(); err != nil {
		return nil, err
	} else if scen != nil {
		// The spec's train plan supplies the sender defaults; explicit
		// flags still win, per the shared precedence rule.
		if scen.Probing.Plan != scenario.PlanTrain {
			return nil, fmt.Errorf("bwprobe needs a train probing plan, scenario %q has %q", scen.Name, scen.Probing.Plan)
		}
		if !clikit.Passed(fs, "n") {
			c.n = scen.Probing.TrainLen
		}
		if !clikit.Passed(fs, "rate-mbps") {
			c.rateMbps = scen.Probing.RateBps / 1e6
		}
		if scen.Link.ProbeSize > 0 && !clikit.Passed(fs, "size") {
			c.size = scen.Link.ProbeSize
		}
		if scen.Probing.Reps > 0 && !clikit.Passed(fs, "trains") {
			c.trains = scen.Probing.Reps
		}
	}
	switch {
	case c.recv && c.send != "":
		return nil, fmt.Errorf("-recv and -send are mutually exclusive")
	case !c.recv && c.send == "":
		return nil, fmt.Errorf("need -recv or -send HOST:PORT")
	}
	if !c.recv {
		// Sender-only knobs; the receiver ignores them, so a shared
		// flag set stays usable on both endpoints.
		if c.n < 2 {
			return nil, fmt.Errorf("-n %d: trains need at least 2 packets", c.n)
		}
		if c.size < netprobe.HeaderLen {
			return nil, fmt.Errorf("-size %d below the %d-byte probe header", c.size, netprobe.HeaderLen)
		}
		if err := clikit.CheckFinite("-rate-mbps", c.rateMbps); err != nil {
			return nil, err
		}
		if err := clikit.CheckFinite("-train-gap-ms", c.gapMs); err != nil {
			return nil, err
		}
		if c.rateMbps < 0 || c.gapMs < 0 {
			return nil, fmt.Errorf("-rate-mbps and -train-gap-ms must be non-negative")
		}
	}
	if c.trains < 1 {
		return nil, fmt.Errorf("-trains %d: need at least 1", c.trains)
	}
	// Train t carries session id -session+t, a 32-bit wire field.
	if uint64(session) > math.MaxUint32 || uint64(c.trains-1) > math.MaxUint32-uint64(session) {
		return nil, fmt.Errorf("-session %d: the ids of %d trains must fit in 32 bits", session, c.trains)
	}
	if c.mser < 0 {
		return nil, fmt.Errorf("-mser %d: need >= 0", c.mser)
	}
	c.session = uint32(session)
	return c, nil
}

// inputGap converts the probing rate into the inter-send gap.
func (c *bwprobeConfig) inputGap() time.Duration {
	if c.rateMbps <= 0 {
		return 0
	}
	return time.Duration(float64(c.size*8) / (c.rateMbps * 1e6) * float64(time.Second))
}

func main() {
	c, err := parseArgs(os.Args[1:])
	clikit.ExitArgs(err)
	if c.recv {
		runReceiver(c)
	} else {
		runSender(c)
	}
}

func runSender(c *bwprobeConfig) {
	conn, err := net.Dial("udp", c.send)
	clikit.Check(err)
	defer conn.Close()
	s := netprobe.NewSender(conn)
	gap := c.inputGap()
	for t := 0; t < c.trains; t++ {
		spec := netprobe.TrainSpec{N: c.n, Gap: gap, Size: c.size, Session: c.session + uint32(t)}
		stamps, err := s.SendTrain(spec)
		clikit.Check(err)
		elapsed := stamps[len(stamps)-1].Sub(stamps[0])
		fmt.Printf("train %d: sent %d x %dB, gI=%v, span=%v\n",
			t+1, len(stamps), c.size, gap, elapsed)
		if t+1 < c.trains {
			time.Sleep(time.Duration(c.gapMs * float64(time.Millisecond)))
		}
	}
}

func runReceiver(c *bwprobeConfig) {
	pc, err := net.ListenPacket("udp", c.listen)
	clikit.Check(err)
	defer pc.Close()
	r := netprobe.NewReceiver(pc)
	fmt.Printf("listening on %s\n", pc.LocalAddr())
	for t := 0; t < c.trains; t++ {
		rep, err := r.ReceiveTrain(c.session+uint32(t), time.Now().Add(c.timeout))
		if err != nil && err != netprobe.ErrTimeout {
			clikit.Check(err)
		}
		status := "complete"
		if err == netprobe.ErrTimeout {
			status = "timeout"
		}
		fmt.Printf("train %d (%s): %d/%d packets, gO=%v, rate=%.3f Mb/s\n",
			t+1, status, rep.Received, rep.Expected, rep.OutputGap, rep.RateBps/1e6)
		if c.mser > 0 && rep.Received >= 4 {
			var deps []float64
			for _, at := range rep.Arrivals {
				if !at.IsZero() {
					deps = append(deps, float64(at.UnixNano())/1e9)
				}
			}
			gaps := core.Gaps(deps)
			corrected := core.CorrectedRate(rep.Size, gaps, c.mser)
			fmt.Printf("          MSER-%d corrected rate=%.3f Mb/s\n", c.mser, corrected/1e6)
		}
	}
}
