// Command dcfsim runs the cell of a declarative scenario spec on the
// discrete-event IEEE 802.11 DCF/EDCA MAC engine and prints
// per-station statistics: carried throughput, delays, collision and
// drop counts. It is the general-purpose front end to the simulator
// the figure experiments are built on.
//
// Usage:
//
//	dcfsim -scenario FILE.json [-duration S] [-reps N] [-workers N]
//	       [-seed N] [-rts BYTES] [-trace FILE]
//
// The spec describes the whole cell — stations, traffic, channel,
// EDCA, probing plan (docs/SCENARIOS.md). Station 0 runs the spec's
// probing plan merged with the FIFO cross flows and stations 1.. the
// spec's contenders, each named as in the spec. Explicit -seed and
// -rts flags override the spec's values:
//
//	dcfsim -scenario scenarios/dense-stadium.json -duration 5 -reps 8
//
// With -reps N the cell is replicated N times on -workers goroutines —
// each replication drawing its traffic from an independent RNG
// substream, so the table is identical at any -workers — and the table
// reports per-station means across replications.
//
// -trace FILE writes replication 0's channel events (mac.Event) to a
// binary trace: the 8-byte magic "CBWTRACE", then one 32-byte
// little-endian record per event, in the order the engine emits them:
//
//	offset  size  field
//	0       8     At (ns, int64)
//	8       1     Kind (mac.EventKind)
//	9       1     Probe (0/1)
//	10      1     AC (802.11e access category; 0 = legacy DCF)
//	11      1     reserved (0)
//	12      4     Station (int32)
//	16      4     Size (int32)
//	20      4     Index (int32)
//	24      4     Retries (int32)
//	28      4     reserved (0)
package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"csmabw/internal/clikit"
	"csmabw/internal/mac"
	"csmabw/internal/runner"
	"csmabw/internal/scenario"
	"csmabw/internal/sim"
	"csmabw/internal/stats"
)

// dcfConfig is the tool configuration resolved from the command line.
type dcfConfig struct {
	// scen is the cell, with any -seed/-rts override applied.
	scen      *scenario.Compiled
	duration  float64 // simulated seconds per replication
	reps      int
	workers   int
	tracePath string
}

// parseArgs resolves the command line into a validated configuration.
func parseArgs(args []string) (*dcfConfig, error) {
	fs := flag.NewFlagSet("dcfsim", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	c := &dcfConfig{}
	fs.Float64Var(&c.duration, "duration", 5, "simulated seconds")
	fs.IntVar(&c.reps, "reps", 1, "independent replications of the cell")
	fs.IntVar(&c.workers, "workers", 0, "worker goroutines for replications (0 = all cores); results are identical at any count")
	fs.StringVar(&c.tracePath, "trace", "", "write a binary channel-event trace to this file (replication 0)")
	seed := fs.Int64("seed", 0, "random seed (default: the spec's)")
	rts := fs.Int("rts", 0, "RTS/CTS threshold in bytes, 0 = off (default: the spec's)")
	scenFlag := clikit.RegisterScenario(fs)
	if err := fs.Parse(args); err != nil {
		return nil, clikit.ParseError(err)
	}
	if scenFlag.Path == "" {
		return nil, errors.New("-scenario is required: a spec file describes the cell")
	}
	if err := clikit.CheckFinite("-duration", c.duration); err != nil {
		return nil, err
	}
	if c.duration <= 0 {
		return nil, fmt.Errorf("-duration %g: must be positive", c.duration)
	}
	if c.duration > sim.MaxSeconds {
		return nil, fmt.Errorf("-duration %g: must be at most %.4g s", c.duration, sim.MaxSeconds)
	}
	if c.reps < 1 {
		return nil, fmt.Errorf("-reps %d: must be at least 1", c.reps)
	}
	if *rts < 0 {
		return nil, fmt.Errorf("-rts %d: must be >= 0 (0 = off)", *rts)
	}
	scen, err := scenFlag.Compiled()
	if err != nil {
		return nil, err
	}
	if clikit.Passed(fs, "seed") {
		scen.Link.Seed = *seed
	}
	if clikit.Passed(fs, "rts") {
		scen.Link.RTSThreshold = *rts
	}
	c.scen = scen
	return c, nil
}

// stationResult is one station's statistics from one replication.
type stationResult struct {
	thrMbps    float64
	delivered  float64
	attempts   float64
	collisions float64
	phyErrors  float64
	dropped    float64
	meanAccMs  float64
	p95AccMs   float64
}

// run replicates the cell and writes the per-station table to w.
func run(c *dcfConfig, w io.Writer) error {
	scen := c.scen
	end := sim.FromSeconds(c.duration)

	var tw *traceWriter
	var traceFile *os.File
	if c.tracePath != "" {
		var err error
		if traceFile, err = os.Create(c.tracePath); err != nil {
			return err
		}
		tw = newTraceWriter(traceFile)
	}

	// Each replication derives its traffic and engine seeds from an
	// independent substream, so results are identical at any -workers.
	root := sim.NewStream(scen.Link.Seed)
	names := scen.StationNames
	runOne := func(_ struct{}, rep int) ([]stationResult, error) {
		cfg, err := scen.MACConfig(root.Child(uint64(rep)), end)
		if err != nil {
			return nil, err
		}
		if rep == 0 && tw != nil {
			cfg.OnEvent = tw.event
		}
		res, err := mac.Run(cfg)
		if err != nil {
			return nil, err
		}
		out := make([]stationResult, len(names))
		for i := range cfg.Stations {
			st := res.Stats[i]
			var acc []float64
			for _, f := range res.Frames[i] {
				acc = append(acc, f.AccessDelay().Seconds()*1e3)
			}
			mean, p95 := 0.0, 0.0
			if len(acc) > 0 {
				mean = stats.Mean(acc)
				p95 = stats.Quantile(acc, 0.95)
			}
			out[i] = stationResult{
				thrMbps:    res.Throughput(i, 0, end) / 1e6,
				delivered:  float64(st.Delivered),
				attempts:   float64(st.Attempts),
				collisions: float64(st.Collisions),
				phyErrors:  float64(st.ChannelErrors),
				dropped:    float64(st.Dropped),
				meanAccMs:  mean,
				p95AccMs:   p95,
			}
		}
		return out, nil
	}

	byRep, err := runner.MapBatches(c.reps, c.workers, 0, nil, runOne)
	if tw != nil {
		// Close the trace even when a replication failed; the run's
		// error still wins.
		err = errors.Join(err, tw.w.Flush(), traceFile.Close())
	}
	if err != nil {
		return err
	}
	if tw != nil {
		fmt.Fprintf(w, "wrote %d events to %s\n", tw.events, c.tracePath)
	}

	p := scen.Link.WithDefaults().Phy
	fmt.Fprintf(w, "scenario %q: %s\n", scen.Name, scen.Description)
	for _, note := range scen.Notes {
		fmt.Fprintf(w, "  - %s\n", note)
	}
	for _, ev := range scen.Link.Schedule {
		fmt.Fprintf(w, "  - event at %v\n", ev.At)
	}
	fmt.Fprintf(w, "PHY %s, %d stations, %.1fs simulated, %d replication(s) (RTS threshold %d)\n\n",
		p.Name, len(names), c.duration, c.reps, scen.Link.RTSThreshold)
	fmt.Fprintf(w, "%-26s %10s %9s %9s %7s %7s %7s %10s %10s\n",
		"station", "thru(Mb/s)", "delivered", "attempts", "coll", "phyerr", "drops",
		"mean acc(ms)", "p95 acc(ms)")
	var agg float64
	n := float64(len(byRep))
	for i := range names {
		var m stationResult
		for _, rep := range byRep {
			m.thrMbps += rep[i].thrMbps
			m.delivered += rep[i].delivered
			m.attempts += rep[i].attempts
			m.collisions += rep[i].collisions
			m.phyErrors += rep[i].phyErrors
			m.dropped += rep[i].dropped
			m.meanAccMs += rep[i].meanAccMs
			m.p95AccMs += rep[i].p95AccMs
		}
		agg += m.thrMbps / n
		fmt.Fprintf(w, "%-26s %10.3f %9.1f %9.1f %7.1f %7.1f %7.1f %10.3f %10.3f\n",
			names[i], m.thrMbps/n, m.delivered/n, m.attempts/n,
			m.collisions/n, m.phyErrors/n, m.dropped/n, m.meanAccMs/n, m.p95AccMs/n)
	}
	_, err = fmt.Fprintf(w, "\naggregate: %.3f Mb/s (single-station envelope %.3f Mb/s)\n",
		agg, p.MaxThroughput(1500)/1e6)
	return err
}

// traceWriter writes the -trace file laid out in the package comment.
// A write error stays latched in w and surfaces at its Flush.
type traceWriter struct {
	w      *bufio.Writer
	events int
}

func newTraceWriter(f io.Writer) *traceWriter {
	tw := &traceWriter{w: bufio.NewWriter(f)}
	_, _ = tw.w.WriteString("CBWTRACE")
	return tw
}

// event appends ev's record; it is replication 0's mac.Config.OnEvent.
func (tw *traceWriter) event(ev mac.Event) {
	var rec [32]byte
	le := binary.LittleEndian
	le.PutUint64(rec[0:], uint64(ev.At))
	rec[8] = byte(ev.Kind)
	if ev.Probe {
		rec[9] = 1
	}
	rec[10] = byte(ev.AC)
	le.PutUint32(rec[12:], uint32(int32(ev.Station)))
	le.PutUint32(rec[16:], uint32(int32(ev.Size)))
	le.PutUint32(rec[20:], uint32(int32(ev.Index)))
	le.PutUint32(rec[24:], uint32(int32(ev.Retries)))
	_, _ = tw.w.Write(rec[:])
	tw.events++
}

func main() {
	cfg, err := parseArgs(os.Args[1:])
	clikit.ExitArgs(err)
	clikit.Check(run(cfg, os.Stdout))
}
