// Command pathsel evaluates multi-upstream path selection over
// time-varying WLAN cells: a forwarder probes several candidate
// upstreams every epoch, scores them on delay/jitter/loss, and routes
// its traffic hysteretically — the closed loop that available-bandwidth
// estimation feeds. The tool renders either the cumulative selection
// regret against the per-epoch oracle or the failover-lag-vs-hysteresis
// trade after a scheduled degradation.
//
// Usage:
//
//	pathsel [-fig regret|lag] [-policy ema|last|ucb|all]
//	        [-paths A.json,B.json,...] [-epochs N] [-epoch-seconds S]
//	        [-train N] [-rate-mbps R] [-alpha A] [-hysteresis H]
//	        [-explore E] [-degrade-epoch K]
//	        [-scale tiny|default|paper] [-reps N]
//	        [-seed N] [-workers N] [-format table|csv|json]
//
// Without -paths the built-in fixture runs: a clean upstream that
// collapses at the degrade epoch, a lightly-loaded backup, and a
// saturated decoy. With -paths each named scenario spec compiles into
// one candidate cell, and any "events" schedules in the specs provide
// the time variation; -degrade-epoch then tells the lag figure where
// the collapse is expected to surface. -seed 0 keeps the fixture seed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"csmabw/internal/clikit"
	"csmabw/internal/experiments"
	"csmabw/internal/pathsel"
	"csmabw/internal/probe"
	"csmabw/internal/scenario"
)

// pathselConfig is the tool configuration resolved from the command
// line: the figure choice plus the fully-resolved experiment params.
type pathselConfig struct {
	fig    string
	params experiments.PathselParams
	common *clikit.Flags
}

// parseArgs resolves and validates the command line.
func parseArgs(args []string) (*pathselConfig, error) {
	fs := flag.NewFlagSet("pathsel", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	c := &pathselConfig{params: experiments.DefaultPathsel()}
	p := &c.params
	var policy, paths string
	var rateMbps float64
	fs.StringVar(&c.fig, "fig", "regret", "figure to render: regret or lag")
	fs.StringVar(&policy, "policy", "all", "selection policy: ema, last, ucb or all")
	fs.StringVar(&paths, "paths", "", "comma-separated scenario specs, one candidate upstream cell per file (empty = built-in fixture)")
	fs.IntVar(&p.Epochs, "epochs", p.Epochs, "decision rounds per replication")
	fs.Float64Var(&p.EpochSeconds, "epoch-seconds", p.EpochSeconds, "decision-grid spacing on the experiment timeline")
	fs.IntVar(&p.TrainLen, "train", p.TrainLen, "probe packets per per-path measurement")
	fs.Float64Var(&rateMbps, "rate-mbps", p.RateBps/1e6, "probing rate per measurement train (Mb/s)")
	fs.Float64Var(&p.Alpha, "alpha", p.Alpha, "EMA smoothing factor in (0,1]")
	fs.Float64Var(&p.Hysteresis, "hysteresis", p.Hysteresis, "failover margin for the regret figure (the lag figure sweeps its own)")
	fs.Float64Var(&p.Explore, "explore", p.Explore, "UCB exploration coefficient (score points)")
	fs.IntVar(&p.DegradeEpoch, "degrade-epoch", p.DegradeEpoch, "decision round at which the scheduled degradation surfaces")
	common := clikit.Register(fs, p.Seed)
	if err := fs.Parse(args); err != nil {
		return nil, clikit.ParseError(err)
	}
	c.common = common

	for name, v := range map[string]float64{
		"-epoch-seconds": p.EpochSeconds, "-rate-mbps": rateMbps,
		"-alpha": p.Alpha, "-hysteresis": p.Hysteresis, "-explore": p.Explore,
	} {
		if err := clikit.CheckFinite(name, v); err != nil {
			return nil, err
		}
	}
	p.RateBps = rateMbps * 1e6
	switch c.fig {
	case "regret", "lag":
	default:
		return nil, fmt.Errorf("unknown figure %q (regret|lag)", c.fig)
	}
	switch policy {
	case "all":
	case "ema", "last", "ucb":
		p.Policies = []pathsel.Policy{pathsel.Policy(policy)}
	default:
		return nil, fmt.Errorf("unknown policy %q (ema|last|ucb|all)", policy)
	}
	if common.Seed != 0 {
		p.Seed = common.Seed
	}
	if paths != "" {
		ups, err := compileUpstreams(paths, common)
		if err != nil {
			return nil, err
		}
		p.Upstreams = ups
	}
	return c, nil
}

// compileUpstreams turns the -paths file list into candidate cells, one
// per spec. An explicit -seed respaces the specs' seeds with the
// fixture's per-path stride so replication substreams never collide
// across upstreams.
func compileUpstreams(list string, common *clikit.Flags) ([]probe.Link, error) {
	var ups []probe.Link
	for i, path := range strings.Split(list, ",") {
		scen, err := scenario.CompileFile(strings.TrimSpace(path))
		if err != nil {
			return nil, err
		}
		l := scen.Link
		if common.Explicit("seed") {
			l.Seed = common.Seed + int64(i)*977
		}
		ups = append(ups, l)
	}
	if len(ups) < 2 {
		return nil, fmt.Errorf("-paths names %d cell(s); selection needs at least 2", len(ups))
	}
	return ups, nil
}

func main() {
	c, err := parseArgs(os.Args[1:])
	clikit.ExitArgs(err)
	sc, err := c.common.Scale()
	if err != nil {
		clikit.Exitf(2, "%v", err)
	}
	var fig *experiments.Figure
	if c.fig == "regret" {
		fig, err = experiments.SelectionRegret(c.params, sc)
	} else {
		fig, err = experiments.FailoverLag(c.params, sc)
	}
	clikit.Check(err)
	clikit.Check(c.common.Emit(os.Stdout, fig))
}
