// Command figures regenerates the figures of the paper's evaluation
// and writes one CSV per figure, printing each in the selected format
// to stdout. The README's Figures table indexes the figure ids.
//
// Usage:
//
//	figures [-only fig01,fig08] [-out DIR] [-scenario FILE.json]
//	        [-scale tiny|default|paper] [-reps N] [-points N] [-seconds S]
//	        [-seed N] [-workers N] [-format table|csv|json]
//
// Replications and sweep points run on -workers goroutines; the output
// is byte-identical at any worker count.
//
// Without -scenario every figure runs on the paper's cell with the
// paper's seed, so -seed is rejected. With -scenario the figures run
// on the spec's cell instead: -only lists figures that measure one
// cell (fig06-fig10, fig13, fig16, fig17), and without -only the one
// figure the spec's probing plan selects renders (transient for train
// plans, rate response for steady plans). An explicit -seed, -reps or
// -seconds overrides the spec.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"csmabw/internal/clikit"
	"csmabw/internal/experiments"
	"csmabw/internal/scenario"
)

// figConfig is the tool configuration resolved from the command line.
type figConfig struct {
	common *clikit.Flags
	sc     experiments.Scale
	out    string
	// scen is the -scenario cell, nil for the paper's cells.
	scen *scenario.Compiled
	// figs are the figures to run, each on scen through its Cell
	// driver when scen is set.
	figs []experiments.Entry
}

// parseArgs resolves the command line into a validated configuration.
func parseArgs(args []string) (*figConfig, error) {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	only := fs.String("only", "", "comma-separated figure ids to run (default: all)")
	out := fs.String("out", "figures-out", "directory for CSV output")
	common := clikit.Register(fs, 0)
	scenFlag := clikit.RegisterScenario(fs)
	if err := fs.Parse(args); err != nil {
		return nil, clikit.ParseError(err)
	}
	sc, err := common.Scale()
	if err != nil {
		return nil, err
	}
	scen, err := scenFlag.Compiled()
	if err != nil {
		return nil, err
	}
	if scen == nil && common.Explicit("seed") {
		return nil, errors.New("-seed needs -scenario: the registry figures run their paper seeds")
	}
	cfg := &figConfig{common: common, out: *out, scen: scen}
	if scen != nil {
		scen.Link.Seed = common.ScenarioSeed(scen)
		sc = common.ScenarioScale(sc, scen)
	}
	cfg.sc = sc
	switch {
	case *only == "" && scen == nil:
		cfg.figs = experiments.Registry()
		return cfg, nil
	case *only == "":
		cfg.figs = []experiments.Entry{{ID: scen.Name, Cell: experiments.ScenarioFigure}}
		return cfg, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		if _, err := experiments.Lookup(id); err != nil {
			return nil, err
		}
		want[id] = true
	}
	for _, e := range experiments.Registry() {
		if !want[e.ID] {
			continue
		}
		if scen != nil && e.Cell == nil {
			return nil, fmt.Errorf("%s has no cell form to run on -scenario", e.ID)
		}
		cfg.figs = append(cfg.figs, e)
	}
	return cfg, nil
}

// run renders every configured figure, writing its CSV under cfg.out
// and emitting it to w. A failing figure does not stop the others; the
// failures come back joined.
func run(cfg *figConfig, w io.Writer) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	var errs []error
	for _, e := range cfg.figs {
		if err := render(cfg, w, e); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", e.ID, err))
		}
	}
	return errors.Join(errs...)
}

// render runs one figure, writes its CSV under cfg.out and emits it.
func render(cfg *figConfig, w io.Writer, e experiments.Entry) error {
	start := time.Now()
	var (
		f   *experiments.Figure
		err error
	)
	if cfg.scen != nil {
		f, err = e.Cell(cfg.scen, cfg.sc)
	} else {
		f, err = e.Run(cfg.sc)
	}
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.out, f.ID+".csv")
	if err := os.WriteFile(path, []byte(f.CSV()), 0o644); err != nil {
		return err
	}
	if err := cfg.common.Emit(w, f); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "  (%.1fs, wrote %s)\n\n", time.Since(start).Seconds(), path)
	return err
}

func main() {
	cfg, err := parseArgs(os.Args[1:])
	clikit.ExitArgs(err)
	clikit.Check(run(cfg, os.Stdout))
}
