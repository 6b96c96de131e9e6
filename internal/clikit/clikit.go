// Package clikit is the shared command-line harness for the cmd/
// tools. Every figure front end takes the same knobs — a scale preset
// whose replications, sweep points and steady-state duration a
// positive -reps, -points or -seconds replaces, a seed, a worker count
// for the replication engine, and an output format. A tool registers
// them with Register next to its own flags, resolves them into an
// experiments.Scale, and emits figures through Emit; a tool that takes
// a cell from a scenario spec also registers -scenario with
// RegisterScenario.
package clikit

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"csmabw/internal/experiments"
	"csmabw/internal/scenario"
	"csmabw/internal/sim"
)

// Flags holds the parsed common flags.
type Flags struct {
	ScaleName string
	Reps      int
	Points    int
	Seconds   float64
	Workers   int
	Seed      int64
	Format    string

	fs *flag.FlagSet
}

// Register installs the common flags on fs, with seed as the default of
// -seed, and returns the destination struct, populated after fs.Parse.
func Register(fs *flag.FlagSet, seed int64) *Flags {
	f := &Flags{fs: fs}
	fs.StringVar(&f.ScaleName, "scale", "default", "experiment scale preset: tiny, default or paper")
	fs.IntVar(&f.Reps, "reps", 0, "replications per point (0 = preset value)")
	fs.IntVar(&f.Points, "points", 0, "sweep points (0 = preset value)")
	fs.Float64Var(&f.Seconds, "seconds", 0, "steady-state duration per point (0 = preset value)")
	fs.IntVar(&f.Workers, "workers", 0, "worker goroutines for replications (0 = all cores); results are identical at any count")
	fs.Int64Var(&f.Seed, "seed", seed, "random seed")
	fs.StringVar(&f.Format, "format", "table", "output format: table, csv or json")
	return f
}

// Explicit reports whether the named flag was passed on the command
// line (as opposed to holding its default). Tools use it to implement
// the scenario precedence rule: tool default < spec field < explicit
// command-line flag.
func (f *Flags) Explicit(name string) bool {
	return Passed(f.fs, name)
}

// Passed reports whether the named flag was given on the command line
// of fs — the standalone form of Flags.Explicit for front ends with
// hand-rolled flag sets.
func Passed(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(fl *flag.Flag) {
		if fl.Name == name {
			set = true
		}
	})
	return set
}

// ScenarioSeed resolves the seed precedence against a compiled
// scenario: an explicit -seed wins, otherwise the spec's seed applies,
// otherwise the tool default already in f.Seed. A nil scenario leaves
// f.Seed untouched.
func (f *Flags) ScenarioSeed(c *scenario.Compiled) int64 {
	if c == nil || f.Explicit("seed") {
		return f.Seed
	}
	return c.Link.Seed
}

// ScenarioScale overlays the spec's probing plan onto the resolved
// scale: the spec's reps/duration act like tool defaults, so explicit
// -reps/-seconds flags still win. A nil scenario returns sc unchanged.
func (f *Flags) ScenarioScale(sc experiments.Scale, c *scenario.Compiled) experiments.Scale {
	if c == nil {
		return sc
	}
	if c.Probing.Reps > 0 && !f.Explicit("reps") {
		sc.Reps = c.Probing.Reps
	}
	if c.Probing.DurationSeconds > 0 && !f.Explicit("seconds") {
		sc.SteadySeconds = c.Probing.DurationSeconds
	}
	return sc
}

// ScenarioFlag holds the shared -scenario knob: a declarative spec
// file (internal/scenario) compiled into the tool's measured cell. It
// is the only way to describe a cell to a tool, so workloads move
// between tools as files, not flag soup.
type ScenarioFlag struct {
	// Path is the spec file; empty means no scenario.
	Path string
}

// RegisterScenario installs the -scenario flag on fs and returns the
// destination struct, populated after fs.Parse.
func RegisterScenario(fs *flag.FlagSet) *ScenarioFlag {
	s := &ScenarioFlag{}
	fs.StringVar(&s.Path, "scenario", "",
		"declarative scenario spec (JSON) describing the measured cell; explicit flags override spec fields")
	return s
}

// Compiled loads, parses and compiles the spec file; (nil, nil) when
// the flag is unset.
func (s *ScenarioFlag) Compiled() (*scenario.Compiled, error) {
	if s.Path == "" {
		return nil, nil
	}
	return scenario.CompileFile(s.Path)
}

// Scale resolves the preset plus overrides into a Scale, including the
// worker-pool bound: a positive -reps, -points or -seconds replaces the
// preset's value, and zero keeps it. It also rejects an unknown
// -format here, before a potentially expensive run whose output could
// not be rendered.
func (f *Flags) Scale() (experiments.Scale, error) {
	var sc experiments.Scale
	switch f.Format {
	case "table", "csv", "json":
	default:
		return sc, fmt.Errorf("unknown format %q (table|csv|json)", f.Format)
	}
	// Numeric knobs are rejected here, at parse time, rather than deep in
	// the engine: a NaN/Inf duration or a negative count would otherwise
	// propagate into every statistic (and Figure.JSON cannot even encode
	// non-finite results — json.Marshal fails on NaN/Inf).
	if err := CheckFinite("-seconds", f.Seconds); err != nil {
		return sc, err
	}
	if f.Seconds < 0 {
		return sc, fmt.Errorf("-seconds %g: must be >= 0 (0 = preset value)", f.Seconds)
	}
	if f.Seconds > sim.MaxSeconds {
		return sc, fmt.Errorf("-seconds %g: must be at most %.4g s", f.Seconds, sim.MaxSeconds)
	}
	if f.Reps < 0 {
		return sc, fmt.Errorf("-reps %d: must be >= 0 (0 = preset value)", f.Reps)
	}
	if f.Points < 0 {
		return sc, fmt.Errorf("-points %d: must be >= 0 (0 = preset value)", f.Points)
	}
	switch f.ScaleName {
	case "tiny":
		sc = experiments.Tiny()
	case "default":
		sc = experiments.Default()
	case "paper":
		sc = experiments.Paper()
	default:
		return sc, fmt.Errorf("unknown scale %q (tiny|default|paper)", f.ScaleName)
	}
	if f.Reps > 0 {
		sc.Reps = f.Reps
	}
	if f.Points > 0 {
		sc.SweepPoints = f.Points
	}
	if f.Seconds > 0 {
		sc.SteadySeconds = f.Seconds
	}
	sc.Workers = f.Workers
	return sc, nil
}

// CheckFinite rejects NaN and ±Inf flag values. strconv.ParseFloat —
// and therefore every flag.Float64Var — happily accepts "NaN" and
// "Inf", so each front end's numeric knobs are screened here before
// they can poison the engine's statistics.
func CheckFinite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%s: non-finite value %g", name, v)
	}
	return nil
}

// Render renders the figure in the named format.
func Render(fig *experiments.Figure, format string) (string, error) {
	switch format {
	case "table":
		return fig.Table(), nil
	case "csv":
		return fig.CSV(), nil
	case "json":
		return fig.JSON()
	}
	return "", fmt.Errorf("unknown format %q (table|csv|json)", format)
}

// Emit writes the figure to w in the selected format.
func (f *Flags) Emit(w io.Writer, fig *experiments.Figure) error {
	s, err := Render(fig, f.Format)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, s)
	return err
}

// Exitf prints a message to stderr and exits with the given status.
func Exitf(code int, format string, a ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", a...)
	os.Exit(code)
}

// ErrUsage marks a command-line parse failure the FlagSet has already
// reported to its output: main should exit 2 without printing the
// message a second time.
var ErrUsage = errors.New("usage error (already reported)")

// ParseError normalizes a FlagSet.Parse result for a tool's parseArgs:
// nil stays nil, flag.ErrHelp passes through (the user asked for
// usage), and any other parse error — which the FlagSet already printed
// together with the usage text — collapses to ErrUsage.
func ParseError(err error) error {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return ErrUsage
}

// ExitArgs terminates the process when a tool's parseArgs failed, per
// the cmd/ convention: -h/-help exits 0 after the FlagSet printed the
// usage, an ErrUsage parse failure exits 2 silently (it was already
// reported), and a validation error exits 2 with its message. A nil
// error returns.
func ExitArgs(err error) {
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case errors.Is(err, ErrUsage):
		os.Exit(2)
	default:
		Exitf(2, "%v", err)
	}
}

// Check exits with status 1 when err is non-nil.
func Check(err error) {
	if err != nil {
		Exitf(1, "%v", err)
	}
}
