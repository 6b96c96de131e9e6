package clikit

import (
	"flag"
	"math"
	"strings"
	"testing"

	"csmabw/internal/experiments"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, 17)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestScalePresets(t *testing.T) {
	for name, want := range map[string]experiments.Scale{
		"tiny":    experiments.Tiny(),
		"default": experiments.Default(),
		"paper":   experiments.Paper(),
	} {
		f := parse(t, "-scale", name)
		sc, err := f.Scale()
		if err != nil {
			t.Fatal(err)
		}
		if sc != want {
			t.Errorf("%s: %+v, want %+v", name, sc, want)
		}
	}
	f := parse(t, "-scale", "huge")
	if _, err := f.Scale(); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestScaleOverrides(t *testing.T) {
	f := parse(t, "-reps", "7", "-points", "3", "-seconds", "0.25", "-workers", "4")
	sc, err := f.Scale()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Reps != 7 || sc.SweepPoints != 3 || sc.SteadySeconds != 0.25 || sc.Workers != 4 {
		t.Errorf("overrides not applied: %+v", sc)
	}
	// Zero-valued overrides leave the preset untouched.
	f = parse(t)
	sc, _ = f.Scale()
	if sc.Reps != experiments.Default().Reps {
		t.Errorf("preset reps clobbered: %+v", sc)
	}
}

// TestToolDefaults pins the one per-tool default: Register's seed is
// the default of -seed, and an explicit -seed replaces it.
func TestToolDefaults(t *testing.T) {
	if f := parse(t); f.Seed != 17 {
		t.Errorf("seed default = %d, want 17", f.Seed)
	}
	if f := parse(t, "-seed", "5"); f.Seed != 5 {
		t.Errorf("explicit -seed 5 read %d", f.Seed)
	}
}

func TestExplicitScaleBeatsToolDefaults(t *testing.T) {
	// An explicit -scale yields the preset it names, unmodified.
	sc, err := parse(t, "-scale", "paper").Scale()
	if err != nil {
		t.Fatal(err)
	}
	if sc != withWorkers(experiments.Paper(), 0) {
		t.Errorf("-scale paper: %+v", sc)
	}
	// ...but a positive override still replaces the preset's value.
	sc, err = parse(t, "-scale", "paper", "-reps", "7").Scale()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Reps != 7 || sc.SweepPoints != experiments.Paper().SweepPoints {
		t.Errorf("explicit -reps with -scale paper: %+v", sc)
	}
	// Naming the default preset explicitly must equal omitting the flag.
	implicit, err := parse(t).Scale()
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := parse(t, "-scale", "default").Scale()
	if err != nil {
		t.Fatal(err)
	}
	if implicit != explicit {
		t.Errorf("-scale default (%+v) differs from omitted flag (%+v)", explicit, implicit)
	}
}

func withWorkers(sc experiments.Scale, w int) experiments.Scale {
	sc.Workers = w
	return sc
}

func TestRenderFormats(t *testing.T) {
	fig := &experiments.Figure{
		ID: "figX", Title: "t", XLabel: "x", YLabel: "y",
		Series: []experiments.Series{{Name: "s", X: []float64{1, 2}, Y: []float64{3, 4}}},
	}
	table, err := Render(fig, "table")
	if err != nil || !strings.Contains(table, "figX") {
		t.Errorf("table: %v\n%s", err, table)
	}
	csv, err := Render(fig, "csv")
	if err != nil || !strings.Contains(csv, "1,3") {
		t.Errorf("csv: %v\n%s", err, csv)
	}
	j, err := Render(fig, "json")
	if err != nil || !strings.Contains(j, `"ID": "figX"`) {
		t.Errorf("json: %v\n%s", err, j)
	}
	if _, err := Render(fig, "yaml"); err == nil {
		t.Error("unknown format accepted")
	}
	var b strings.Builder
	f := parse(t, "-format", "csv")
	if err := f.Emit(&b, fig); err != nil || !strings.Contains(b.String(), "1,3") {
		t.Errorf("emit: %v %q", err, b.String())
	}
}

func TestScaleRejectsBadFormatEarly(t *testing.T) {
	f := parse(t, "-format", "yaml")
	if _, err := f.Scale(); err == nil {
		t.Error("unknown format not rejected before the run")
	}
}

// TestScaleRejectsNonFiniteAndNegative is the parse-time screen for the
// common numeric knobs: strconv (and therefore flag) accepts "NaN",
// "Inf" and negative values, and before this validation they flowed
// straight into the engine and produced unrenderable figures.
func TestScaleRejectsNonFiniteAndNegative(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"seconds NaN", []string{"-seconds", "NaN"}},
		{"seconds +Inf", []string{"-seconds", "Inf"}},
		{"seconds -Inf", []string{"-seconds", "-Inf"}},
		{"seconds negative", []string{"-seconds", "-1"}},
		{"seconds past the clock", []string{"-seconds", "1e10"}},
		{"reps negative", []string{"-reps", "-5"}},
		{"points negative", []string{"-points", "-2"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := parse(t, c.args...)
			if _, err := f.Scale(); err == nil {
				t.Errorf("Scale() accepted %v", c.args)
			}
		})
	}
	// Zero stays the documented "use the preset" sentinel.
	f := parse(t, "-seconds", "0", "-reps", "0", "-points", "0")
	if _, err := f.Scale(); err != nil {
		t.Errorf("zero sentinel rejected: %v", err)
	}
}

// TestFigureJSONRejectsNonFinite confirms the encoding boundary the
// flag validation protects: a figure holding NaN or Inf cannot be
// rendered as JSON (json.Marshal rejects non-finite floats), so the
// error must surface instead of panicking.
func TestFigureJSONRejectsNonFinite(t *testing.T) {
	for name, v := range map[string]float64{"NaN": math.NaN(), "Inf": math.Inf(1)} {
		fig := &experiments.Figure{
			ID: "bad", Series: []experiments.Series{{Name: "s", X: []float64{1}, Y: []float64{v}}},
		}
		if _, err := fig.JSON(); err == nil {
			t.Errorf("Figure.JSON encoded a %s value", name)
		}
		if _, err := Render(fig, "json"); err == nil {
			t.Errorf("Render(json) encoded a %s value", name)
		}
	}
}
