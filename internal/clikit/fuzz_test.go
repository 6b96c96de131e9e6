package clikit

import (
	"flag"
	"io"
	"math"
	"strings"
	"testing"

	"csmabw/internal/experiments"
)

func testFigure() *experiments.Figure {
	return &experiments.Figure{
		ID: "fz", Title: "fuzz fixture", XLabel: "x", YLabel: "y",
		Series: []experiments.Series{{Name: "s", X: []float64{1, 2}, Y: []float64{3, 4}}},
	}
}

// FuzzParseFloats exercises the comma-separated list parser the cmd/
// tools feed raw user input into. Invariants: no panic, a successful
// parse yields exactly one value per comma-separated field, and every
// accepted field is a parseable float on its own. Corpus seeds live in
// testdata/fuzz/FuzzParseFloats.
func FuzzParseFloats(f *testing.F) {
	for _, seed := range []string{"0.1, 0.5,1", "", ",", "1e9", "-3.5", "NaN", "0x1p-2", "1,,2", " 2 "} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		vals, err := ParseFloats(s)
		if err != nil {
			return
		}
		if want := strings.Count(s, ",") + 1; len(vals) != want {
			t.Fatalf("parsed %d values from %d fields in %q", len(vals), want, s)
		}
	})
}

// FuzzBudgetCaps drives raw command-line values through the budget
// flag parser. Invariants: no panic, and a Budget that parses
// successfully carries only finite, non-negative caps — NaN, ±Inf and
// negative values must be rejected here at parse time, because a NaN
// cap fails every comparison and would silently behave as uncapped
// inside the estimators. Corpus seeds live in
// testdata/fuzz/FuzzBudgetCaps.
func FuzzBudgetCaps(f *testing.F) {
	for _, seed := range [][2]string{
		{"2.5", "500"}, {"0", "0"}, {"NaN", "100"}, {"Inf", "0"}, {"-Inf", "1"},
		{"-1", "0"}, {"0", "-1"}, {"1e308", "2147483647"}, {"-0.0", "1000"}, {"0.001", "1"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, secs, pkts string) {
		fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		bf := RegisterBudget(fs)
		if err := fs.Parse([]string{"-max-probe-seconds", secs, "-max-packets", pkts}); err != nil {
			return
		}
		b, err := bf.Budget()
		if err != nil {
			return
		}
		if math.IsNaN(b.MaxProbeSeconds) || math.IsInf(b.MaxProbeSeconds, 0) || b.MaxProbeSeconds < 0 {
			t.Fatalf("Budget() accepted -max-probe-seconds %q -> %g", secs, b.MaxProbeSeconds)
		}
		if b.MaxPackets < 0 {
			t.Fatalf("Budget() accepted -max-packets %q -> %d", pkts, b.MaxPackets)
		}
	})
}

// FuzzRenderFormat drives the format dispatcher with arbitrary format
// names: only the three documented formats may succeed.
func FuzzRenderFormat(f *testing.F) {
	for _, seed := range []string{"table", "csv", "json", "yaml", "", "CSV"} {
		f.Add(seed)
	}
	fig := testFigure()
	f.Fuzz(func(t *testing.T, format string) {
		out, err := Render(fig, format)
		switch format {
		case "table", "csv", "json":
			if err != nil || out == "" {
				t.Fatalf("format %q failed: %v", format, err)
			}
		default:
			if err == nil {
				t.Fatalf("unknown format %q accepted", format)
			}
		}
	})
}
