package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csmabw/internal/clikit"
	"csmabw/internal/experiments"
)

const baseline = "../../scenarios/paper-baseline.json"

// ids lists the configured figure ids in run order.
func ids(c *figConfig) string {
	var out []string
	for _, e := range c.figs {
		out = append(out, e.ID)
	}
	return strings.Join(out, ",")
}

func TestParseArgs(t *testing.T) {
	cases := []struct {
		name string
		args []string
		ok   bool
		frag string // substring of the error when !ok ("" = any error)
		chk  func(*figConfig) bool
	}{
		{name: "defaults run the registry", args: nil, ok: true,
			chk: func(c *figConfig) bool {
				return c.scen == nil && len(c.figs) == len(experiments.Registry()) &&
					c.out == "figures-out" && c.common.Format == "table"
			}},
		{name: "only keeps registry order", args: []string{"-only", "fig07, fig06"}, ok: true,
			chk: func(c *figConfig) bool { return c.scen == nil && ids(c) == "fig06,fig07" }},
		{name: "scenario alone renders the plan's figure", args: []string{"-scenario", baseline}, ok: true,
			chk: func(c *figConfig) bool { return ids(c) == "paper-baseline" && c.figs[0].Cell != nil }},
		{name: "spec seed applies", args: []string{"-scenario", baseline, "-only", "fig13"}, ok: true,
			chk: func(c *figConfig) bool { return c.scen.Link.Seed == 6 && ids(c) == "fig13" }},
		{name: "explicit seed wins under scenario", args: []string{"-scenario", baseline, "-only", "fig13", "-seed", "13"}, ok: true,
			chk: func(c *figConfig) bool { return c.scen.Link.Seed == 13 }},
		{name: "seed without scenario", args: []string{"-only", "fig06", "-seed", "5"}, frag: "-seed needs -scenario"},
		{name: "no cell form under scenario", args: []string{"-scenario", baseline, "-only", "fig06,fig15"}, frag: "fig15 has no cell form"},
		{name: "unknown id", args: []string{"-only", "fig06,nope"}, frag: `unknown figure "nope"`},
		{name: "unknown id under scenario", args: []string{"-scenario", baseline, "-only", "nope"}, frag: `unknown figure "nope"`},
		{name: "missing scenario file", args: []string{"-scenario", "no-such.json"}, frag: "no-such.json"},
		{name: "bad format", args: []string{"-format", "yaml"}, frag: "unknown format"},
		{name: "bad scale", args: []string{"-scale", "huge"}, frag: "unknown scale"},
		// Per-figure knobs are not flags: a spec describes the cell.
		{name: "unknown flag", args: []string{"-lens", "3,10,50"}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			cfg, err := parseArgs(tt.args)
			if tt.ok {
				if err != nil {
					t.Fatal(err)
				}
				if tt.chk != nil && !tt.chk(cfg) {
					t.Errorf("config check failed: figs %q, scen %+v", ids(cfg), cfg.scen)
				}
				return
			}
			if err == nil {
				t.Fatal("invalid args accepted")
			}
			if !strings.Contains(err.Error(), tt.frag) {
				t.Errorf("error %q lacks %q", err, tt.frag)
			}
		})
	}
}

// TestRunCellFormMatchesGolden drives the shipped path end to end: the
// fig06 cell form on the paper-baseline spec writes a CSV byte-identical
// to the registry's fig06 snapshot.
func TestRunCellFormMatchesGolden(t *testing.T) {
	out := t.TempDir()
	cfg, err := parseArgs([]string{"-only", "fig06", "-scenario", baseline, "-scale", "tiny", "-format", "csv", "-out", out})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run(cfg, &b); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(out, "fig06.csv"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../internal/experiments/testdata/golden/fig06.csv")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("fig06 on paper-baseline differs from the golden snapshot")
	}
	if !strings.HasPrefix(b.String(), string(want)) {
		t.Errorf("stdout does not start with the CSV:\n%s", b.String())
	}
}

// TestParseArgsHelpAndUsageErrors pins the exit-code contract of the
// shared harness: -h surfaces flag.ErrHelp (main exits 0) and a flag
// parse failure surfaces clikit.ErrUsage (main exits 2 without
// re-printing the already-reported message).
func TestParseArgsHelpAndUsageErrors(t *testing.T) {
	if _, err := parseArgs([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: got %v, want flag.ErrHelp", err)
	}
	if _, err := parseArgs([]string{"-no-such-flag"}); !errors.Is(err, clikit.ErrUsage) {
		t.Errorf("unknown flag: got %v, want clikit.ErrUsage", err)
	}
}
