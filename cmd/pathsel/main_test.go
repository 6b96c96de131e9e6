package main

import (
	"strings"
	"testing"

	"csmabw/internal/experiments"
	"csmabw/internal/pathsel"
)

func TestParseArgs(t *testing.T) {
	cases := []struct {
		name string
		args []string
		ok   bool
		frag string
		chk  func(*pathselConfig) bool
	}{
		{name: "defaults", args: nil, ok: true,
			chk: func(c *pathselConfig) bool {
				d := experiments.DefaultPathsel()
				return c.fig == "regret" && len(c.params.Policies) == 3 &&
					c.params.Epochs == d.Epochs && c.params.Seed == d.Seed &&
					len(c.params.Upstreams) == 0
			}},
		{name: "lag with one policy", args: []string{"-fig", "lag", "-policy", "ucb"}, ok: true,
			chk: func(c *pathselConfig) bool {
				return c.fig == "lag" && len(c.params.Policies) == 1 &&
					c.params.Policies[0] == pathsel.PolicyUCB
			}},
		{name: "knob overrides", args: []string{"-epochs", "6", "-train", "24", "-rate-mbps", "4", "-alpha", "0.5", "-degrade-epoch", "3"}, ok: true,
			chk: func(c *pathselConfig) bool {
				return c.params.Epochs == 6 && c.params.TrainLen == 24 &&
					c.params.RateBps == 4e6 && c.params.Alpha == 0.5 && c.params.DegradeEpoch == 3
			}},
		{name: "explicit seed", args: []string{"-seed", "99"}, ok: true,
			chk: func(c *pathselConfig) bool { return c.params.Seed == 99 }},
		{name: "scenario upstreams", args: []string{"-paths",
			"../../scenarios/fading-backhaul.json, ../../scenarios/paper-baseline.json"}, ok: true,
			chk: func(c *pathselConfig) bool {
				return len(c.params.Upstreams) == 2 &&
					len(c.params.Upstreams[0].Schedule) == 3 && // fading-backhaul's events
					c.params.Upstreams[0].Seed == 53 // spec seed kept without -seed
			}},
		{name: "seed respaces spec seeds", args: []string{"-seed", "100", "-paths",
			"../../scenarios/fading-backhaul.json,../../scenarios/paper-baseline.json"}, ok: true,
			chk: func(c *pathselConfig) bool {
				return c.params.Upstreams[0].Seed == 100 && c.params.Upstreams[1].Seed == 100+977
			}},
		{name: "one path rejected", args: []string{"-paths", "../../scenarios/paper-baseline.json"},
			frag: "at least 2"},
		{name: "missing spec", args: []string{"-paths", "no-such.json,also-missing.json"},
			frag: "no-such.json"},
		// Cells come from -paths; -scenario is not a pathsel flag.
		{name: "scenario flag rejected", args: []string{"-scenario", "../../scenarios/paper-baseline.json"}},
		{name: "unknown figure", args: []string{"-fig", "throughput"}, frag: "regret|lag"},
		{name: "unknown policy", args: []string{"-policy", "greedy"}, frag: "ema|last|ucb|all"},
		{name: "non-finite alpha", args: []string{"-alpha", "NaN"}, frag: "-alpha"},
		{name: "unknown flag", args: []string{"-burst", "3"}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			cfg, err := parseArgs(tt.args)
			if tt.ok {
				if err != nil {
					t.Fatal(err)
				}
				if tt.chk != nil && !tt.chk(cfg) {
					t.Errorf("config check failed: %+v", cfg)
				}
				return
			}
			if err == nil {
				t.Fatal("bad command line accepted")
			}
			if tt.frag != "" && !strings.Contains(err.Error(), tt.frag) {
				t.Errorf("error %q lacks %q", err, tt.frag)
			}
		})
	}
}

// TestScenarioUpstreamsRun smokes the spec-driven path end to end: two
// compiled library cells feed the regret figure at the tiny scale.
func TestScenarioUpstreamsRun(t *testing.T) {
	cfg, err := parseArgs([]string{"-paths",
		"../../scenarios/fading-backhaul.json,../../scenarios/paper-baseline.json",
		"-epochs", "4", "-degrade-epoch", "2", "-train", "8"})
	if err != nil {
		t.Fatal(err)
	}
	sc := experiments.Tiny()
	fig, err := experiments.SelectionRegret(cfg.params, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 || len(fig.Series[0].X) != 4 {
		t.Fatalf("figure shape %+v", fig.Series)
	}
}
