package main

import (
	"errors"
	"flag"
	"strings"
	"testing"
	"time"

	"csmabw/internal/clikit"
)

func TestParseArgs(t *testing.T) {
	cases := []struct {
		name string
		args []string
		ok   bool
		frag string
		chk  func(*bwprobeConfig) bool
	}{
		{name: "receiver defaults", args: []string{"-recv"}, ok: true,
			chk: func(c *bwprobeConfig) bool {
				return c.recv && c.listen == ":9900" && c.n == 50 && c.size == 1500 &&
					c.session == 1 && c.trains == 1 && c.timeout == 10*time.Second && c.mser == 2
			}},
		{name: "sender", args: []string{"-send", "host:9900", "-n", "20", "-rate-mbps", "2"}, ok: true,
			chk: func(c *bwprobeConfig) bool { return !c.recv && c.send == "host:9900" && c.n == 20 }},
		{name: "back to back pair", args: []string{"-send", "h:1", "-n", "2", "-rate-mbps", "0"}, ok: true,
			chk: func(c *bwprobeConfig) bool { return c.inputGap() == 0 }},
		{name: "gap derivation", args: []string{"-send", "h:1", "-size", "1250", "-rate-mbps", "10"}, ok: true,
			chk: func(c *bwprobeConfig) bool { return c.inputGap() == time.Millisecond }},
		{name: "scenario train defaults", args: []string{"-send", "h:1", "-scenario", "../../scenarios/paper-baseline.json"}, ok: true,
			chk: func(c *bwprobeConfig) bool { return c.n == 1000 && c.rateMbps == 5 && c.size == 1500 }},
		{name: "scenario explicit n wins", args: []string{"-send", "h:1", "-scenario", "../../scenarios/paper-baseline.json", "-n", "10"}, ok: true,
			chk: func(c *bwprobeConfig) bool { return c.n == 10 && c.rateMbps == 5 }},
		{name: "scenario steady plan rejected", args: []string{"-send", "h:1", "-scenario", "../../scenarios/mixed-rate-anomaly-mesh.json"},
			frag: "train probing plan"},
		{name: "no mode", args: nil, frag: "need -recv or -send"},
		{name: "both modes", args: []string{"-recv", "-send", "h:1"}, frag: "mutually exclusive"},
		{name: "train too short", args: []string{"-send", "h:1", "-n", "1"}, frag: "at least 2"},
		{name: "receiver ignores sender knobs", args: []string{"-recv", "-n", "1", "-size", "10"}, ok: true,
			chk: func(c *bwprobeConfig) bool { return c.recv }},
		{name: "size below header", args: []string{"-send", "h:1", "-size", "10"}, frag: "header"},
		{name: "zero trains", args: []string{"-send", "h:1", "-trains", "0"}, frag: "-trains"},
		{name: "negative rate", args: []string{"-send", "h:1", "-rate-mbps", "-5"}, frag: "non-negative"},
		{name: "negative mser", args: []string{"-recv", "-mser", "-1"}, frag: "-mser"},
		{name: "NaN rate", args: []string{"-send", "h:1", "-rate-mbps", "NaN"}, frag: "-rate-mbps"},
		{name: "infinite rate", args: []string{"-send", "h:1", "-rate-mbps", "+Inf"}, frag: "-rate-mbps"},
		{name: "NaN train gap", args: []string{"-send", "h:1", "-train-gap-ms", "NaN"}, frag: "-train-gap-ms"},
		{name: "session past 32 bits", args: []string{"-send", "h:1", "-session", "4294967297"}, frag: "-session"},
		{name: "session ids wrap", args: []string{"-recv", "-session", "4294967295", "-trains", "2"}, frag: "-session"},
		{name: "last session id", args: []string{"-recv", "-session", "4294967294", "-trains", "2"}, ok: true,
			chk: func(c *bwprobeConfig) bool { return c.session == 4294967294 && c.trains == 2 }},
		{name: "unknown flag", args: []string{"-recv", "-burst", "3"}},
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
				t.Fatal("invalid args accepted")
			}
			if tt.frag != "" && !strings.Contains(err.Error(), tt.frag) {
				t.Errorf("error %q lacks %q", err, tt.frag)
			}
		})
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
