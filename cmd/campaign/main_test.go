package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csmabw/internal/clikit"
)

// TestMain doubles the test binary as the campaign tool: with
// CAMPAIGN_BE_TOOL=1 it runs main() on the process arguments instead of
// the test suite. The kill/restart integration test uses this to spawn
// real subprocesses it can SIGKILL mid-fleet.
func TestMain(m *testing.M) {
	if os.Getenv("CAMPAIGN_BE_TOOL") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestParseArgsErrors(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"missing campaign", []string{"-out", "r.jsonl"}, "-campaign is required"},
		{"missing out", []string{"-campaign", "testdata/kill.json"}, "-out is required"},
		{"bad format", []string{"-campaign", "testdata/kill.json", "-out", "r.jsonl", "-format", "yaml"}, "unknown format"},
		{"negative workers", []string{"-campaign", "testdata/kill.json", "-out", "r.jsonl", "-workers", "-2"}, "must be >= 0"},
		{"missing file", []string{"-campaign", "no-such.json", "-out", "r.jsonl"}, "no-such.json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseArgs(tc.args)
			if err == nil {
				t.Fatalf("parseArgs(%v) accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseArgsUsageAndHelp(t *testing.T) {
	if _, err := parseArgs([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h error = %v, want flag.ErrHelp", err)
	}
	if _, err := parseArgs([]string{"-bogus"}); !errors.Is(err, clikit.ErrUsage) {
		t.Errorf("-bogus error = %v, want clikit.ErrUsage", err)
	}
}

func TestParseArgsSeedOverride(t *testing.T) {
	c, err := parseArgs([]string{"-campaign", "testdata/kill.json", "-out", "r.jsonl"})
	if err != nil {
		t.Fatal(err)
	}
	if c.plan.Spec.Seed != 4242 {
		t.Fatalf("campaign file seed = %d, want 4242", c.plan.Spec.Seed)
	}
	c, err = parseArgs([]string{"-campaign", "testdata/kill.json", "-out", "r.jsonl", "-seed", "7"})
	if err != nil {
		t.Fatal(err)
	}
	if c.plan.Spec.Seed != 7 {
		t.Fatalf("explicit -seed not applied: %d", c.plan.Spec.Seed)
	}
}

// TestRunAndReportOnly drives run() in-process: a fleet run renders the
// report, and -report-only reproduces the same report from the log
// alone.
func TestRunAndReportOnly(t *testing.T) {
	out := filepath.Join(t.TempDir(), "results.jsonl")
	c, err := parseArgs([]string{"-campaign", "testdata/kill.json", "-out", out, "-workers", "2"})
	if err != nil {
		t.Fatal(err)
	}
	var live strings.Builder
	if err := run(c, &live); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(live.String(), "kill-cell-a") {
		t.Fatalf("report missing scenario rows:\n%s", live.String())
	}

	c2, err := parseArgs([]string{"-campaign", "testdata/kill.json", "-out", out, "-report-only"})
	if err != nil {
		t.Fatal(err)
	}
	var replay strings.Builder
	if err := run(c2, &replay); err != nil {
		t.Fatal(err)
	}
	if replay.String() != live.String() {
		t.Errorf("-report-only report differs from the live run's:\n%s\nvs\n%s", replay.String(), live.String())
	}
}

// TestOneCellCampaign pins the checked-in single-cell estimator run:
// TOPP, SLoPS and adaptive trains on the rate-anomaly mesh at a 5%
// target under a 30 s / 20,000-packet budget, seed 53.
func TestOneCellCampaign(t *testing.T) {
	out := filepath.Join(t.TempDir(), "results.jsonl")
	c, err := parseArgs([]string{"-campaign", "../../scenarios/campaigns/one-cell.json", "-out", out, "-format", "csv"})
	if err != nil {
		t.Fatal(err)
	}
	if c.plan.Spec.Seed != 53 || len(c.plan.Jobs) != 3 {
		t.Fatalf("seed %d, %d jobs; want seed 53, 3 jobs", c.plan.Spec.Seed, len(c.plan.Jobs))
	}
	for _, j := range c.plan.Jobs {
		s := j.Spec
		if j.Scenario.Name != "mixed-rate-anomaly-mesh" || s.TargetRel != 0.05 ||
			s.Budget.MaxProbeSeconds != 30 || s.Budget.MaxPackets != 20000 {
			t.Errorf("job %s: scenario %s, target %g, budget %+v", s.ID, j.Scenario.Name, s.TargetRel, s.Budget)
		}
	}
	var report strings.Builder
	if err := run(c, &report); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"topp", "slops", "adaptive"} {
		if !strings.Contains(report.String(), "mixed-rate-anomaly-mesh,"+kind+",1,") {
			t.Errorf("report has no %s row:\n%s", kind, report.String())
		}
	}
}
