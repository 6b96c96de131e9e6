// Command campaign orchestrates a fleet of available-bandwidth
// estimation jobs — scenario spec × estimator kind × CI target ×
// probing budget — declared in a campaign file, scheduled across
// workers, checkpointed to a JSON-lines results log, and summarized as
// a per-scenario/per-estimator fleet report. The run is deterministic
// end to end: the final log and the report are byte-identical at any
// -workers count, and a killed run resumed with -resume converges to
// the exact bytes of an uninterrupted one.
//
// Usage:
//
//	campaign -campaign FILE.json -out results.jsonl
//	         [-resume] [-report-only]
//	         [-workers N] [-seed N] [-format table|csv|json]
//
// The results log doubles as the checkpoint: each completed job appends
// one JSON line (estimate, effective CI, truth, cost ledger, truncation
// reason), and -resume replays it, skips the recorded jobs, and runs
// only what is missing. When the fleet completes, the log is compacted
// to job-index order via an atomic rename — the canonical artifact.
// -report-only renders the fleet report from an existing log without
// running anything.
//
// The estimators on one cell are a one-sweep campaign:
// scenarios/campaigns/one-cell.json runs TOPP, SLoPS and adaptive
// trains on one spec under one target and budget; copy it and point its
// scenario at another spec to score the estimators there.
//
// Host-side orchestrator telemetry (jobs/sec, p50/p99 job latency,
// worker utilization) goes to stderr, never into the log or the
// report: wall-clock numbers vary run to run, and the log's contract
// is byte-identity.
//
//	campaign -campaign scenarios/campaigns/one-cell.json -out results.jsonl
//	campaign -campaign scenarios/campaigns/library.json -out results.jsonl
//	campaign -campaign scenarios/campaigns/library.json -out results.jsonl -resume
//	campaign -campaign scenarios/campaigns/library.json -out results.jsonl -report-only -format csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"csmabw/internal/campaign"
	"csmabw/internal/clikit"
	"csmabw/internal/runner"
)

// campaignConfig is the tool configuration resolved from the command
// line.
type campaignConfig struct {
	plan       *campaign.Plan
	out        string
	resume     bool
	reportOnly bool
	workers    int
	format     string
}

// parseArgs resolves the command line into a validated configuration.
func parseArgs(args []string) (*campaignConfig, error) {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	c := &campaignConfig{}
	var path string
	fs.StringVar(&path, "campaign", "",
		"declarative campaign file (JSON) naming the estimation jobs to run; scenario paths resolve relative to it")
	fs.StringVar(&c.out, "out", "", "results log (JSON lines); doubles as the resume checkpoint")
	fs.BoolVar(&c.resume, "resume", false, "replay an existing results log and run only the missing jobs")
	fs.BoolVar(&c.reportOnly, "report-only", false, "render the fleet report from an existing -out log without running jobs")
	fs.IntVar(&c.workers, "workers", 0, "worker goroutines for the job fleet (0 = all cores); results are identical at any count")
	var seed int64
	fs.Int64Var(&seed, "seed", 0, "campaign master seed (overrides the campaign file's seed)")
	fs.StringVar(&c.format, "format", "table", "fleet report format: table, csv or json")
	if err := fs.Parse(args); err != nil {
		return nil, clikit.ParseError(err)
	}
	switch c.format {
	case "table", "csv", "json":
	default:
		return nil, fmt.Errorf("unknown format %q (table|csv|json)", c.format)
	}
	if path == "" {
		return nil, fmt.Errorf("-campaign is required: a campaign file names the jobs to run")
	}
	if c.out == "" {
		return nil, fmt.Errorf("-out is required: the results log is both the output and the checkpoint")
	}
	if c.workers < 0 {
		return nil, fmt.Errorf("-workers %d must be >= 0 (0 = all cores)", c.workers)
	}
	plan, err := campaign.CompileFile(path)
	if err != nil {
		return nil, err
	}
	if clikit.Passed(fs, "seed") {
		plan.Spec.Seed = seed
	}
	c.plan = plan
	return c, nil
}

// run executes the campaign (or renders the report) and writes the
// fleet report to w.
func run(c *campaignConfig, w io.Writer) error {
	var recs []campaign.Record
	if c.reportOnly {
		var err error
		recs, err = campaign.ReadLog(c.out)
		if err != nil {
			return err
		}
	} else {
		meter := &runner.Meter{}
		res, err := campaign.Run(c.plan, campaign.RunConfig{
			Workers: c.workers,
			LogPath: c.out,
			Resume:  c.resume,
			Meter:   meter,
		})
		if err != nil {
			return err
		}
		recs = res.Records
		// Orchestrator telemetry: host wall-clock numbers stay out of the
		// deterministic log, so they report here.
		s := res.Stats
		fmt.Fprintf(os.Stderr,
			"campaign: %d jobs run, %d resumed in %.2fs: %.2f jobs/sec, job latency p50 %.3fs p99 %.3fs, worker utilization %.0f%%\n",
			res.Ran, res.Resumed, s.WallSeconds, s.UnitsPerSec, s.P50Seconds, s.P99Seconds, 100*s.Utilization)
	}
	report, err := campaign.RenderReport(campaign.Summarize(recs), c.format)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, report)
	return err
}

func main() {
	cfg, err := parseArgs(os.Args[1:])
	clikit.ExitArgs(err)
	clikit.Check(run(cfg, os.Stdout))
}
