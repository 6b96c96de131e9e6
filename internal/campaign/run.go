package campaign

// The orchestrator: schedule a plan's pending jobs across workers,
// checkpoint every completion to the results log, and keep the whole
// run a pure function of (campaign file, seed) — the scheduling is
// free-running, the results are not.

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"csmabw/internal/estimate"
	"csmabw/internal/runner"
	"csmabw/internal/sim"
)

// RunConfig tunes one orchestrator invocation.
type RunConfig struct {
	// Workers is the fleet's worker count (0 = all cores). Results are
	// byte-identical at any count.
	Workers int
	// LogPath is the results log / checkpoint file (required).
	LogPath string
	// Resume replays an existing log at LogPath and runs only the jobs
	// it is missing; without it an existing log is an error (refusing to
	// silently clobber a previous campaign's results).
	Resume bool
	// Meter, when set, receives one observation per executed job — the
	// host-side service time. Wall-clock telemetry stays out of the log
	// by design; the meter is how callers get it anyway.
	Meter *runner.Meter
}

// RunResult is one orchestrator invocation's outcome.
type RunResult struct {
	// Records is the complete campaign log, sorted by job index —
	// resumed records and fresh ones merged.
	Records []Record
	// Ran and Resumed count the jobs executed by this invocation versus
	// replayed from the checkpoint.
	Ran, Resumed int
	// Stats is the host-side orchestrator telemetry for the jobs this
	// invocation executed (zero when everything was resumed).
	Stats runner.MeterStats
}

// Run executes the plan's pending jobs and returns the complete,
// compacted campaign log. The fleet is the only parallelism: each job
// is one serial estimator call on one worker, with its own engine.
// Determinism contract: every job probes its scenario's link reseeded
// with Child(index) of the campaign master stream, so a job's record
// depends only on the campaign file and seed — never on the fleet's
// worker count, the completion order, or how many kill/resume cycles
// the campaign went through. Jobs whose estimator fails are
// recorded (status "failed", partial cost ledger), not fatal; only
// infrastructure errors (unwritable log, corrupt checkpoint) abort.
func Run(p *Plan, cfg RunConfig) (*RunResult, error) {
	if cfg.LogPath == "" {
		return nil, fmt.Errorf("campaign: RunConfig.LogPath is required")
	}

	done := map[string]Record{}
	if cfg.Resume {
		recs, err := ReadLog(cfg.LogPath)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		valid := map[string]bool{}
		for _, j := range p.Jobs {
			valid[j.Spec.ID] = true
		}
		for _, r := range recs {
			if !valid[r.Job] {
				return nil, fmt.Errorf("campaign: %s: log record for unknown job %q (wrong campaign file?)", cfg.LogPath, r.Job)
			}
			done[r.Job] = r
		}
	} else if _, err := os.Stat(cfg.LogPath); err == nil {
		return nil, fmt.Errorf("campaign: %s already exists (use resume to continue it)", cfg.LogPath)
	}

	var pending []PlannedJob
	for _, j := range p.Jobs {
		if _, ok := done[j.Spec.ID]; !ok {
			pending = append(pending, j)
		}
	}

	res := &RunResult{Resumed: len(done), Ran: len(pending)}

	// Ground truth is measured once per distinct scenario, serially,
	// before the fleet starts: it uses the scenario's own spec seed (not
	// a job substream), so every job against the same cell scores against
	// the same number and the log stays a pure function of the inputs.
	truths := map[string]float64{}
	if len(pending) > 0 {
		need := map[string]bool{}
		for _, j := range pending {
			need[j.ScenarioPath] = true
		}
		for _, path := range p.ScenarioPaths {
			if !need[path] {
				continue
			}
			var sc *PlannedJob
			for i := range p.Jobs {
				if p.Jobs[i].ScenarioPath == path {
					sc = &p.Jobs[i]
					break
				}
			}
			t, err := estimate.GroundTruth(sc.Scenario.Link, estimate.TruthConfig{})
			if err != nil {
				return nil, fmt.Errorf("campaign: ground truth for %s: %w", path, err)
			}
			truths[path] = t.AvailableBps
		}
	}

	logFile, err := os.OpenFile(cfg.LogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}

	master := sim.NewStream(p.Spec.Seed)
	meter := cfg.Meter
	if meter == nil {
		meter = &runner.Meter{}
	}
	var mu sync.Mutex // serializes log appends
	var appendErr error
	start := time.Now()

	workers := runner.Workers(cfg.Workers)
	records, err := runner.MapBatches(len(pending), workers, 1,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (Record, error) {
			job := pending[i]
			t0 := time.Now()
			r := runJob(job, master, truths[job.ScenarioPath])
			meter.Observe(time.Since(t0))
			line, merr := marshalRecord(r)
			if merr != nil {
				return r, merr
			}
			mu.Lock()
			// One Write call per line: a kill can truncate the tail of the
			// log but never interleave two records.
			if _, werr := logFile.Write(line); werr != nil && appendErr == nil {
				appendErr = werr
			}
			mu.Unlock()
			return r, nil
		})
	if err != nil {
		logFile.Close()
		return nil, err
	}
	if cerr := logFile.Close(); cerr != nil && appendErr == nil {
		appendErr = cerr
	}
	if appendErr != nil {
		return nil, fmt.Errorf("campaign: writing %s: %w", cfg.LogPath, appendErr)
	}

	res.Stats = meter.Stats(time.Since(start), workers)

	for _, r := range done {
		res.Records = append(res.Records, r)
	}
	res.Records = append(res.Records, records...)
	// Compaction always runs — including on an all-resumed invocation —
	// so the on-disk log converges to the same canonical bytes no matter
	// how execution was sliced.
	if err := WriteCompact(cfg.LogPath, res.Records); err != nil {
		return nil, err
	}
	final, err := ReadLog(cfg.LogPath)
	if err != nil {
		return nil, err
	}
	res.Records = final
	return res, nil
}

// runJob executes one estimation job; every failure mode becomes a
// record, never an error — a fleet survives its jobs.
func runJob(job PlannedJob, master sim.Stream, truthBps float64) Record {
	link := job.Scenario.Link
	link.Seed = master.Child(uint64(job.Index)).Seed()

	r := Record{
		Job:       job.Spec.ID,
		Index:     job.Index,
		Scenario:  job.Scenario.Name,
		Estimator: string(job.Spec.Estimator),
		TargetRel: job.Spec.TargetRel,
		TruthBps:  finite(truthBps),
	}
	est, err := estimate.RunKind(link, job.Spec.Estimator, job.Spec.Config())
	r.ValueBps = finite(est.Value)
	r.CIBps = finite(est.CI)
	r.Trains = est.Cost.Trains
	r.Packets = est.Cost.Packets
	r.ProbeSeconds = finite(est.Cost.ProbeSeconds)
	r.Rounds = est.Rounds
	r.Truncated = string(est.Truncated)
	switch {
	case err == nil:
		r.Status = StatusOK
	case errors.Is(err, estimate.ErrTargetNotReached):
		r.Status = StatusTargetMiss
		r.Error = err.Error()
	default:
		r.Status = StatusFailed
		r.Error = err.Error()
		r.ValueBps, r.CIBps = 0, 0
	}
	if r.Status != StatusFailed && r.TruthBps > 0 {
		r.RelErr = finite((r.ValueBps - r.TruthBps) / r.TruthBps)
	}
	return r
}
