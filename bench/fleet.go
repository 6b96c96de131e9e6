package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"

	"csmabw/internal/campaign"
	"csmabw/internal/estimate"
	"csmabw/internal/runner"
	"csmabw/internal/scenario"
	"csmabw/internal/sim"
)

// campaignWorkload runs the whole campaign file through campaign.Run
// once per round ("pass"), each pass under its own master seed and
// with a fresh results log.
type campaignWorkload struct {
	e    *env
	plan *campaign.Plan
	// lat times the latest pass's jobs.
	lat *runner.Meter
	// last is the latest pass's plan, log and result.
	last struct {
		plan *campaign.Plan
		log  string
		res  *campaign.RunResult
	}
	det map[string]float64
}

func (w *campaignWorkload) setup() error {
	p, err := campaign.CompileFile(filepath.Join(w.e.root, w.e.size.Campaign))
	if err != nil {
		return err
	}
	w.plan = p
	return nil
}

// passSeed is the master seed of campaign pass r under the run's seed.
func passSeed(seed int64, r int) int64 { return sim.NewStream(seed).Child(uint64(r)).Seed() }

// passPlan is the plan with pass r's master seed.
func (w *campaignWorkload) passPlan(r int) *campaign.Plan {
	spec := *w.plan.Spec
	spec.Seed = passSeed(w.e.seed, r)
	p := *w.plan
	p.Spec = &spec
	return &p
}

func (w *campaignWorkload) round(r, parent int) (roundStats, error) {
	p := w.passPlan(r)
	log := filepath.Join(w.e.scratch, fmt.Sprintf("pass-%d.jsonl", r))
	w.lat = &runner.Meter{}
	id := w.e.tr.open("campaign.Run", "campaign", parent)
	res, err := campaign.Run(p, campaign.RunConfig{Workers: w.e.workers, LogPath: log, Meter: w.lat})
	w.e.tr.close(id)
	if err != nil {
		return roundStats{}, err
	}
	w.last.plan, w.last.log, w.last.res = p, log, res
	// The fleet's runner.MapBatches call is inside campaign.Run, so the
	// round reports no batch of its own.
	rs := roundStats{units: res.Ran}
	for _, rec := range res.Records {
		rs.pkts += rec.Packets
		if rec.Status == campaign.StatusFailed {
			rs.failed++
		}
	}
	return rs, nil
}

func (w *campaignWorkload) check(r int, h io.Writer) error {
	p, res := w.last.plan, w.last.res
	if res.Ran != len(p.Jobs) || res.Resumed != 0 || len(res.Records) != len(p.Jobs) {
		return fmt.Errorf("pass %d: ran %d, resumed %d, %d records for %d jobs", r, res.Ran, res.Resumed, len(res.Records), len(p.Jobs))
	}
	data, err := os.ReadFile(w.last.log)
	if err != nil {
		return err
	}
	back, err := campaign.ReadLog(w.last.log)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(back, res.Records) {
		return fmt.Errorf("pass %d: the log does not read back as the records Run returned", r)
	}
	for i, rec := range res.Records {
		if err := withinBudget(rec, p.Jobs[i].Spec.Budget); err != nil {
			return fmt.Errorf("pass %d: job %s: %w", r, rec.Job, err)
		}
	}
	if err := os.Remove(w.last.log); err != nil {
		return err
	}
	if h != nil {
		h.Write(data)
		var errs []float64
		for _, rec := range res.Records {
			if rec.Status != campaign.StatusFailed {
				errs = append(errs, math.Abs(rec.RelErr))
			}
		}
		w.det = map[string]float64{"est_relerr_p50": median(errs)}
	}
	return nil
}

// withinBudget checks a record's cost ledger against its job's caps.
func withinBudget(rec campaign.Record, b estimate.Budget) error {
	if b.MaxPackets > 0 && rec.Packets > b.MaxPackets {
		return fmt.Errorf("%d packets over a cap of %d", rec.Packets, b.MaxPackets)
	}
	if b.MaxProbeSeconds > 0 && rec.ProbeSeconds > b.MaxProbeSeconds {
		return fmt.Errorf("%g probe-seconds over a cap of %g", rec.ProbeSeconds, b.MaxProbeSeconds)
	}
	return nil
}

// latency is the pass's job percentiles: campaign.Run times each job
// into the meter it is given, which keeps the times to itself.
func (w *campaignWorkload) latency() []cellLatency {
	st := w.lat.Stats(0, 0)
	return []cellLatency{{name: "jobs", units: st.Units, p50: st.P50Seconds * 1e3, p99: st.P99Seconds * 1e3}}
}

func (w *campaignWorkload) deterministic() map[string]float64 { return w.det }

// cells are the campaign's distinct scenarios, each sending the
// estimators' default train (50 packets) at 6 Mb/s in the replays.
func (w *campaignWorkload) cells() []replayCell {
	var out []replayCell
	seen := map[string]bool{}
	for _, j := range w.plan.Jobs {
		if seen[j.ScenarioPath] {
			continue
		}
		seen[j.ScenarioPath] = true
		comp := *j.Scenario
		comp.Probing = scenario.Probing{Plan: scenario.PlanTrain, TrainLen: 50, RateBps: 6e6}
		comp.Link.Seed = sim.NewStream(w.e.seed).Child(uint64(len(out))).Seed()
		comp.Link.Workers = 1
		rel, err := filepath.Rel(w.e.root, j.ScenarioPath)
		if err != nil {
			rel = j.ScenarioPath
		}
		out = append(out, replayCell{name: comp.Name, path: rel, comp: &comp})
	}
	return out
}

func (w *campaignWorkload) campaignFile() (string, error) { return w.e.size.Campaign, nil }

// writeCellCampaign writes, into the run's scratch directory, the
// campaign the replays run for a workload without one of its own:
// every estimator kind at a 10% target on each cell, under the library
// fleet's budget.
func writeCellCampaign(e *env, cells []replayCell) (string, error) {
	var paths []string
	for _, c := range cells {
		abs, err := filepath.Abs(filepath.Join(e.root, c.path))
		if err != nil {
			return "", err
		}
		paths = append(paths, abs)
	}
	data, err := json.Marshal(map[string]any{
		"name": "cell-replay",
		"seed": 1,
		"sweeps": []any{map[string]any{
			"scenarios":   paths,
			"estimators":  estimate.Kinds(),
			"target_rels": []float64{0.1},
			"budget":      map[string]float64{"max_probe_seconds": 60, "max_packets": 200000},
		}},
	})
	if err != nil {
		return "", err
	}
	path, err := filepath.Abs(filepath.Join(e.scratch, "cell-replay.json"))
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
