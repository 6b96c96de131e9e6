package main

// The layer replays of a traced run. After the timed phase, each layer
// is called directly on the workload's own cells, so its cost is
// measured apart from the layers above and below it. Replays do fixed
// work, so their counts are exact functions of the seed.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"csmabw/internal/campaign"
	"csmabw/internal/estimate"
	"csmabw/internal/experiments"
	"csmabw/internal/mac"
	"csmabw/internal/pathsel"
	"csmabw/internal/probe"
	"csmabw/internal/scenario"
	"csmabw/internal/sim"
)

// compileReps, planReps and checkpointReps repeat the fastest calls so
// one timing covers well over the clock's resolution; campaignPasses
// is how many times the campaign replay runs its pass.
const (
	compileReps    = 10
	planReps       = 100
	checkpointReps = 5
	campaignPasses = 3
)

// replayLayers runs every replay and returns the per-layer metrics they
// measure, and the estimate replay's worker-pool batch.
func replayLayers(e *env, w workload) (map[string]float64, batch, error) {
	out := map[string]float64{}
	cells := w.cells()
	for _, step := range []func(*env, []replayCell, map[string]float64) error{replayCompile, replayProbe, replayMAC, replayPathsel} {
		if err := step(e, cells, out); err != nil {
			return nil, batch{}, err
		}
	}
	path, err := w.campaignFile()
	if err != nil {
		return nil, batch{}, err
	}
	b, err := replayCampaign(e, path, out)
	return out, b, err
}

// replayCompile times scenario.CompileFile on each cell's spec file.
func replayCompile(e *env, cells []replayCell, out map[string]float64) error {
	var total time.Duration
	for _, c := range cells {
		path := filepath.Join(e.root, c.path)
		t0 := time.Now()
		for k := 0; k < compileReps; k++ {
			if _, err := scenario.CompileFile(path); err != nil {
				return err
			}
		}
		total += time.Since(t0)
	}
	out["scenario.compile_ms"] = total.Seconds() * 1e3 / float64(len(cells)*compileReps)
	return nil
}

// replayProbe plans each cell's train, measures Reps replications of it
// serially on one meter, and runs the figure reductions over them.
func replayProbe(e *env, cells []replayCell, out map[string]float64) error {
	var plan, train time.Duration
	var trains, injected, delivered int
	var red genTimes
	for _, c := range cells {
		n, rate := c.comp.Probing.TrainLen, c.comp.Probing.RateBps
		var p *probe.TrainPlan
		t0 := time.Now()
		for k := 0; k < planReps; k++ {
			var err error
			if p, err = probe.PlanTrain(c.comp.Link, n, rate); err != nil {
				return err
			}
		}
		plan += time.Since(t0)

		m := &probe.TrainMeter{}
		samples := make([]probe.TrainSample, e.size.Reps)
		t0 = time.Now()
		for rep := range samples {
			s, err := p.MeasureOne(m, rep)
			if err != nil {
				return err
			}
			samples[rep] = s
		}
		train += time.Since(t0)
		for _, s := range samples {
			trains++
			injected += s.Injected
			delivered += s.Delivered
		}
		_, t, err := reduceGen(nil, -1, samples, n, c.comp.Link.WithDefaults().ProbeSize, true)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		red.probe += t.probe
		red.means += t.means
		red.ks += t.ks
		red.mser += t.mser
	}
	gens := float64(len(cells))
	out["probe.plan_us"] = plan.Seconds() * 1e6 / float64(len(cells)*planReps)
	out["probe.us_per_train"] = train.Seconds() * 1e6 / float64(trains)
	out["probe.us_per_pkt"] = train.Seconds() * 1e6 / float64(injected)
	out["probe.delivered_frac"] = float64(delivered) / float64(injected)
	out["probe.reduce_ms_per_gen"] = red.probe.Seconds() * 1e3 / gens
	out["stats.means_ms_per_gen"] = red.means.Seconds() * 1e3 / gens
	out["stats.ks_ms_per_gen"] = red.ks.Seconds() * 1e3 / gens
	out["core.mser_ms_per_gen"] = red.mser.Seconds() * 1e3 / gens
	return nil
}

// replayMAC drives the engine directly: each cell's train plan becomes
// Reps mac.Configs through Compiled.MACConfig, run on one engine built
// by mac.New and recycled by Reset. The horizon leaves the train twice
// its nominal span to drain.
func replayMAC(e *env, cells []replayCell, out map[string]float64) error {
	var build, reset, run time.Duration
	var runs, attempts, delivered, collisions, phyErrs int
	var allocs uint64
	var ms runtime.MemStats
	for _, c := range cells {
		l := c.comp.Link.WithDefaults()
		gI := sim.FromSeconds(float64(l.ProbeSize*8) / c.comp.Probing.RateBps)
		horizon := l.WarmUp + 2*sim.Time(c.comp.Probing.TrainLen)*gI + 200*sim.Millisecond
		stream := sim.NewStream(c.comp.Link.Seed)
		cfgs := make([]mac.Config, e.size.Reps)
		for rep := range cfgs {
			var err error
			if cfgs[rep], err = c.comp.MACConfig(stream.Child(uint64(rep)), horizon); err != nil {
				return err
			}
		}
		t0 := time.Now()
		eng, err := mac.New(cfgs[0])
		if err != nil {
			return err
		}
		build += time.Since(t0)
		count := func(res *mac.Result) {
			runs++
			for _, st := range res.Stats {
				attempts += st.Attempts
				delivered += st.Delivered
				collisions += st.Collisions
				phyErrs += st.ChannelErrors
			}
		}
		t0 = time.Now()
		count(eng.Run())
		run += time.Since(t0)
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for _, cfg := range cfgs[1:] {
			t0 := time.Now()
			if err := eng.Reset(cfg); err != nil {
				return err
			}
			t1 := time.Now()
			res := eng.Run()
			t2 := time.Now()
			reset += t1.Sub(t0)
			run += t2.Sub(t1)
			count(res)
		}
		runtime.ReadMemStats(&ms)
		allocs += ms.Mallocs - before
	}
	out["mac.new_us"] = build.Seconds() * 1e6 / float64(len(cells))
	out["mac.reset_us"] = reset.Seconds() * 1e6 / float64(runs-len(cells))
	out["mac.ns_per_attempt"] = run.Seconds() * 1e9 / float64(attempts)
	out["mac.allocs_per_run"] = float64(allocs) / float64(runs-len(cells))
	out["mac.attempts_per_run"] = float64(attempts) / float64(runs)
	out["mac.useful_frac"] = float64(delivered) / float64(attempts)
	out["mac.collision_frac"] = float64(collisions) / float64(attempts)
	out["mac.phyerr_frac"] = float64(phyErrs) / float64(attempts)
	return nil
}

// replayPathsel runs the selection-regret policies over the cells as
// candidate paths: Reps runs of pathsel.Run, serially on one meter,
// each followed by the same run's probing trains sent directly through
// PlanTrain and MeasureOne. The trains must reproduce every epoch's
// measured rate and loss; the time Run spends outside them is the
// selection layer's own.
func replayPathsel(e *env, cells []replayCell, out map[string]float64) error {
	p := experiments.DefaultPathsel()
	for _, c := range cells {
		p.Upstreams = append(p.Upstreams, c.comp.Link)
	}
	var cfgs []pathsel.Config
	for _, pol := range p.Policies {
		cfgs = append(cfgs, pathselConfig(p, pol).WithDefaults())
	}
	m, tm := &pathsel.Meter{}, &probe.TrainMeter{}
	var runT, trainT time.Duration
	switches := 0
	for u := 0; u < e.size.Reps; u++ {
		cfg, rep := cfgs[u%len(cfgs)], u/len(cfgs)
		t0 := time.Now()
		res, err := pathsel.Run(cfg, rep, m)
		runT += time.Since(t0)
		if err != nil {
			return err
		}
		switches += res.Switches
		epoch := sim.FromSeconds(cfg.EpochSeconds)
		for k, ep := range res.Epochs {
			for i, l := range cfg.Paths {
				// pathsel.Run's per-epoch path: the schedule rebased onto
				// the epoch, the seed offset by epoch and path.
				l.Schedule = rebased(l.Schedule, sim.Time(k)*epoch)
				l.Seed += int64(k)*1_000_003 + int64(i)*7919
				t0 := time.Now()
				plan, err := probe.PlanTrain(l, cfg.TrainLen, cfg.RateBps)
				if err != nil {
					return err
				}
				s, err := plan.MeasureOne(tm, rep)
				trainT += time.Since(t0)
				if err != nil {
					return err
				}
				size := l.WithDefaults().ProbeSize
				rate, loss := 0.0, 0.0
				if s.GO > 0 {
					rate = float64(size*8) / s.GO.Seconds()
				}
				if s.Injected > 0 {
					loss = 1 - float64(s.Delivered)/float64(s.Injected)
				}
				if got := ep.Meas[i]; got.RateBps != rate || got.Loss != loss {
					return fmt.Errorf("pathsel %s rep %d epoch %d path %d: run measured %g bit/s and %g loss, its train gives %g and %g",
						cfg.Policy, rep, k, i, got.RateBps, got.Loss, rate, loss)
				}
			}
		}
	}
	runs := float64(e.size.Reps)
	out["pathsel.run_ms"] = runT.Seconds() * 1e3 / runs
	out["pathsel.self_frac"] = 1 - trainT.Seconds()/runT.Seconds()
	out["pathsel.switches_per_run"] = float64(switches) / runs
	return nil
}

// rebased shifts a schedule onto a timeline starting at start, as
// pathsel.Run does for each epoch: events at or before start apply at
// instant 0, later ones keep their offset.
func rebased(sched []mac.ScheduledEvent, start sim.Time) []mac.ScheduledEvent {
	if len(sched) == 0 {
		return nil
	}
	out := make([]mac.ScheduledEvent, len(sched))
	for i, ev := range sched {
		ev.At = max(ev.At-start, 0)
		out[i] = ev
	}
	return out
}

// replayCampaign compiles the campaign file and runs its pass 0
// through campaign.Run campaignPasses times on the run's workers, each
// pass reproducing the first one's records. On those records it times
// the checkpoint path (WriteCompact, then ReadLog), each scenario's
// ground truth, and every job rerun through estimate.RunKind with the
// seeding campaign.Run gives it, on the same workers and one job per
// claim, requiring each result to equal the job's record.
func replayCampaign(e *env, path string, out map[string]float64) (batch, error) {
	if !filepath.IsAbs(path) {
		path = filepath.Join(e.root, path)
	}
	var plan *campaign.Plan
	t0 := time.Now()
	for k := 0; k < compileReps; k++ {
		var err error
		if plan, err = campaign.CompileFile(path); err != nil {
			return batch{}, err
		}
	}
	out["campaign.compile_ms"] = time.Since(t0).Seconds() * 1e3 / compileReps
	plan.Spec.Seed = passSeed(e.seed, 0)

	var recs []campaign.Record
	var utils, serial []float64
	for k := 0; k < campaignPasses; k++ {
		log := filepath.Join(e.scratch, fmt.Sprintf("replay-%d.jsonl", k))
		t0 := time.Now()
		res, err := campaign.Run(plan, campaign.RunConfig{Workers: e.workers, LogPath: log})
		wall := time.Since(t0).Seconds()
		if err != nil {
			return batch{}, err
		}
		if err := os.Remove(log); err != nil {
			return batch{}, err
		}
		if k == 0 {
			recs = res.Records
			if len(recs) != len(plan.Jobs) {
				return batch{}, fmt.Errorf("campaign pass: %d records for %d jobs", len(recs), len(plan.Jobs))
			}
		} else if !reflect.DeepEqual(res.Records, recs) {
			return batch{}, fmt.Errorf("campaign pass %d: records differ from the first run of the same pass", k)
		}
		st := res.Stats
		utils = append(utils, st.Utilization*st.WallSeconds/wall)
		serial = append(serial, (wall-st.WallSeconds)*1e3)
	}
	out["campaign.fleet_util"] = median(utils)
	out["campaign.serial_ms_per_pass"] = median(serial)

	ckpt := filepath.Join(e.scratch, "checkpoint.jsonl")
	t0 = time.Now()
	var back []campaign.Record
	for k := 0; k < checkpointReps; k++ {
		if err := campaign.WriteCompact(ckpt, recs); err != nil {
			return batch{}, err
		}
		var err error
		if back, err = campaign.ReadLog(ckpt); err != nil {
			return batch{}, err
		}
	}
	out["campaign.checkpoint_ms_per_pass"] = time.Since(t0).Seconds() * 1e3 / checkpointReps
	if err := os.Remove(ckpt); err != nil {
		return batch{}, err
	}
	if !reflect.DeepEqual(back, recs) {
		return batch{}, fmt.Errorf("checkpoint: %d records read back as %d different ones", len(recs), len(back))
	}

	var truth time.Duration
	for _, sp := range plan.ScenarioPaths {
		for _, j := range plan.Jobs {
			if j.ScenarioPath != sp {
				continue
			}
			l := j.Scenario.Link
			l.Workers = 1
			t0 := time.Now()
			if _, err := estimate.GroundTruth(l, estimate.TruthConfig{}); err != nil {
				return batch{}, err
			}
			truth += time.Since(t0)
			break
		}
	}
	out["estimate.truth_ms"] = truth.Seconds() * 1e3 / float64(len(plan.ScenarioPaths))

	type outcome struct {
		est estimate.Estimate
		err error
	}
	master := sim.NewStream(plan.Spec.Seed)
	pool := &workerPool[struct{}]{states: make([]struct{}, e.workers)}
	untraced := *e
	untraced.tr = nil
	ests, durs, b, err := mapUnits(&untraced, pool, -1, "estimate.RunKind", "estimate", len(plan.Jobs), 1,
		func(_ struct{}, i int) (outcome, error) {
			j := plan.Jobs[i]
			l := j.Scenario.Link
			l.Seed = master.Child(uint64(j.Index)).Seed()
			l.Workers = 1
			est, err := estimate.RunKind(l, j.Spec.Estimator, j.Spec.Config())
			return outcome{est, err}, nil
		})
	if err != nil {
		return batch{}, err
	}
	perKind := map[estimate.Kind]time.Duration{}
	nKind := map[estimate.Kind]int{}
	var total time.Duration
	var trains, pkts, truncated int
	for i, j := range plan.Jobs {
		if recs[i].Job != j.Spec.ID {
			return batch{}, fmt.Errorf("campaign record %d is job %s, want %s", i, recs[i].Job, j.Spec.ID)
		}
		if err := matchRecord(recs[i], ests[i].est, ests[i].err); err != nil {
			return batch{}, fmt.Errorf("job %s: %w", j.Spec.ID, err)
		}
		perKind[j.Spec.Estimator] += durs[i]
		nKind[j.Spec.Estimator]++
		total += durs[i]
		trains += ests[i].est.Cost.Trains
		pkts += ests[i].est.Cost.Packets
		if ests[i].est.Truncated != estimate.TruncatedNone {
			truncated++
		}
	}
	jobs := float64(len(plan.Jobs))
	for _, k := range estimate.Kinds() {
		out["estimate."+string(k)+"_ms_per_job"] = perKind[k].Seconds() * 1e3 / float64(nKind[k])
	}
	out["estimate.ms_per_train"] = total.Seconds() * 1e3 / float64(trains)
	out["estimate.trains_per_job"] = float64(trains) / jobs
	out["estimate.pkts_per_job"] = float64(pkts) / jobs
	out["estimate.truncated_frac"] = float64(truncated) / jobs
	return b, nil
}

// matchRecord requires a replayed estimate to equal the campaign record
// of the same job: status, cost ledger, rounds and truncation, plus the
// value and CI of every job that did not fail.
func matchRecord(rec campaign.Record, est estimate.Estimate, err error) error {
	status := campaign.StatusOK
	switch {
	case err == nil:
	case errors.Is(err, estimate.ErrTargetNotReached):
		status = campaign.StatusTargetMiss
	default:
		status = campaign.StatusFailed
	}
	want := campaign.Record{
		Status: status, Trains: est.Cost.Trains, Packets: est.Cost.Packets,
		ProbeSeconds: finite(est.Cost.ProbeSeconds), Rounds: est.Rounds, Truncated: string(est.Truncated),
	}
	got := campaign.Record{
		Status: rec.Status, Trains: rec.Trains, Packets: rec.Packets,
		ProbeSeconds: rec.ProbeSeconds, Rounds: rec.Rounds, Truncated: rec.Truncated,
	}
	if status != campaign.StatusFailed {
		want.ValueBps, want.CIBps = finite(est.Value), finite(est.CI)
		got.ValueBps, got.CIBps = rec.ValueBps, rec.CIBps
	}
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("replayed estimate %+v differs from the campaign record %+v", want, got)
	}
	return nil
}
