// Package campaign turns a fleet of estimation jobs — scenario spec ×
// estimator kind × confidence target × probing budget — into one
// resumable, deterministic run. A campaign file (JSON, parsed with the
// same strict walker discipline as scenario specs) declares the jobs;
// the orchestrator schedules them across workers, appends one JSON
// line per completed job to a results log that doubles as the
// checkpoint, and on restart replays the log and runs only what is
// missing. Because every job derives its randomness purely from the
// campaign seed and its own global index, the final log and the fleet
// report are byte-identical at any worker count and across any
// kill/resume history.
package campaign

import (
	"fmt"
	"os"
	"path"
	"strconv"
	"strings"

	"csmabw/internal/estimate"
	"csmabw/internal/probe"
	"csmabw/internal/scenario"
)

// Spec is a parsed campaign file: its identity plus the fully expanded
// job list (explicit jobs first, then sweep products, in file order).
// Parse fills it without touching the filesystem; Compile resolves the
// referenced scenario files.
type Spec struct {
	// Name identifies the campaign; scenlint requires it to match the
	// library file's base name.
	Name string
	// Description is free documentation carried to reports and -h text.
	Description string
	// Seed is the campaign master seed: job i runs with the substream
	// Child(i) of it, so any subset of jobs reproduces exactly.
	Seed int64
	// Jobs is the expanded job list; indices into it are the job
	// indices every log record and substream derivation refers to.
	Jobs []JobSpec
}

// JobSpec is one estimation job of a campaign.
type JobSpec struct {
	// ID names the job uniquely within the campaign; the results log is
	// keyed by it.
	ID string
	// Scenario is the scenario spec file, relative to the campaign file.
	Scenario string
	// Estimator is the estimator kind to run.
	Estimator estimate.Kind
	// TargetRel is the relative 95% CI target (0 = the kind default).
	TargetRel float64
	// Budget caps the job's probing effort (zero value = uncapped).
	Budget estimate.Budget
	// TrainLen, Reps and MaxReps are the effort overrides of
	// estimate.JobConfig (0 = per-kind defaults).
	TrainLen, Reps, MaxReps int
}

// Config assembles the job's estimate.JobConfig.
func (j JobSpec) Config() estimate.JobConfig {
	return estimate.JobConfig{
		TargetRel: j.TargetRel,
		Budget:    j.Budget,
		TrainLen:  j.TrainLen,
		Reps:      j.Reps,
		MaxReps:   j.MaxReps,
	}
}

// Parse decodes a campaign file from JSON, strictly: unknown keys,
// wrong types, non-finite numbers, bad estimator kinds, out-of-range
// targets and duplicate job IDs are all positional errors. Sweeps are
// expanded here, so the returned Spec's job list is final. Parse never
// touches the filesystem — scenario references are resolved by Compile.
func Parse(data []byte) (*Spec, error) {
	root, err := scenario.Root(data, "campaign")
	if err != nil {
		return nil, err
	}

	s := &Spec{
		Name:        root.Str("name"),
		Description: root.Str("description"),
		Seed:        int64(root.Int("seed")),
	}
	if s.Name == "" && root.Err() == nil {
		root.Fail("name", "campaign needs a name")
	}
	for i, j := range root.Children("jobs") {
		at := fmt.Sprintf("jobs[%d]", i)
		job := JobSpec{
			ID:       j.Str("id"),
			Scenario: j.Str("scenario"),
		}
		job.Estimator = parseKind(j, "estimator", j.Str("estimator"))
		job.TargetRel = parseTarget(j, "target_rel", j.Num("target_rel"))
		job.Budget = parseBudget(j)
		job.TrainLen, job.Reps, job.MaxReps = parseEffort(j)
		j.Done()
		if root.Err() != nil {
			break
		}
		if job.ID == "" {
			root.Fail(at+".id", "job needs an id")
			break
		}
		if job.Scenario == "" {
			root.Fail(at+".scenario", "job needs a scenario spec path")
			break
		}
		s.Jobs = append(s.Jobs, job)
	}
	for i, sw := range root.Children("sweeps") {
		at := fmt.Sprintf("sweeps[%d]", i)
		scenarios := sw.Strs("scenarios")
		kinds := sw.Strs("estimators")
		targets := sw.Nums("target_rels")
		budget := parseBudget(sw)
		trainLen, reps, maxReps := parseEffort(sw)
		sw.Done()
		if root.Err() != nil {
			break
		}
		if len(scenarios) == 0 {
			root.Fail(at+".scenarios", "sweep needs at least one scenario")
			break
		}
		if len(kinds) == 0 {
			root.Fail(at+".estimators", "sweep needs at least one estimator")
			break
		}
		if len(targets) == 0 {
			targets = []float64{0}
		}
		for _, sc := range scenarios {
			for _, ks := range kinds {
				kind := parseKind(sw, "estimators", ks)
				for _, t := range targets {
					target := parseTarget(sw, "target_rels", t)
					if root.Err() != nil {
						return nil, root.Err()
					}
					s.Jobs = append(s.Jobs, JobSpec{
						ID:        sweepID(sc, kind, target),
						Scenario:  sc,
						Estimator: kind,
						TargetRel: target,
						Budget:    budget,
						TrainLen:  trainLen,
						Reps:      reps,
						MaxReps:   maxReps,
					})
				}
			}
		}
	}
	root.Done()
	if err := root.Err(); err != nil {
		return nil, err
	}
	if len(s.Jobs) == 0 {
		return nil, fmt.Errorf("campaign: jobs: campaign needs at least one job")
	}
	seen := map[string]int{}
	for i, j := range s.Jobs {
		if prev, dup := seen[j.ID]; dup {
			return nil, fmt.Errorf("campaign: jobs[%d].id: duplicate job id %q (also jobs[%d])", i, j.ID, prev)
		}
		seen[j.ID] = i
	}
	return s, nil
}

// sweepID derives a sweep-expanded job's ID:
// "<scenario-base>/<kind>/t<target>" — e.g. "paper-baseline/topp/t0.1",
// with "tdefault" for an unset target.
func sweepID(scenarioPath string, kind estimate.Kind, target float64) string {
	base := strings.TrimSuffix(path.Base(scenarioPath), ".json")
	t := "default"
	if target != 0 {
		t = strconv.FormatFloat(target, 'g', -1, 64)
	}
	return base + "/" + string(kind) + "/t" + t
}

// parseKind validates an estimator kind name through the walker's
// error slot.
func parseKind(o *scenario.Obj, key, s string) estimate.Kind {
	if s == "" {
		o.Fail(key, "job needs an estimator kind (topp|slops|adaptive)")
		return ""
	}
	k, err := estimate.ParseKind(s)
	if err != nil {
		o.Fail(key, "unknown estimator kind %q (topp|slops|adaptive)", s)
		return ""
	}
	return k
}

// parseTarget validates a relative CI target: 0 (kind default) or a
// fraction strictly inside (0, 1).
func parseTarget(o *scenario.Obj, key string, t float64) float64 {
	if t != 0 && (t <= 0 || t >= 1) {
		o.Fail(key, "CI target %g outside (0, 1)", t)
		return 0
	}
	return t
}

// parseBudget reads an optional budget object.
func parseBudget(o *scenario.Obj) estimate.Budget {
	b := o.Child("budget")
	if b == nil {
		return estimate.Budget{}
	}
	out := estimate.Budget{
		MaxProbeSeconds: b.Num("max_probe_seconds"),
		MaxPackets:      b.Int("max_packets"),
	}
	if out.MaxProbeSeconds < 0 {
		b.Fail("max_probe_seconds", "budget cap %g must be >= 0", out.MaxProbeSeconds)
	}
	if out.MaxPackets < 0 {
		b.Fail("max_packets", "budget cap %d must be >= 0", out.MaxPackets)
	}
	b.Done()
	return out
}

// parseEffort reads the optional per-job effort overrides.
func parseEffort(o *scenario.Obj) (trainLen, reps, maxReps int) {
	trainLen = o.Int("train_len")
	reps = o.Int("reps")
	maxReps = o.Int("max_reps")
	for _, k := range []struct {
		key string
		v   int
	}{{"train_len", trainLen}, {"reps", reps}, {"max_reps", maxReps}} {
		if k.v < 0 {
			o.Fail(k.key, "effort knob %d must be >= 0", k.v)
		}
	}
	if trainLen > probe.MaxTrainLen {
		o.Fail("train_len", "a train holds at most %d packets, got %d", probe.MaxTrainLen, trainLen)
	}
	return trainLen, reps, maxReps
}

// Load reads and parses a campaign file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
