package estimate

// Kind-keyed dispatch over the three estimator families — the entry
// point campaign tooling uses to run "an estimation job" without
// hard-wiring per-estimator configuration. A job names the estimator,
// a confidence target and a budget; RunKind maps that onto each
// family's own knobs with one consistent interpretation of "target".

import (
	"fmt"
	"math"

	"csmabw/internal/probe"
)

// Kind names one closed-loop estimator family.
type Kind string

// The estimator kinds a campaign job can name.
const (
	// KindTOPP is the probing-rate sweep (TOPP).
	KindTOPP Kind = "topp"
	// KindSLoPS is the pathload-style self-loading bisection.
	KindSLoPS Kind = "slops"
	// KindAdaptive is the sequential CI-targeted train controller.
	KindAdaptive Kind = "adaptive"
)

// Kinds lists every estimator kind, in the canonical campaign order.
func Kinds() []Kind { return []Kind{KindTOPP, KindSLoPS, KindAdaptive} }

// ParseKind resolves an estimator-kind name.
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case KindTOPP, KindSLoPS, KindAdaptive:
		return Kind(s), nil
	}
	return "", fmt.Errorf("estimate: unknown estimator kind %q (topp|slops|adaptive)", s)
}

// JobConfig is the uniform configuration of one estimation job: the
// confidence target, the probing budget, and effort knobs shared by all
// estimator kinds. RunKind translates it into each family's own config.
type JobConfig struct {
	// TargetRel is the job's relative 95% confidence target (0 = the
	// per-kind default, 0.05). Its per-kind meaning:
	//   - adaptive: the controller's stopping rule directly;
	//   - slops: the bisection resolution, as TargetRel times the
	//     default search bracket's width — the terminal bracket
	//     half-width then bounds the CI at the same relative scale;
	//   - topp: the per-point replication count, scaled by the
	//     (0.05/TargetRel)^2 sample-size law from the base Reps — a
	//     tighter target buys quadratically more trains per sweep rate.
	TargetRel float64
	// Budget caps the campaign; the zero value is uncapped.
	Budget Budget
	// TrainLen overrides the packets per train for every kind
	// (0 = per-kind default: 50 TOPP, 60 SLoPS, 50 adaptive).
	TrainLen int
	// Reps overrides the base replication count — TOPP trains per sweep
	// point and SLoPS trains per rate before target scaling, and the
	// adaptive batch size (0 = per-kind default).
	Reps int
	// MaxReps bounds the adaptive controller's total replications
	// (0 = default 512); the other kinds bound themselves.
	MaxReps int
}

// validate rejects non-finite or out-of-range job knobs.
func (c JobConfig) validate() error {
	if err := checkFrac("job CI target", c.TargetRel, 0, 1); err != nil {
		return err
	}
	if c.TrainLen < 0 || c.Reps < 0 || c.MaxReps < 0 {
		return fmt.Errorf("estimate: negative job effort knobs %+v", c)
	}
	return c.Budget.validate()
}

// targetOrDefault resolves the job's relative CI target.
func (c JobConfig) targetOrDefault() float64 {
	if c.TargetRel == 0 {
		return 0.05
	}
	return c.TargetRel
}

// maxTOPPReps bounds the target-scaled trains per TOPP sweep point (a
// round holds them all): a thousand times the default 10, reached near
// a 0.0016 target.
const maxTOPPReps = 10_000

// RunKind runs the named estimator on the link under the job
// configuration. The error contract is the union of the per-kind ones:
// ErrEstimateFailed (with the partial Estimate's cost ledger) when no
// usable value emerged, ErrTargetNotReached (adaptive) when the
// replication budget ran out first — both of which a fleet scheduler
// records rather than fails on — and hard errors for invalid
// configuration, including a TOPP target that needs more than
// maxTOPPReps trains per sweep point. A job runs serially on the
// calling goroutine and one engine; the callers that run many jobs own
// the parallelism. Every kind derives its randomness purely from
// (l.Seed, round/replication index), so a job's result is
// byte-identical on any worker and in any scheduling order.
func RunKind(l probe.Link, k Kind, cfg JobConfig) (Estimate, error) {
	if err := cfg.validate(); err != nil {
		return Estimate{}, err
	}
	target := cfg.targetOrDefault()
	switch k {
	case KindTOPP:
		reps := cfg.Reps
		if reps == 0 {
			reps = 10
		}
		// The n = (z sigma / eps)^2 law relative to the 0.05 anchor:
		// halving the target quadruples the per-point replications. The
		// bound is checked in float: past int64 the conversion to int is
		// implementation-defined (MinInt64 on amd64).
		scaled := math.Ceil(float64(reps) * (0.05 / target) * (0.05 / target))
		if scaled > maxTOPPReps {
			return Estimate{}, fmt.Errorf("estimate: TOPP at CI target %g needs %.3g trains per sweep point, above %d",
				target, scaled, maxTOPPReps)
		}
		return TOPP(l, TOPPConfig{
			TrainLen: cfg.TrainLen,
			Reps:     max(int(scaled), 3),
			Budget:   cfg.Budget,
		})
	case KindSLoPS:
		// The resolution at TargetRel of the search bracket's width
		// makes the terminal bracket half-width a CI at the job's
		// relative scale of the searchable range.
		lo, hi, err := bracket(l.WithDefaults())
		if err != nil {
			return Estimate{}, err
		}
		return SLoPS(l, SLoPSConfig{
			ResolutionBps: target * (hi - lo),
			TrainLen:      cfg.TrainLen,
			Reps:          cfg.Reps,
			Budget:        cfg.Budget,
		})
	case KindAdaptive:
		return Adaptive(l, AdaptiveConfig{
			TrainLen:  cfg.TrainLen,
			TargetRel: target,
			BatchReps: cfg.Reps,
			MaxReps:   cfg.MaxReps,
			Budget:    cfg.Budget,
		})
	}
	return Estimate{}, fmt.Errorf("estimate: unknown estimator kind %q", k)
}
