package estimate

import (
	"fmt"
	"strings"
	"testing"

	"csmabw/internal/probe"
)

func TestParseKind(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(string(k))
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %q, %v", k, got, err)
		}
	}
	for _, bad := range []string{"", "TOPP", "pathload", "all"} {
		if _, err := ParseKind(bad); err == nil {
			t.Errorf("ParseKind(%q) accepted", bad)
		} else if !strings.Contains(err.Error(), "unknown estimator kind") {
			t.Errorf("ParseKind(%q) error = %v", bad, err)
		}
	}
}

func TestRunKindDispatch(t *testing.T) {
	l := probe.Link{Seed: 11}
	cfg := JobConfig{TargetRel: 0.2, TrainLen: 20, Reps: 2, MaxReps: 16,
		Budget: Budget{MaxProbeSeconds: 30}}
	for _, k := range Kinds() {
		est, err := RunKind(l, k, cfg)
		if err != nil {
			t.Fatalf("RunKind(%s): %v", k, err)
		}
		if est.Value <= 0 || est.Cost.Packets == 0 {
			t.Errorf("RunKind(%s) = %+v: want positive value and cost", k, est)
		}
	}
}

func TestRunKindUnknown(t *testing.T) {
	if _, err := RunKind(probe.Link{Seed: 1}, Kind("bogus"), JobConfig{}); err == nil {
		t.Fatal("RunKind with bogus kind accepted")
	}
}

func TestRunKindValidates(t *testing.T) {
	l := probe.Link{Seed: 1}
	cases := []JobConfig{
		{TargetRel: -0.1},
		{TargetRel: 1.5},
		{TrainLen: -1},
		{Reps: -2},
		{MaxReps: -3},
		{Budget: Budget{MaxPackets: -1}},
	}
	for _, cfg := range cases {
		if _, err := RunKind(l, KindAdaptive, cfg); err == nil {
			t.Errorf("RunKind accepted invalid config %+v", cfg)
		}
	}
}

// TestRunKindBoundsTOPPReps: a TOPP target tight enough to need more
// than maxTOPPReps trains per sweep point fails before any train is
// sent, naming the target — including a target whose count is past
// int64, which a conversion before the bound would wrap.
func TestRunKindBoundsTOPPReps(t *testing.T) {
	for _, target := range []float64{1e-6, 1e-11} {
		est, err := RunKind(probe.Link{Seed: 1}, KindTOPP, JobConfig{TargetRel: target})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("CI target %g", target)) {
			t.Errorf("target %g: err = %v, want an error naming the target", target, err)
		}
		if est.Cost.Trains != 0 {
			t.Errorf("target %g: sent %d trains", target, est.Cost.Trains)
		}
	}
}

// TestRunKindTargetScalesEffort pins the target→effort mapping: a
// tighter CI target must cost strictly more probing for TOPP (more reps
// per sweep point) and for SLoPS (finer resolution → more bisection
// rounds).
func TestRunKindTargetScalesEffort(t *testing.T) {
	l := probe.Link{Seed: 7}
	for _, k := range []Kind{KindTOPP, KindSLoPS} {
		loose, err := RunKind(l, k, JobConfig{TargetRel: 0.5, TrainLen: 20})
		if err != nil {
			t.Fatalf("%s loose: %v", k, err)
		}
		tight, err := RunKind(l, k, JobConfig{TargetRel: 0.02, TrainLen: 20})
		if err != nil {
			t.Fatalf("%s tight: %v", k, err)
		}
		if tight.Cost.Packets <= loose.Cost.Packets {
			t.Errorf("%s: tight target cost %d packets <= loose %d",
				k, tight.Cost.Packets, loose.Cost.Packets)
		}
	}
}

// TestRunKindDeterministic pins the campaign determinism contract: the
// same (link seed, kind, config) always produces the identical estimate.
func TestRunKindDeterministic(t *testing.T) {
	cfg := JobConfig{TargetRel: 0.2, TrainLen: 20, Reps: 2, MaxReps: 16}
	for _, k := range Kinds() {
		a, errA := RunKind(probe.Link{Seed: 42}, k, cfg)
		b, errB := RunKind(probe.Link{Seed: 42}, k, cfg)
		if (errA == nil) != (errB == nil) || a != b {
			t.Errorf("RunKind(%s) not deterministic: %+v/%v vs %+v/%v", k, a, errA, b, errB)
		}
	}
}
