package campaign

import (
	"strings"
	"testing"

	"csmabw/internal/estimate"
)

func TestParseTinyCampaign(t *testing.T) {
	s, err := Load("testdata/tiny.json")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "tiny" || s.Seed != 7 {
		t.Fatalf("header = %q seed %d", s.Name, s.Seed)
	}
	// 1 explicit job + 2 scenarios × 2 estimators × 2 targets from the sweep.
	if len(s.Jobs) != 9 {
		t.Fatalf("got %d jobs, want 9", len(s.Jobs))
	}
	if s.Jobs[0].ID != "cell-a/slops/one-off" || s.Jobs[0].Estimator != estimate.KindSLoPS {
		t.Errorf("explicit job = %+v", s.Jobs[0])
	}
	ids := map[string]bool{}
	for _, j := range s.Jobs {
		ids[j.ID] = true
	}
	for _, want := range []string{
		"cell-a/topp/t0.3", "cell-a/adaptive/t0.15", "cell-b/topp/t0.15", "cell-b/adaptive/t0.3",
	} {
		if !ids[want] {
			t.Errorf("missing sweep job %q (have %v)", want, ids)
		}
	}
	// Sweep knobs land on every expanded job.
	last := s.Jobs[len(s.Jobs)-1]
	if last.Budget.MaxPackets != 4000 || last.TrainLen != 12 || last.MaxReps != 8 {
		t.Errorf("sweep knobs not applied: %+v", last)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"not json", `nope`, "campaign"},
		{"not an object", `[1]`, "must be a JSON object"},
		{"trailing data", `{"name":"c","jobs":[{"id":"a","scenario":"s.json","estimator":"topp"}]} garbage`, "trailing data"},
		{"missing name", `{"jobs":[{"id":"a","scenario":"s.json","estimator":"topp"}]}`, "campaign needs a name"},
		{"unknown key", `{"name":"c","bogus":1,"jobs":[{"id":"a","scenario":"s.json","estimator":"topp"}]}`, "unknown key"},
		{"unknown job key", `{"name":"c","jobs":[{"id":"a","scenario":"s.json","estimator":"topp","typo_knob":1}]}`, "typo_knob: unknown key"},
		{"no jobs", `{"name":"c"}`, "at least one job"},
		{"job missing id", `{"name":"c","jobs":[{"scenario":"s.json","estimator":"topp"}]}`, "jobs[0].id: job needs an id"},
		{"job missing scenario", `{"name":"c","jobs":[{"id":"a","estimator":"topp"}]}`, "jobs[0].scenario"},
		{"job missing estimator", `{"name":"c","jobs":[{"id":"a","scenario":"s.json"}]}`, "needs an estimator kind"},
		{"bad kind", `{"name":"c","jobs":[{"id":"a","scenario":"s.json","estimator":"pathload"}]}`, `unknown estimator kind "pathload"`},
		{"bad target", `{"name":"c","jobs":[{"id":"a","scenario":"s.json","estimator":"topp","target_rel":1.5}]}`, "outside (0, 1)"},
		{"nan budget", `{"name":"c","jobs":[{"id":"a","scenario":"s.json","estimator":"topp","budget":{"max_probe_seconds":1e999}}]}`, "non-finite number"},
		{"negative budget", `{"name":"c","jobs":[{"id":"a","scenario":"s.json","estimator":"topp","budget":{"max_packets":-3}}]}`, "must be >= 0"},
		{"negative effort", `{"name":"c","jobs":[{"id":"a","scenario":"s.json","estimator":"topp","reps":-1}]}`, "must be >= 0"},
		{"train too long", `{"name":"c","jobs":[{"id":"a","scenario":"s.json","estimator":"topp","train_len":100001}]}`, "jobs[0].train_len: a train holds at most 100000 packets"},
		{"dup explicit ids", `{"name":"c","jobs":[
			{"id":"a","scenario":"s.json","estimator":"topp"},
			{"id":"a","scenario":"s.json","estimator":"slops"}]}`, `duplicate job id "a"`},
		{"dup sweep ids", `{"name":"c","sweeps":[
			{"scenarios":["s.json","s.json"],"estimators":["topp"]}]}`, "duplicate job id"},
		{"sweep no scenarios", `{"name":"c","sweeps":[{"scenarios":[],"estimators":["topp"]}]}`, "at least one scenario"},
		{"sweep no estimators", `{"name":"c","sweeps":[{"scenarios":["s.json"]}]}`, "at least one estimator"},
		{"sweep bad kind", `{"name":"c","sweeps":[{"scenarios":["s.json"],"estimators":["x"]}]}`, "unknown estimator kind"},
		{"sweep bad target", `{"name":"c","sweeps":[{"scenarios":["s.json"],"estimators":["topp"],"target_rels":[-0.1]}]}`, "outside (0, 1)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.in))
			if err == nil {
				t.Fatalf("Parse accepted %s", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
			if !strings.Contains(err.Error(), "campaign") {
				t.Fatalf("error %q lacks the campaign prefix", err)
			}
		})
	}
}

func TestSweepID(t *testing.T) {
	cases := []struct {
		path   string
		kind   estimate.Kind
		target float64
		want   string
	}{
		{"cell-a.json", estimate.KindTOPP, 0.1, "cell-a/topp/t0.1"},
		{"../lib/cell-b.json", estimate.KindAdaptive, 0, "cell-b/adaptive/tdefault"},
		{"x.json", estimate.KindSLoPS, 0.05, "x/slops/t0.05"},
	}
	for _, tc := range cases {
		if got := sweepID(tc.path, tc.kind, tc.target); got != tc.want {
			t.Errorf("sweepID(%q, %s, %g) = %q, want %q", tc.path, tc.kind, tc.target, got, tc.want)
		}
	}
}

func TestCompileFile(t *testing.T) {
	p, err := CompileFile("testdata/tiny.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Jobs) != 9 {
		t.Fatalf("got %d planned jobs, want 9", len(p.Jobs))
	}
	if len(p.ScenarioPaths) != 2 {
		t.Fatalf("distinct scenarios = %v, want 2", p.ScenarioPaths)
	}
	// Same scenario file compiles once and is shared.
	byPath := map[string]*PlannedJob{}
	for i := range p.Jobs {
		j := &p.Jobs[i]
		if j.Index != i {
			t.Errorf("job %q has index %d at position %d", j.Spec.ID, j.Index, i)
		}
		if prev, ok := byPath[j.ScenarioPath]; ok && prev.Scenario != j.Scenario {
			t.Errorf("scenario %s compiled twice", j.ScenarioPath)
		}
		byPath[j.ScenarioPath] = j
	}
}

func TestCompileMissingScenario(t *testing.T) {
	s, err := Parse([]byte(`{"name":"c","jobs":[{"id":"a","scenario":"no-such.json","estimator":"topp"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Compile("testdata")
	if err == nil || !strings.Contains(err.Error(), `job "a"`) {
		t.Fatalf("Compile error = %v, want it to name the job", err)
	}
}
