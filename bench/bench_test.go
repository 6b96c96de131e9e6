package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"csmabw/internal/campaign"
	"csmabw/internal/experiments"
	"csmabw/internal/probe"
	"csmabw/internal/scenario"
	"csmabw/internal/sim"
)

// testSize shrinks every workload to a few seconds: eight replications
// per generation and the two-cell smoke campaign.
var testSize = size{Reps: 8, Campaign: "scenarios/campaigns/smoke.json"}

// testEnv runs from the checkout root, one level above this package.
func testEnv(t *testing.T, seed int64, traced bool) *env {
	t.Helper()
	e := &env{root: "..", scratch: t.TempDir(), seed: seed, workers: 2, size: testSize}
	if traced {
		e.tr = newTracer()
	}
	return e
}

// measureOnce runs one round of the named workload (zero seconds).
func measureOnce(t *testing.T, name string, e *env) (workload, *report) {
	t.Helper()
	w, rep, err := measure(e, name, 0, 0)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return w, rep
}

// TestWorkloads runs every workload at the shrunk size, traced and
// untraced, and checks that each emits exactly its declared metrics and
// that a seed fixes the digest, the deterministic values and the
// replay counts.
func TestWorkloads(t *testing.T) {
	counts := []string{"probe.delivered_frac", "mac.attempts_per_run", "mac.useful_frac", "mac.collision_frac",
		"mac.phyerr_frac", "estimate.trains_per_job", "estimate.pkts_per_job", "estimate.truncated_frac",
		"pathsel.switches_per_run"}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w1, plain := measureOnce(t, name, testEnv(t, 5, false))
			if len(plain.rounds) != 1 || plain.units == 0 {
				t.Fatalf("zero seconds ran %d rounds of %d units, want one round", len(plain.rounds), plain.units)
			}
			e2e := endToEndMetrics(plain)
			if _, err := collect(endToEnd, e2e); err != nil {
				t.Error(err)
			}
			if len(e2e) != len(endToEnd) {
				t.Errorf("untraced run emits %d metrics, %d declared", len(e2e), len(endToEnd))
			}

			w2, traced := measureOnce(t, name, testEnv(t, 5, true))
			got := perLayerMetrics(traced)
			if _, err := collect(perLayer, got); err != nil {
				t.Error(err)
			}
			if len(got) != len(perLayer) {
				t.Errorf("traced run emits %d metrics, %d declared", len(got), len(perLayer))
			}
			if plain.digest != traced.digest {
				t.Errorf("same seed, different digests: %s vs %s", plain.digest, traced.digest)
			}
			if !reflect.DeepEqual(w1.deterministic(), w2.deterministic()) {
				t.Errorf("same seed, different deterministic values:\n%v\n%v", w1.deterministic(), w2.deterministic())
			}

			_, again := measureOnce(t, name, testEnv(t, 5, true))
			for _, k := range counts {
				if again.layers[k] != traced.layers[k] {
					t.Errorf("%s: %g then %g on the same seed", k, traced.layers[k], again.layers[k])
				}
			}

			_, other := measureOnce(t, name, testEnv(t, 6, false))
			if other.digest == plain.digest {
				t.Error("seeds 5 and 6 give the same digest")
			}
		})
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the program: the
// same workloads, metric names and units, every name well formed.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	for _, tc := range []struct {
		what     string
		declared []struct{ Name, Unit string }
		program  []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		want := map[string]string{}
		for _, d := range tc.program {
			want[d.name] = d.unit
		}
		got := map[string]string{}
		for _, d := range tc.declared {
			got[d.Name] = d.Unit
			if !valid.MatchString(d.Name) {
				t.Errorf("%s: malformed name %q", tc.what, d.Name)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: BENCHMARK.json declares %v, the program emits %v", tc.what, got, want)
		}
	}
}

// TestRecheckCatchesTamper alters one departure of a measured train and
// expects the fresh-engine recheck to notice; the invariants catch an
// out-of-order train.
func TestRecheckCatchesTamper(t *testing.T) {
	e := testEnv(t, 7, false)
	w := &trainWorkload{e: e, specs: paperCells[1:2]}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	c := w.tcells[0]
	n, rate := c.comp.Probing.TrainLen, c.comp.Probing.RateBps
	s, err := c.plan.MeasureOne(w.pool.states[0][0], 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := recheckTrain(c.link, n, rate, 64, s); err != nil {
		t.Fatalf("untouched sample: %v", err)
	}
	if err := trainInvariants(s, n); err != nil {
		t.Fatalf("untouched sample: %v", err)
	}
	tampered := s
	tampered.Departures = append([]sim.Time(nil), s.Departures...)
	tampered.Departures[5]++
	if recheckTrain(c.link, n, rate, 64, tampered) == nil {
		t.Error("a shifted departure passed the fresh-engine recheck")
	}
	tampered.Departures[5] = tampered.Departures[6] + 1
	if trainInvariants(tampered, n) == nil {
		t.Error("an out-of-order departure passed the invariants")
	}
}

// TestSelfTimes checks self time on a synthetic tree: overlapping
// children (parallel workers) count once, and a child leaking past its
// parent is clipped to it.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},
		{Name: "c", Start: 80, End: 120, Parent: 0},
		{Name: "a1", Start: 15, End: 20, Parent: 1},
	}
	want := []int64{30, 25, 30, 40, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	if rootsCover(spans, 0.05) == nil {
		t.Error("overlapping and leaking children passed the cover check")
	}
	serial := []span{
		{Start: 0, End: 100, Parent: -1},
		{Start: 10, End: 40, Parent: 0},
		{Start: 40, End: 90, Parent: 0},
		{Start: 12, End: 30, Parent: 1},
	}
	if err := rootsCover(serial, 0.05); err != nil {
		t.Error(err)
	}

	path := filepath.Join(t.TempDir(), "spans.json")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []span
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, spans) {
		t.Errorf("spans read back as %v", back)
	}
}

// TestCellSpecs proves the train cells compile to the registry figures'
// links, seeds aside, and to their probing plans.
func TestCellSpecs(t *testing.T) {
	for _, tc := range []struct {
		path string
		want experiments.TransientParams
	}{
		{"../scenarios/paper-baseline.json", experiments.DefaultFig6()},
		{"testdata/fig08-cell.json", experiments.DefaultFig8()},
		{"testdata/fig09-cell.json", experiments.DefaultFig9()},
	} {
		c, err := scenario.CompileFile(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		p := tc.want
		want := probe.Link{ProbeSize: p.PacketSize, Contenders: p.Contenders, Seed: c.Link.Seed}
		if !reflect.DeepEqual(c.Link, want) {
			t.Errorf("%s: link %+v, want %+v", tc.path, c.Link, want)
		}
		if c.Probing.Plan != scenario.PlanTrain || c.Probing.TrainLen != p.TrainLen || c.Probing.RateBps != p.ProbeRateBps {
			t.Errorf("%s: probing %+v, want %d packets at %g bit/s", tc.path, c.Probing, p.TrainLen, p.ProbeRateBps)
		}
	}
}

// TestPathselFixture proves the compiled pathsel specs are the
// selection-regret fixture: SelectionRegret renders the same figure
// with them as with its built-in paths, and the benchmark's own
// reduction of a generation reproduces that figure.
func TestPathselFixture(t *testing.T) {
	e := testEnv(t, 9, false)
	w := &pathselWorkload{e: e}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	sc := experiments.Tiny()
	sc.Reps, sc.Workers = e.size.Reps, 2
	builtin := experiments.DefaultPathsel()
	builtin.Seed = w.params.Seed
	want, err := experiments.SelectionRegret(builtin, sc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := experiments.SelectionRegret(w.params, sc)
	if err != nil {
		t.Fatal(err)
	}
	if got.CSV() != want.CSV() {
		t.Fatalf("compiled upstreams render a different figure:\n%s\nwant\n%s", got.CSV(), want.CSV())
	}
	if _, err := w.round(0, -1); err != nil {
		t.Fatal(err)
	}
	for pol, s := range want.Series {
		if !reflect.DeepEqual(w.regret[pol], s.Y) {
			t.Errorf("policy %s: regret %v, figure %v", s.Name, w.regret[pol], s.Y)
		}
	}
}

// TestCampaignFleet proves the benchmark's campaign is the library
// fleet minus TOPP on vo-vs-be-contention.
func TestCampaignFleet(t *testing.T) {
	jobs := func(path string) []string {
		p, err := campaign.CompileFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, j := range p.Jobs {
			s := j.Spec
			s.Scenario = filepath.Clean(j.ScenarioPath)
			b, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(b))
		}
		sort.Strings(out)
		return out
	}
	lib := jobs("../scenarios/campaigns/library.json")
	var want []string
	for _, j := range lib {
		var s campaign.JobSpec
		if err := json.Unmarshal([]byte(j), &s); err != nil {
			t.Fatal(err)
		}
		if s.Estimator == "topp" && filepath.Base(s.Scenario) == "vo-vs-be-contention.json" {
			continue
		}
		want = append(want, j)
	}
	if got := jobs("testdata/campaign-fleet.json"); !reflect.DeepEqual(got, want) {
		t.Errorf("campaign-fleet jobs differ from the library's:\n%v\nwant\n%v", got, want)
	}
}
