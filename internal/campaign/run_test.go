package campaign

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the library campaign's golden log and report instead
// of comparing against them. After an intentional change to what the
// estimators compute, run
//
//	go test ./internal/campaign -run TestLibraryCampaignGolden -update
//
// and commit the rewritten files under testdata with that change.
var update = flag.Bool("update", false, "rewrite testdata/library.jsonl and testdata/library-report.txt")

// runTiny runs the tiny testdata campaign into a fresh log and returns
// the final log bytes and the rendered report.
func runTiny(t *testing.T, workers int, seed int64) (string, string) {
	t.Helper()
	return runCampaign(t, "testdata/tiny.json", workers, seed)
}

// runCampaign runs the campaign file at path into a fresh log and
// returns the final log bytes and the rendered table report.
func runCampaign(t *testing.T, path string, workers int, seed int64) (string, string) {
	t.Helper()
	p, err := CompileFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if seed != 0 {
		p.Spec.Seed = seed
	}
	logPath := filepath.Join(t.TempDir(), "results.jsonl")
	res, err := Run(p, RunConfig{Workers: workers, LogPath: logPath})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ran != len(p.Jobs) || res.Resumed != 0 {
		t.Fatalf("Ran/Resumed = %d/%d, want %d/0", res.Ran, res.Resumed, len(p.Jobs))
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	report, err := RenderReport(Summarize(res.Records), "table")
	if err != nil {
		t.Fatal(err)
	}
	return string(data), report
}

// TestRunDeterministicAcrossWorkers pins the orchestrator's core
// contract: the final log and the fleet report are byte-identical at
// any worker count.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	log1, rep1 := runTiny(t, 1, 0)
	log8, rep8 := runTiny(t, 8, 0)
	if log1 != log8 {
		t.Errorf("logs differ between workers=1 and workers=8:\n--- w1:\n%s--- w8:\n%s", log1, log8)
	}
	if rep1 != rep8 {
		t.Errorf("reports differ between workers=1 and workers=8")
	}
	if !strings.Contains(log1, `"job":"cell-a/slops/one-off"`) {
		t.Errorf("log missing explicit job:\n%s", log1)
	}
}

// TestRunSeedChangesResults guards against the substream derivation
// collapsing to a constant: a different campaign seed must change at
// least one record.
func TestRunSeedChangesResults(t *testing.T) {
	a, _ := runTiny(t, 0, 0)
	b, _ := runTiny(t, 0, 12345)
	if a == b {
		t.Fatal("log identical under different campaign seeds")
	}
}

// TestResumeByteIdentical pins the checkpoint invariant: an interrupted
// run — simulated as a log prefix with a torn trailing line — resumed
// at a different worker count converges to the exact bytes of the
// uninterrupted run, and a resume with nothing pending is a no-op that
// still compacts.
func TestResumeByteIdentical(t *testing.T) {
	baseline, baseReport := runTiny(t, 1, 0)

	p, err := CompileFile("testdata/tiny.json")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(baseline, "\n"), "\n")
	for _, cut := range []int{0, 1, len(lines) / 2, len(lines) - 1} {
		logPath := filepath.Join(t.TempDir(), "results.jsonl")
		// A prefix of the final log plus a torn half-line is exactly what a
		// SIGKILL mid-append leaves behind.
		torn := strings.Join(lines[:cut], "") + lines[cut][:len(lines[cut])/2]
		if err := os.WriteFile(logPath, []byte(torn), 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Run(p, RunConfig{Workers: 8, LogPath: logPath, Resume: true})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if res.Resumed != cut || res.Ran != len(p.Jobs)-cut {
			t.Errorf("cut %d: Resumed/Ran = %d/%d", cut, res.Resumed, res.Ran)
		}
		final, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if string(final) != baseline {
			t.Errorf("cut %d: resumed log differs from uninterrupted run", cut)
		}
		report, err := RenderReport(Summarize(res.Records), "table")
		if err != nil {
			t.Fatal(err)
		}
		if report != baseReport {
			t.Errorf("cut %d: resumed report differs", cut)
		}
	}

	// Resume with a complete log: nothing runs, everything resumes, the
	// compacted bytes stay canonical.
	logPath := filepath.Join(t.TempDir(), "results.jsonl")
	if err := os.WriteFile(logPath, []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, RunConfig{LogPath: logPath, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ran != 0 || res.Resumed != len(p.Jobs) {
		t.Errorf("complete-log resume Ran/Resumed = %d/%d", res.Ran, res.Resumed)
	}
	final, _ := os.ReadFile(logPath)
	if string(final) != baseline {
		t.Error("complete-log resume rewrote the log differently")
	}
}

func TestRunRefusesExistingLogWithoutResume(t *testing.T) {
	p, err := CompileFile("testdata/tiny.json")
	if err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(t.TempDir(), "results.jsonl")
	if err := os.WriteFile(logPath, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(p, RunConfig{LogPath: logPath}); err == nil ||
		!strings.Contains(err.Error(), "already exists") {
		t.Fatalf("err = %v, want already-exists refusal", err)
	}
}

func TestResumeRejectsForeignLog(t *testing.T) {
	p, err := CompileFile("testdata/tiny.json")
	if err != nil {
		t.Fatal(err)
	}
	logPath := writeLog(t, line(t, rec("not-a-job-of-this-campaign", 0)))
	if _, err := Run(p, RunConfig{LogPath: logPath, Resume: true}); err == nil ||
		!strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("err = %v, want unknown-job refusal", err)
	}
}

func TestRunRequiresLogPath(t *testing.T) {
	p, err := CompileFile("testdata/tiny.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(p, RunConfig{}); err == nil {
		t.Fatal("Run accepted an empty LogPath")
	}
}

// TestRunRecordsEstimatorFailures drives the fleet over hostile cells —
// a saturated FIFO queue (every train horizon-truncated) and a 99% FER
// channel — and pins the failure contract, table-driven over the known
// per-estimator outcomes: jobs whose estimator returns
// ErrEstimateFailed land as failed records with a partial (non-zero
// trains) cost ledger and the error text, jobs whose estimator survives
// the hostile cell keep status ok, the fleet itself never dies, and the
// mixed log is a valid checkpoint a resume accepts untouched.
func TestRunRecordsEstimatorFailures(t *testing.T) {
	// The deterministic outcome per job (fixed seeds, fixed engine): TOPP
	// and adaptive fail on the saturated queue (no dispersion ever
	// returns), SLoPS's bisection still converges on the drained trickle;
	// on the 99% FER cell SLoPS and adaptive fail for want of delivered
	// probes while TOPP scrapes together enough pairs across its sweep.
	want := map[string]string{
		"cell-saturated-fifo/topp/tdefault":     StatusFailed,
		"cell-saturated-fifo/slops/tdefault":    StatusOK,
		"cell-saturated-fifo/adaptive/tdefault": StatusFailed,
		"cell-lossy/topp/tdefault":              StatusOK,
		"cell-lossy/slops/tdefault":             StatusFailed,
		"cell-lossy/adaptive/tdefault":          StatusFailed,
	}
	p, err := CompileFile("testdata/failures.json")
	if err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(t.TempDir(), "results.jsonl")
	res, err := Run(p, RunConfig{Workers: 4, LogPath: logPath})
	if err != nil {
		t.Fatalf("fleet died on failing estimators: %v", err)
	}
	if len(res.Records) != len(p.Jobs) || len(p.Jobs) != len(want) {
		t.Fatalf("got %d records for %d jobs, want %d", len(res.Records), len(p.Jobs), len(want))
	}
	failed := 0
	for _, r := range res.Records {
		wantStatus, known := want[r.Job]
		if !known {
			t.Fatalf("unexpected job %q", r.Job)
		}
		if r.Status != wantStatus {
			t.Errorf("job %q status = %q, want %q", r.Job, r.Status, wantStatus)
			continue
		}
		if r.Trains == 0 {
			t.Errorf("job %q lost its cost ledger: %+v", r.Job, r)
		}
		if r.Status == StatusFailed {
			failed++
			if r.Error == "" {
				t.Errorf("job %q failed without an error message", r.Job)
			}
			if r.ValueBps != 0 || r.CIBps != 0 || r.RelErr != 0 {
				t.Errorf("job %q carries a value despite failing: %+v", r.Job, r)
			}
		} else if r.ValueBps <= 0 {
			t.Errorf("job %q ok without a value: %+v", r.Job, r)
		}
	}
	if failed != 4 {
		t.Errorf("failed jobs = %d, want 4", failed)
	}

	// The failure log does not poison resume: replaying it runs nothing
	// and reproduces the same bytes.
	before, _ := os.ReadFile(logPath)
	res2, err := Run(p, RunConfig{LogPath: logPath, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Ran != 0 {
		t.Errorf("resume re-ran %d failed jobs", res2.Ran)
	}
	after, _ := os.ReadFile(logPath)
	if string(before) != string(after) {
		t.Error("resume rewrote the failure log")
	}

	// The report aggregates failures rather than hiding them.
	rowFailed := 0
	for _, row := range Summarize(res.Records) {
		rowFailed += row.Failed
	}
	if rowFailed != 4 {
		t.Errorf("report counts %d failed jobs, want 4", rowFailed)
	}
}

// TestLibraryCampaignGolden pins the checked-in campaign library
// (scenarios/campaigns/library.json: every library spec × the three
// estimators × three CI targets, 63 jobs) byte for byte: its compacted
// log and its table report at two workers. CI's campaign library step
// compares the CLI's log and report with the same two files.
func TestLibraryCampaignGolden(t *testing.T) {
	log, report := runCampaign(t, "../../scenarios/campaigns/library.json", 2, 0)
	for _, f := range []struct{ path, got string }{
		{"testdata/library.jsonl", log},
		{"testdata/library-report.txt", report},
	} {
		if *update {
			if err := os.WriteFile(f.path, []byte(f.got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if f.got == string(want) {
			continue
		}
		got, exp := strings.Split(f.got, "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(got) && i < len(exp) && got[i] == exp[i] {
			i++
		}
		t.Errorf("%s differs from line %d on (run with -update if the change is intentional)", f.path, i+1)
	}
}
