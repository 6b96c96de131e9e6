package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckedInScenariosAreClean runs the linter over the real spec
// directory: the checked-in scenarios must always pass.
func TestCheckedInScenariosAreClean(t *testing.T) {
	findings, err := lintDir("../../scenarios")
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) > 0 {
		t.Errorf("checked-in scenarios have findings:\n%s", strings.Join(findings, "\n"))
	}
}

// TestLintCampaignFindings exercises the campaigns/ subdirectory pass:
// a campaign referencing a missing scenario, one with duplicate job
// IDs, a name/file mismatch, and a clean one.
func TestLintCampaignFindings(t *testing.T) {
	dir := t.TempDir()
	cell := `{"name": "cell", "description": "d",
		"probing": {"plan": "train", "packets": 10, "rate_mbps": 5}}`
	if err := os.WriteFile(filepath.Join(dir, "cell.json"), []byte(cell), 0o644); err != nil {
		t.Fatal(err)
	}
	campdir := filepath.Join(dir, "campaigns")
	if err := os.Mkdir(campdir, 0o755); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string // file base name, without .json
		body string
		frag string // substring of the expected finding ("" = clean)
	}{
		{name: "missing-scenario", body: `{"name": "missing-scenario", "description": "d",
			"jobs": [{"id": "x", "scenario": "../no-such.json", "estimator": "topp"}]}`,
			frag: "no-such.json"},
		{name: "dup-ids", body: `{"name": "dup-ids", "description": "d",
			"jobs": [{"id": "x", "scenario": "../cell.json", "estimator": "topp"},
			         {"id": "x", "scenario": "../cell.json", "estimator": "slops"}]}`,
			frag: "duplicate job id"},
		{name: "renamed", body: `{"name": "other", "description": "d",
			"jobs": [{"id": "x", "scenario": "../cell.json", "estimator": "topp"}]}`,
			frag: "does not match"},
		{name: "undescribed", body: `{"name": "undescribed",
			"jobs": [{"id": "x", "scenario": "../cell.json", "estimator": "topp"}]}`,
			frag: "no description"},
		{name: "clean", body: `{"name": "clean", "description": "d",
			"jobs": [{"id": "x", "scenario": "../cell.json", "estimator": "topp"}]}`},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			path := filepath.Join(campdir, tt.name+".json")
			if err := os.WriteFile(path, []byte(tt.body), 0o644); err != nil {
				t.Fatal(err)
			}
			findings := lintCampaign(path)
			if tt.frag == "" {
				if len(findings) != 0 {
					t.Errorf("clean campaign produced findings: %v", findings)
				}
				return
			}
			if len(findings) == 0 {
				t.Fatal("bad campaign produced no findings")
			}
			if !strings.Contains(findings[0], tt.frag) {
				t.Errorf("finding %q lacks %q", findings[0], tt.frag)
			}
		})
	}
	// The directory walk picks campaigns up (alongside the scenario spec).
	findings, err := lintDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 4 {
		t.Errorf("lintDir findings = %v, want 4 (one per bad campaign)", findings)
	}
}

func TestEmptyDirIsAFinding(t *testing.T) {
	findings, err := lintDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], "no scenario specs") {
		t.Errorf("findings = %v, want one no-specs finding", findings)
	}
}

func TestLintFileFindings(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string // file base name, without .json
		body string
		frag string // substring of the expected finding ("" = clean)
	}{
		{name: "mismatch", body: `{"name": "other", "description": "d",
			"probing": {"plan": "train", "packets": 10, "rate_mbps": 5}}`,
			frag: "does not match"},
		{name: "undescribed", body: `{"name": "undescribed",
			"probing": {"plan": "train", "packets": 10, "rate_mbps": 5}}`,
			frag: "no description"},
		{name: "invalid", body: `{"name": "invalid", "description": "d",
			"probing": {"plan": "warp", "packets": 10, "rate_mbps": 5}}`,
			frag: "plan"},
		{name: "garbage", body: `{"name": `, frag: "garbage"},
		{name: "legacy", body: `{"name": "legacy", "description": "d",
			"probing": {"plan": "train", "packets": 10, "rate_mbps": 5},
			"phases": ["0-1s warm-up"]}`,
			frag: "phases: unknown key"},
		{name: "bad-event", body: `{"name": "bad-event", "description": "d",
			"probing": {"plan": "train", "packets": 10, "rate_mbps": 5},
			"events": [{"at": "1s", "station": "ghost", "fer": 0.2}]}`,
			frag: "events[0].station"},
		{name: "inert-event", body: `{"name": "inert-event", "description": "d",
			"probing": {"plan": "steady", "rate_mbps": 5, "duration_seconds": 1},
			"events": [{"at": "10s", "fer": 0.2}]}`,
			frag: "can never fire"},
		{name: "live-event", body: `{"name": "live-event", "description": "d",
			"probing": {"plan": "steady", "rate_mbps": 5, "duration_seconds": 1},
			"events": [{"at": "1s", "fer": 0.2}]}`},
		{name: "clean", body: `{"name": "clean", "description": "d",
			"probing": {"plan": "train", "packets": 10, "rate_mbps": 5}}`},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			path := filepath.Join(dir, tt.name+".json")
			if err := os.WriteFile(path, []byte(tt.body), 0o644); err != nil {
				t.Fatal(err)
			}
			findings := lintFile(path)
			if tt.frag == "" {
				if len(findings) != 0 {
					t.Errorf("clean spec produced findings: %v", findings)
				}
				return
			}
			if len(findings) == 0 {
				t.Fatal("bad spec produced no findings")
			}
			if !strings.Contains(findings[0], tt.frag) {
				t.Errorf("finding %q lacks %q", findings[0], tt.frag)
			}
		})
	}
}
