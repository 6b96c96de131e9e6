// Command scenlint polices the checked-in scenario specs: every
// .json file under the given directories must compile through the
// scenario package's full static validation, carry a description, and
// have its spec name match the file's base name — so a spec is
// addressable by the name it prints and the goldens it renders stay
// traceable to one file. A campaigns/ subdirectory gets the same
// treatment through the campaign compiler: every campaign file must
// parse (unique job IDs, valid kinds, finite budgets) and every
// scenario spec it references must exist and compile. It runs in CI
// next to gofmt and go vet.
//
//	go run ./scripts/scenlint ./scenarios
//
// Exit status: 0 when clean, 1 with one "file: problem" line per
// finding, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"csmabw/internal/campaign"
	"csmabw/internal/scenario"
	"csmabw/internal/sim"
)

func main() {
	flag.Parse()
	dirs := flag.Args()
	if len(dirs) == 0 {
		dirs = []string{"./scenarios"}
	}
	var findings []string
	for _, dir := range dirs {
		fs, err := lintDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenlint: %v\n", err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
	if len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
		}
		os.Exit(1)
	}
}

// lintDir validates every .json spec under dir and returns one finding
// line per problem. A directory with no specs at all is itself a
// finding — an empty glob would otherwise pass silently after a rename.
func lintDir(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return []string{fmt.Sprintf("%s: no scenario specs found", dir)}, nil
	}
	var findings []string
	for _, path := range paths {
		findings = append(findings, lintFile(path)...)
	}
	campaigns, err := filepath.Glob(filepath.Join(dir, "campaigns", "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(campaigns)
	for _, path := range campaigns {
		findings = append(findings, lintCampaign(path)...)
	}
	return findings, nil
}

// lintCampaign compiles one campaign file — which parses it strictly
// (unique job IDs, valid estimator kinds, finite budgets) and compiles
// every scenario spec it references — and checks the same housekeeping
// invariants as scenario specs.
func lintCampaign(path string) []string {
	p, err := campaign.CompileFile(path)
	if err != nil {
		return []string{err.Error()}
	}
	var findings []string
	stem := strings.TrimSuffix(filepath.Base(path), ".json")
	if p.Spec.Name != stem {
		findings = append(findings, fmt.Sprintf("%s: campaign name %q does not match file name %q", path, p.Spec.Name, stem))
	}
	if strings.TrimSpace(p.Spec.Description) == "" {
		findings = append(findings, fmt.Sprintf("%s: campaign has no description", path))
	}
	return findings
}

// lintFile compiles one spec file and checks its housekeeping
// invariants, returning one finding line per problem. Beyond what the
// compiler already rejects (malformed events, ghost stations,
// out-of-order instants), the linter flags scheduled events a steady
// measurement can never reach — legal, but almost certainly a mistake
// in a checked-in library spec.
func lintFile(path string) []string {
	c, err := scenario.CompileFile(path)
	if err != nil {
		return []string{err.Error()}
	}
	var findings []string
	stem := strings.TrimSuffix(filepath.Base(path), ".json")
	if c.Name != stem {
		findings = append(findings, fmt.Sprintf("%s: spec name %q does not match file name %q", path, c.Name, stem))
	}
	if strings.TrimSpace(c.Description) == "" {
		findings = append(findings, fmt.Sprintf("%s: spec has no description", path))
	}
	if c.Probing.Plan == scenario.PlanSteady && c.Probing.DurationSeconds > 0 {
		// The steady horizon is warm-up plus the spec's own measurement
		// duration; an event at or past it can never fire at that
		// duration. Specs that leave the duration to the tool's scale
		// are skipped — the horizon isn't theirs to miss.
		horizon := c.Link.WithDefaults().WarmUp + sim.FromSeconds(c.Probing.DurationSeconds)
		for i, ev := range c.Link.Schedule {
			if ev.At >= horizon {
				findings = append(findings, fmt.Sprintf("%s: events[%d] at %v is past the spec's steady horizon %v (warm-up + duration): it can never fire", path, i, ev.At, horizon))
			}
		}
	}
	return findings
}
