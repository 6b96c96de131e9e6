package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"csmabw/internal/probe"
	"csmabw/internal/scenario"
)

// scenariosDir is the checked-in scenario library at the repo root.
const scenariosDir = "../../scenarios"

func compileScenario(t *testing.T, name string) *scenario.Compiled {
	t.Helper()
	c, err := scenario.CompileFile(filepath.Join(scenariosDir, name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSpecEquivalence proves the library specs compile to the exact
// links the hand-wired registry drivers assemble: not merely similar
// cells, the same struct value — so the spec path and the figure path
// feed the engine draw-order-identical configuration.
func TestSpecEquivalence(t *testing.T) {
	t.Run("paper-baseline/fig06", func(t *testing.T) {
		c := compileScenario(t, "paper-baseline")
		want := DefaultFig6()
		if got := c.Link; !reflect.DeepEqual(got, want.link()) {
			t.Errorf("compiled link differs from DefaultFig6:\n got %+v\nwant %+v", got, want.link())
		}
		if c.Probing.Plan != scenario.PlanTrain || c.Probing.TrainLen != want.TrainLen || c.Probing.RateBps != want.ProbeRateBps {
			t.Errorf("compiled probing %+v differs from fig06 plan (%d packets at %g bit/s)",
				c.Probing, want.TrainLen, want.ProbeRateBps)
		}
	})
	t.Run("lossy-fer-cell/fer-transient", func(t *testing.T) {
		c := compileScenario(t, "lossy-fer-cell")
		want := DefaultFERTransient()[2] // the 5% FER curve
		if !reflect.DeepEqual(c.Link, want) {
			t.Errorf("compiled link differs from fer-transient curve 2:\n got %+v\nwant %+v", c.Link, want)
		}
	})
	t.Run("vo-vs-be-contention/edca-transient", func(t *testing.T) {
		c := compileScenario(t, "vo-vs-be-contention")
		want := DefaultEDCATransient()[1] // the AC_VO curve
		if !reflect.DeepEqual(c.Link, want) {
			t.Errorf("compiled link differs from edca-transient curve 1:\n got %+v\nwant %+v", c.Link, want)
		}
	})
}

// TestPaperBaselineGolden runs the existing fig06 driver on parameters
// derived entirely from the paper-baseline spec and asserts the output
// is byte-identical to the fig06 golden snapshot: the declarative path
// reproduces a registry figure exactly, not approximately.
func TestPaperBaselineGolden(t *testing.T) {
	c := compileScenario(t, "paper-baseline")
	p, err := TransientParamsFromCompiled(c)
	if err != nil {
		t.Fatal(err)
	}
	fig, err := Fig6MeanAccessDelay(p, Tiny(), 150)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenPath("fig06"))
	if err != nil {
		t.Fatal(err)
	}
	if got := fig.CSV(); got != string(want) {
		t.Fatalf("spec-derived fig06 differs from the golden snapshot:\n%s", firstDiff(got, string(want)))
	}
}

// TestCellFormsMatchRegistry runs every registry cell form on its own
// paper cell, expressed as a compiled scenario, and asserts the output
// is byte-identical to the entry's paper-default driver: the cell form
// is the same figure on another cell, not a second implementation.
// A reseeded cell must then change the figure.
func TestCellFormsMatchRegistry(t *testing.T) {
	train := func(p TransientParams) *scenario.Compiled {
		return &scenario.Compiled{
			Link:    p.link(),
			Probing: scenario.Probing{Plan: scenario.PlanTrain, TrainLen: p.TrainLen, RateBps: p.ProbeRateBps},
		}
	}
	trainLen := func(cell probe.Link, n int) *scenario.Compiled {
		return &scenario.Compiled{Link: cell, Probing: scenario.Probing{Plan: scenario.PlanTrain, TrainLen: n}}
	}
	cells := map[string]*scenario.Compiled{
		"fig06": train(DefaultFig6()),
		"fig07": train(DefaultFig6()),
		"fig08": train(DefaultFig8()),
		"fig09": train(DefaultFig9()),
		"fig10": trainLen(DefaultFig10().Cell, DefaultFig10().TrainLen),
		"fig13": {Link: DefaultFig13().Cell},
		"fig16": {Link: DefaultFig16().Cell},
		"fig17": trainLen(DefaultFig17().Cell, DefaultFig17().TrainLen),
	}
	for _, entry := range Registry() {
		if entry.Cell == nil {
			continue
		}
		entry := entry
		t.Run(entry.ID, func(t *testing.T) {
			c, ok := cells[entry.ID]
			if !ok {
				t.Fatal("cell form has no paper cell in this table")
			}
			delete(cells, entry.ID)
			got, err := entry.Cell(c, Tiny())
			if err != nil {
				t.Fatal(err)
			}
			want, err := entry.Run(Tiny())
			if err != nil {
				t.Fatal(err)
			}
			if got.CSV() != want.CSV() {
				t.Fatalf("cell form differs from the registry driver:\n%s", firstDiff(got.CSV(), want.CSV()))
			}
			// The cell form must measure the spec's cell, not the
			// paper's: reseeding the cell changes the figure.
			reseeded := *c
			reseeded.Link.Seed++
			other, err := entry.Cell(&reseeded, Tiny())
			if err != nil {
				t.Fatal(err)
			}
			if other.CSV() == want.CSV() {
				t.Error("cell form ignores the cell's seed")
			}
		})
	}
	for id := range cells {
		t.Errorf("%s has a paper cell but no cell form", id)
	}
}

// TestCellFormsTakeSpecTrainLen pins that fig10 and fig17 measure the
// train length of a spec whose plan names one, not the paper's.
func TestCellFormsTakeSpecTrainLen(t *testing.T) {
	run := func(id string, cell probe.Link, n int) *Figure {
		t.Helper()
		for _, e := range Registry() {
			if e.ID == id {
				fig, err := e.Cell(&scenario.Compiled{Link: cell, Probing: scenario.Probing{Plan: scenario.PlanTrain, TrainLen: n}}, Tiny())
				if err != nil {
					t.Fatal(err)
				}
				return fig
			}
		}
		t.Fatalf("no registry entry %s", id)
		return nil
	}
	if got := run("fig17", DefaultFig17().Cell, 12).Series[1].Name; got != "train of 12 packets" {
		t.Errorf("fig17 on a 12-packet plan measured %q", got)
	}
	p := DefaultFig10()
	if run("fig10", p.Cell, 200).CSV() == run("fig10", p.Cell, p.TrainLen).CSV() {
		t.Error("fig10 ignores the spec's train length")
	}
}

// TestFig16CellKeepsContenders renders fig16's cell form on every
// library spec, hidden-station and scheduled cells included, and pins
// that a level sweeps only the first contender's rate: on dense-stadium
// every level keeps all 12 contenders.
func TestFig16CellKeepsContenders(t *testing.T) {
	var fig16 Entry
	for _, e := range Registry() {
		if e.ID == "fig16" {
			fig16 = e
		}
	}
	for _, name := range libraryScenarios(t) {
		if _, err := fig16.Cell(compileScenario(t, name), Tiny()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	p := DefaultFig16()
	p.Cell = compileScenario(t, "dense-stadium").Link
	for i, cr := range p.CrossRates {
		l := crossCell(&p.Cell, p.Cell.Seed+int64(i)*61, cr)
		if len(l.Contenders) != 12 {
			t.Fatalf("level %d: %d contenders, want 12", i, len(l.Contenders))
		}
		first := p.Cell.Contenders[0]
		first.RateBps = cr
		if l.Contenders[0] != first {
			t.Errorf("level %d: first contender %+v, want %+v", i, l.Contenders[0], first)
		}
		if !reflect.DeepEqual(l.Contenders[1:], p.Cell.Contenders[1:]) {
			t.Errorf("level %d: the other contenders changed", i)
		}
	}
}

// libraryScenarios lists every checked-in spec file name (no extension).
func libraryScenarios(t *testing.T) []string {
	t.Helper()
	files, err := os.ReadDir(scenariosDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		if strings.HasSuffix(f.Name(), ".json") {
			names = append(names, strings.TrimSuffix(f.Name(), ".json"))
		}
	}
	if len(names) == 0 {
		t.Fatal("no scenario specs found in " + scenariosDir)
	}
	return names
}

// TestScenarioGoldens renders every library scenario at the tiny scale
// and asserts byte-equality with its snapshot under
// testdata/golden-scenarios (regenerate with -update), then re-renders
// at 1 and 8 workers and asserts all three runs agree byte-for-byte —
// the determinism contract extended to every spec-described cell.
func TestScenarioGoldens(t *testing.T) {
	for _, name := range libraryScenarios(t) {
		name := name
		t.Run(name, func(t *testing.T) {
			c := compileScenario(t, name)
			sc := Tiny()
			fig, err := ScenarioFigure(c, sc)
			if err != nil {
				t.Fatal(err)
			}
			got := fig.CSV()
			path := filepath.Join("testdata", "golden-scenarios", name+".csv")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			} else {
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run with -update to create the snapshot)", err)
				}
				if got != string(want) {
					t.Fatalf("%s differs from its golden snapshot:\n%s\n(run with -update if the change is intentional)",
						name, firstDiff(got, string(want)))
				}
			}
			for _, workers := range []int{1, 8} {
				sc := sc
				sc.Workers = workers
				fig, err := ScenarioFigure(c, sc)
				if err != nil {
					t.Fatal(err)
				}
				if fig.CSV() != got {
					t.Fatalf("%s: %d-worker run differs from the default run:\n%s",
						name, workers, firstDiff(fig.CSV(), got))
				}
			}
		})
	}
}

// TestScenarioGoldensComplete fails when a scenario snapshot lingers
// for a spec that left the library.
func TestScenarioGoldensComplete(t *testing.T) {
	known := map[string]bool{}
	for _, name := range libraryScenarios(t) {
		known[name] = true
	}
	files, err := os.ReadDir(filepath.Join("testdata", "golden-scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		name := strings.TrimSuffix(f.Name(), ".csv")
		if !known[name] {
			t.Errorf("stale scenario snapshot %s: no spec %s.json in %s", f.Name(), name, scenariosDir)
		}
	}
}
