package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// update regenerates the golden CSVs instead of comparing against
// them. After an intentional change to a figure driver, run
//
//	go test ./internal/experiments -run TestGoldenFigures -update
//
// and commit the rewritten files under testdata/golden with the code
// change that motivated them. The snapshots are taken at the tiny
// scale, so the whole suite regenerates in about a second.
var update = flag.Bool("update", false, "rewrite the golden figure CSVs")

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".csv")
}

// goldenAllocs is the heap allocation count (runtime.MemStats.Mallocs)
// of one run of each registry figure at Tiny() on one worker: the
// modal count over three runs at GOMAXPROCS 2 (the median where the
// three differ), recorded with Go 1.24.0. Runs at GOMAXPROCS 1 and 8
// read within 26 of a row, and under -race within 40.
// Per-worker engine reuse is what keeps the train figures' counts this
// low; losing it multiplies them. After an intentional change,
// re-record a row from the count its failure message prints.
var goldenAllocs = map[string]uint64{
	"fig01":            326,
	"fig04":            347,
	"fig06":            127,
	"fig07":            139,
	"ablation-ia":      434,
	"fig08":            449,
	"fig09":            348,
	"fig10":            422,
	"fig13":            896,
	"fig15":            961,
	"fig16":            1059,
	"fig17":            560,
	"fer-rrc":          949,
	"fer-transient":    233,
	"hidden":           930,
	"edca-transient":   284,
	"rate-anomaly":     431,
	"abest-accuracy":   1827,
	"abest-frontier":   488,
	"abest-robust":     1776,
	"abest-budget":     968,
	"selection-regret": 362,
	"failover-lag":     1409,
}

// TestGoldenFigures renders every registry figure at the tiny scale and
// asserts byte-equality with the committed snapshot. The perfect-channel
// figures' snapshots were generated before the imperfect-channel engine
// existed, so this test is also the proof that FER=0 full-mesh runs
// reproduce the pre-refactor simulator exactly.
//
// The figures run on one worker, whose output is byte-identical to any
// other worker count's and whose allocation count does not depend on
// the scheduler, so the same pass checks each run's count against
// goldenAllocs: above want*1.10+64 is a regression, below want*0.75 a
// stale row. It also holds the checks cmd/figures relies on: each
// figure reports its entry's ID, every series has as many X as Y
// values, and the table rendering is not empty.
func TestGoldenFigures(t *testing.T) {
	for _, entry := range Registry() {
		entry := entry
		t.Run(entry.ID, func(t *testing.T) {
			sc := Tiny()
			sc.Workers = 1
			m0 := mallocs()
			fig, err := entry.Run(sc)
			allocs := mallocs() - m0
			if err != nil {
				t.Fatal(err)
			}
			checkAllocs(t, entry.ID, allocs)
			if fig.ID != entry.ID {
				t.Errorf("figure reports id %q", fig.ID)
			}
			for _, s := range fig.Series {
				if len(s.X) != len(s.Y) {
					t.Errorf("series %q has %d X values and %d Y values", s.Name, len(s.X), len(s.Y))
				}
			}
			if fig.Table() == "" {
				t.Error("empty table rendering")
			}
			got := fig.CSV()
			path := goldenPath(entry.ID)
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create the snapshot)", err)
			}
			if got != string(want) {
				t.Fatalf("%s differs from its golden snapshot:\n%s\n(run with -update if the change is intentional)",
					entry.ID, firstDiff(got, string(want)))
			}
		})
	}
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// checkAllocs compares a figure run's allocation count with its
// goldenAllocs row. The band absorbs the few dozen allocations the
// runtime adds between repeat runs, not a lost engine reuse.
func checkAllocs(t *testing.T, id string, got uint64) {
	t.Helper()
	want, ok := goldenAllocs[id]
	if !ok {
		t.Errorf("%s: %d allocations and no goldenAllocs row; add one", id, got)
		return
	}
	if hi := float64(want)*1.10 + 64; float64(got) > hi {
		t.Errorf("%s: %d allocations, above %.0f (recorded %d)", id, got, hi, want)
	}
	if lo := float64(want) * 0.75; float64(got) < lo {
		t.Errorf("%s: %d allocations, below %.0f (recorded %d); re-record its goldenAllocs row", id, got, lo, want)
	}
}

// TestGoldenComplete fails when a golden snapshot or a goldenAllocs row
// exists for a figure that left the registry, so stale entries cannot
// linger unnoticed.
func TestGoldenComplete(t *testing.T) {
	known := map[string]bool{}
	for _, entry := range Registry() {
		known[entry.ID] = true
	}
	for id := range goldenAllocs {
		if !known[id] {
			t.Errorf("stale goldenAllocs row: no registry figure %q", id)
		}
	}
	files, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		id := strings.TrimSuffix(f.Name(), ".csv")
		if !known[id] {
			t.Errorf("stale golden snapshot %s: no registry figure %q", f.Name(), id)
		}
	}
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	n := len(g)
	if len(w) < n {
		n = len(w)
	}
	for i := 0; i < n; i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got:  %q\n  want: %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line counts differ: got %d, want %d", len(g), len(w))
}
