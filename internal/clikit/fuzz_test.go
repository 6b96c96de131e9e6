package clikit

import (
	"testing"

	"csmabw/internal/experiments"
)

func testFigure() *experiments.Figure {
	return &experiments.Figure{
		ID: "fz", Title: "fuzz fixture", XLabel: "x", YLabel: "y",
		Series: []experiments.Series{{Name: "s", X: []float64{1, 2}, Y: []float64{3, 4}}},
	}
}

// FuzzRenderFormat drives the format dispatcher with arbitrary format
// names: only the three documented formats may succeed.
func FuzzRenderFormat(f *testing.F) {
	for _, seed := range []string{"table", "csv", "json", "yaml", "", "CSV"} {
		f.Add(seed)
	}
	fig := testFigure()
	f.Fuzz(func(t *testing.T, format string) {
		out, err := Render(fig, format)
		switch format {
		case "table", "csv", "json":
			if err != nil || out == "" {
				t.Fatalf("format %q failed: %v", format, err)
			}
		default:
			if err == nil {
				t.Fatalf("unknown format %q accepted", format)
			}
		}
	})
}
