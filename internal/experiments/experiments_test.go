package experiments

import (
	"math"
	"strings"
	"testing"

	"csmabw/internal/probe"
)

func TestSweep(t *testing.T) {
	s := sweep(1, 5, 5)
	want := []float64{1, 2, 3, 4, 5}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("sweep = %v", s)
		}
	}
}

func TestScaleValidate(t *testing.T) {
	if Tiny().validate() != nil || Default().validate() != nil || Paper().validate() != nil {
		t.Error("stock scales should validate")
	}
	bad := Scale{Reps: 0, SweepPoints: 5, SteadySeconds: 1}
	if bad.validate() == nil {
		t.Error("zero reps accepted")
	}
	bad = Scale{Reps: 1, SweepPoints: 1, SteadySeconds: 1}
	if bad.validate() == nil {
		t.Error("single sweep point accepted")
	}
}

func TestFigureCSV(t *testing.T) {
	f := &Figure{
		ID: "t", Title: "test",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Name: "b,c", X: []float64{2}, Y: []float64{5}},
		},
	}
	csv := f.CSV()
	if !strings.Contains(csv, "x,a,b;c") {
		t.Errorf("header missing/comma not escaped:\n%s", csv)
	}
	if !strings.Contains(csv, "1,10,") {
		t.Errorf("row 1 missing:\n%s", csv)
	}
	if !strings.Contains(csv, "2,20,5") {
		t.Errorf("row 2 missing:\n%s", csv)
	}
}

func TestFigureTable(t *testing.T) {
	f := &Figure{
		ID: "t", Title: "test", XLabel: "x",
		Series: []Series{{Name: "s", X: []float64{1}, Y: []float64{2}}},
	}
	tab := f.Table()
	if !strings.Contains(tab, "t — test") || !strings.Contains(tab, "s") {
		t.Errorf("table malformed:\n%s", tab)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig01", "fig04", "fig06", "fig07", "ablation-ia", "fig08", "fig09", "fig10", "fig13", "fig15", "fig16", "fig17",
		"fer-rrc", "fer-transient", "hidden", "edca-transient", "rate-anomaly",
		"abest-accuracy", "abest-frontier", "abest-robust", "abest-budget",
		"selection-regret", "failover-lag"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
	}
	if _, err := Lookup("fig01"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown figure accepted")
	}
}

// The figure-level shape assertions use the tiny scale: they verify the
// drivers wire the simulators correctly; statistical shape checks at
// higher replication counts live in the integration test and benches.

func tiny() Scale { return Tiny() }

func TestFig1Shape(t *testing.T) {
	fig, err := Fig1SteadyStateRRC(DefaultFig1(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series: %d", len(fig.Series))
	}
	pr := fig.Series[0]
	if len(pr.X) != tiny().SweepPoints {
		t.Fatalf("points: %d", len(pr.X))
	}
	// Identity region at the lowest rate.
	if pr.Y[0] < pr.X[0]*0.8 || pr.Y[0] > pr.X[0]*1.2 {
		t.Errorf("lowest point (%.2f, %.2f) not near identity", pr.X[0], pr.Y[0])
	}
	// Saturation: the top of the curve must flatten below the input rate.
	last := len(pr.X) - 1
	if pr.Y[last] > 0.8*pr.X[last] {
		t.Errorf("no saturation: ro=%.2f at ri=%.2f", pr.Y[last], pr.X[last])
	}
}

func TestFig4Shape(t *testing.T) {
	fig, err := Fig4CompleteRRC(DefaultFig4(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series: %d", len(fig.Series))
	}
	// FIFO cross-traffic loses throughput as the probe rate grows.
	fifo := fig.Series[2]
	first, lastv := fifo.Y[0], fifo.Y[len(fifo.Y)-1]
	if lastv >= first {
		t.Errorf("FIFO cross did not decline: %.2f -> %.2f", first, lastv)
	}
}

func TestFig6Shape(t *testing.T) {
	p := DefaultFig6()
	p.TrainLen = 60 // keep the tiny test fast
	fig, err := Fig6MeanAccessDelay(p, tiny(), 50)
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	if len(s.X) != 50 {
		t.Fatalf("points: %d", len(s.X))
	}
	for _, y := range s.Y {
		if y <= 0 {
			t.Fatal("non-positive mean access delay")
		}
	}
}

func TestFig7Shape(t *testing.T) {
	p := DefaultFig6()
	p.TrainLen = 40
	fig, err := Fig7Histograms(p, tiny(), 39, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series: %d", len(fig.Series))
	}
	tot := 0.0
	for _, y := range fig.Series[0].Y {
		tot += y
	}
	if tot == 0 {
		t.Error("empty first-packet histogram")
	}
}

func TestFigKSShape(t *testing.T) {
	p := DefaultFig8()
	p.TrainLen = 60
	opt := DefaultKSOptions(p.TrainLen)
	opt.Packets = 20
	fig, err := FigKS("fig08", p, tiny(), opt)
	if err != nil {
		t.Fatal(err)
	}
	// KS + threshold + queue series.
	if len(fig.Series) != 3 {
		t.Fatalf("series: %d", len(fig.Series))
	}
	for _, d := range fig.Series[0].Y {
		if d < 0 || d > 1 {
			t.Fatalf("KS value %g out of range", d)
		}
	}
	for _, thr := range fig.Series[1].Y {
		if thr <= 0 {
			t.Fatal("non-positive threshold")
		}
	}
}

func TestFig10Shape(t *testing.T) {
	p := DefaultFig10()
	p.CrossLoads = []float64{0.3, 0.9}
	p.TrainLen = 80
	fig, err := Fig10TransientDuration(p, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series: %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.X) != 2 {
			t.Fatalf("points: %d", len(s.X))
		}
		for _, y := range s.Y {
			if y < 1 || y > float64(p.TrainLen) {
				t.Fatalf("transient length %g out of range", y)
			}
		}
	}
}

func TestFig13Shape(t *testing.T) {
	p := DefaultFig13()
	p.TrainLens = []int{3, 10}
	fig, err := TrainRRC("fig13", p, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 { // steady + two trains
		t.Fatalf("series: %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		for _, y := range s.Y {
			if y <= 0 {
				t.Fatalf("%s: non-positive rate", s.Name)
			}
		}
	}
}

func TestFig16Shape(t *testing.T) {
	p := DefaultFig16()
	p.CrossRates = []float64{0, 4e6}
	fig, err := Fig16PacketPair(p, tiny())
	if err != nil {
		t.Fatal(err)
	}
	fluid, pair := fig.Series[0], fig.Series[1]
	// With cross-traffic the pair estimate exceeds the fluid response.
	if pair.Y[1] <= fluid.Y[1] {
		t.Errorf("pair %.2f should exceed fluid %.2f under contention", pair.Y[1], fluid.Y[1])
	}
}

func TestAblationImmediateAccess(t *testing.T) {
	sc := Tiny()
	sc.Reps = 60
	fig, err := AblationImmediateAccess(DefaultAblation(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series: %d", len(fig.Series))
	}
	std, abl := fig.Series[0], fig.Series[1]
	// The standard first packet is accelerated relative to the ablated
	// one (which always backs off).
	if std.Y[0] >= abl.Y[0] {
		t.Errorf("first-packet delay std %.3f ms not below ablated %.3f ms", std.Y[0], abl.Y[0])
	}
}

func TestFig17Shape(t *testing.T) {
	p := DefaultFig17()
	fig, err := Fig17MSER(p, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series: %d", len(fig.Series))
	}
	names := []string{"steady state", "train of 20 packets", "train of 20 packets (MSER-2)"}
	for i, n := range names {
		if fig.Series[i].Name != n {
			t.Errorf("series %d = %q, want %q", i, fig.Series[i].Name, n)
		}
	}
}

// TestFiguresUseTheirCell renders each figure that takes a bare cell on
// its default cell, on that cell reseeded, and on that cell with 5%
// frame loss: each change must change the figure, so a driver that
// rebuilds its link from constants fails.
func TestFiguresUseTheirCell(t *testing.T) {
	figs := []struct {
		id  string
		def func() probe.Link
		run func(probe.Link, Scale) (*Figure, error)
	}{
		{"hidden", DefaultHidden, HiddenTerminal},
		{"rate-anomaly", DefaultRateAnomaly, RateAnomaly},
		{"abest-accuracy", DefaultAbest, AbestAccuracy},
		{"abest-frontier", DefaultAbest, AbestFrontier},
		{"abest-robust", DefaultAbest, AbestRobust},
		{"abest-budget", DefaultAbest, AbestBudget},
		{"ablation-ia", DefaultAblation, AblationImmediateAccess},
	}
	for _, f := range figs {
		f := f
		t.Run(f.id, func(t *testing.T) {
			t.Parallel()
			render := func(cell probe.Link) string {
				t.Helper()
				fig, err := f.run(cell, Tiny())
				if err != nil {
					t.Fatal(err)
				}
				return fig.CSV()
			}
			want := render(f.def())
			reseeded, lossy := f.def(), f.def()
			reseeded.Seed++
			lossy.Loss.FER = 0.05
			if render(reseeded) == want {
				t.Error("figure ignores its cell's seed")
			}
			if render(lossy) == want {
				t.Error("figure ignores its cell's frame-error rate")
			}
		})
	}
}

// TestInvalidSweepLevelsError pins that a contender sweep rejects a
// negative or non-finite level with an error naming the bad value's
// field, instead of plotting the idle cell at that level or panicking.
func TestInvalidSweepLevelsError(t *testing.T) {
	for _, bad := range []float64{-2e6, math.NaN(), math.Inf(1)} {
		p := DefaultFig16()
		p.CrossRates = []float64{0, bad}
		if _, err := Fig16PacketPair(p, tiny()); err == nil || !strings.Contains(err.Error(), "Contenders[0].RateBps") {
			t.Errorf("fig16 at level %g: error %v, want one naming Contenders[0].RateBps", bad, err)
		}
	}
	for _, bad := range []float64{-0.1, math.NaN(), math.Inf(1)} {
		p := DefaultFig10()
		p.CrossLoads = []float64{0.5, bad}
		if _, err := Fig10TransientDuration(p, tiny()); err == nil || !strings.Contains(err.Error(), "CrossLoads[1]") {
			t.Errorf("fig10 at load %g: error %v, want one naming CrossLoads[1]", bad, err)
		}
	}
}
