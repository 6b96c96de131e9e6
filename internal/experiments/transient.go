package experiments

import (
	"fmt"
	"math"

	"csmabw/internal/probe"
	"csmabw/internal/stats"
	"csmabw/internal/traffic"
)

// TransientParams configures the access-delay transient experiments
// (Figures 6-9): a probing train against contending cross-traffic,
// replicated many times, analysed per packet index.
type TransientParams struct {
	ProbeRateBps float64
	TrainLen     int
	Contenders   []probe.Flow
	PacketSize   int
	Seed         int64
	// Base, when non-nil, is the complete measured cell — channel,
	// topology, EDCA, FIFO cross flows and all — typically compiled
	// from a scenario spec. It replaces the cell the scalar fields
	// above would assemble, Seed included; ProbeRateBps and TrainLen
	// still shape the probing plan.
	Base *probe.Link
}

// DefaultFig6 mirrors the paper's Figure 6/7 scenario: probe at 5 Mb/s,
// contending Poisson cross-traffic at 4 Mb/s, 1000-packet trains.
func DefaultFig6() TransientParams {
	return TransientParams{
		ProbeRateBps: 5e6,
		TrainLen:     1000,
		Contenders:   []probe.Flow{{RateBps: 4e6, Size: 1500}},
		PacketSize:   1500,
		Seed:         6,
	}
}

// DefaultFig8 mirrors Figure 8: probe 8 Mb/s, cross 2 Mb/s.
func DefaultFig8() TransientParams {
	return TransientParams{
		ProbeRateBps: 8e6,
		TrainLen:     600,
		Contenders:   []probe.Flow{{RateBps: 2e6, Size: 1500}},
		PacketSize:   1500,
		Seed:         8,
	}
}

// DefaultFig9 mirrors Figure 9's complex case: four contenders with
// packet sizes {40, 576, 1000, 1500} bytes at {0.1, 0.5, 0.75, 2} Mb/s
// and a 0.5 Mb/s probe.
func DefaultFig9() TransientParams {
	return TransientParams{
		ProbeRateBps: 0.5e6,
		TrainLen:     300,
		Contenders: []probe.Flow{
			{RateBps: 0.1e6, Size: 40},
			{RateBps: 0.5e6, Size: 576},
			{RateBps: 0.75e6, Size: 1000},
			{RateBps: 2e6, Size: 1500},
		},
		PacketSize: 1500,
		Seed:       9,
	}
}

func (p TransientParams) link() probe.Link {
	if p.Base != nil {
		return *p.Base
	}
	return probe.Link{
		ProbeSize:  p.PacketSize,
		Contenders: p.Contenders,
		Seed:       p.Seed,
	}
}

// trains runs sc.Reps replications of an n-packet train at each point
// and returns each point's replications, in point order. Each point is
// planned once and each worker measures on one TrainMeter. Unit
// u = point·reps + rep is replication rep of its point, so a point's
// TrainStats are exactly probe.MeasureTrain's on its cell and rate at
// any worker count.
func trains(points []point, n int, sc Scale) ([]probe.TrainStats, error) {
	plans := make([]*probe.TrainPlan, len(points))
	for i, pt := range points {
		var err error
		if plans[i], err = probe.PlanTrain(pt.cell, n, pt.rateBps); err != nil {
			return nil, err
		}
	}
	samples, err := mapUnits(len(points)*sc.Reps, sc, func() *probe.TrainMeter { return &probe.TrainMeter{} },
		func(m *probe.TrainMeter, u int) (probe.TrainSample, error) {
			return plans[u/sc.Reps].MeasureOne(m, u%sc.Reps)
		})
	if err != nil {
		return nil, err
	}
	out := make([]probe.TrainStats, len(points))
	for i, plan := range plans {
		lo, hi := i*sc.Reps, (i+1)*sc.Reps
		out[i] = probe.TrainStats{
			N: n, GI: plan.GI(), L: points[i].cell.WithDefaults().ProbeSize, Reps: sc.Reps,
			Samples: samples[lo:hi:hi],
		}
	}
	return out, nil
}

// at probes every cell at rateBps.
func at(cells []probe.Link, rateBps float64) []point {
	points := make([]point, len(cells))
	for c, cell := range cells {
		points[c] = point{cell, rateBps}
	}
	return points
}

// meanDelays is the Figure-6 transient on a list of cells: for each
// cell, one curve, labelled name(cell), of the mean access delay of
// each of its first show probe packets across replications.
func meanDelays(id, title string, cells []probe.Link, n int, rateBps float64, show int, name func(probe.Link) string, sc Scale) (*Figure, error) {
	byCell, err := trains(at(cells, rateBps), n, sc)
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: id, Title: title, XLabel: "packet #", YLabel: "access delay (ms)"}
	for c := range byCell {
		means := stats.RunningMeans(byCell[c].DelaysByIndex())
		s := Series{Name: name(cells[c])}
		for i := 0; i < show && i < len(means); i++ {
			s.X = append(s.X, float64(i+1))
			s.Y = append(s.Y, means[i]*1e3)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// oneCurve labels the curve of a one-cell mean-delay transient.
func oneCurve(probe.Link) string { return "mean access delay (ms)" }

// Fig6MeanAccessDelay reproduces Figure 6: the mean access delay of
// each of the first `show` probe packets across replications, exposing
// the transient acceleration of early packets.
func Fig6MeanAccessDelay(p TransientParams, sc Scale, show int) (*Figure, error) {
	return meanDelays("fig06", "Mean access delay vs probe packet number", []probe.Link{p.link()}, p.TrainLen, p.ProbeRateBps, show, oneCurve, sc)
}

// Fig7Histograms reproduces Figure 7: the access-delay histogram of the
// first packet against that of a late (steady-state) packet.
func Fig7Histograms(p TransientParams, sc Scale, latePacket, bins int) (*Figure, error) {
	ts, err := trains([]point{{p.link(), p.ProbeRateBps}}, p.TrainLen, sc)
	if err != nil {
		return nil, err
	}
	delays := ts[0].DelaysByIndex()
	first := stats.Column(delays, 0)
	lateIdx := latePacket
	if lateIdx >= p.TrainLen {
		lateIdx = p.TrainLen - 1
	}
	late := stats.Column(delays, lateIdx)
	if len(first) == 0 || len(late) == 0 {
		return nil, fmt.Errorf("experiments: no samples for histogram")
	}
	// Shared range across both histograms.
	lo, hi := first[0], first[0]
	for _, v := range append(append([]float64{}, first...), late...) {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		hi = lo + 1e-6
	}
	h1 := stats.NewHistogram(first, lo, hi, bins)
	h2 := stats.NewHistogram(late, lo, hi, bins)
	s1 := Series{Name: "packet 1"}
	s2 := Series{Name: fmt.Sprintf("packet %d", lateIdx+1)}
	for i := 0; i < bins; i++ {
		x := h1.BinCenter(i) * 1e3 // ms
		s1.X = append(s1.X, x)
		s1.Y = append(s1.Y, float64(h1.Counts[i]))
		s2.X = append(s2.X, x)
		s2.Y = append(s2.Y, float64(h2.Counts[i]))
	}
	return &Figure{
		ID:     "fig07",
		Title:  "Access delay histograms: first vs late packet",
		XLabel: "access delay (ms)",
		YLabel: "count",
		Series: []Series{s1, s2},
	}, nil
}

// KSOptions configures the per-index KS analysis of Figures 8 and 9.
type KSOptions struct {
	// Packets is how many leading packet indices to test.
	Packets int
	// TailFrom is the index from which replications are pooled as the
	// steady-state distribution (the paper pools "the last 500 packets").
	TailFrom int
	// Alpha is the KS significance (paper: 95% -> 0.05).
	Alpha float64
}

// DefaultKSOptions matches the paper's setup for a train of length n.
func DefaultKSOptions(trainLen int) KSOptions {
	tail := trainLen / 2
	return KSOptions{Packets: 100, TailFrom: tail, Alpha: 0.05}
}

// FigKS reproduces Figures 8 (top+bottom) and 9: the KS statistic of
// each packet index's access-delay distribution against the
// steady-state pool, with the paper's footnote-2 ECDF interpolation,
// the 95% threshold line, and (when queue samples exist) the mean
// contender queue length per index.
func FigKS(id string, p TransientParams, sc Scale, opt KSOptions) (*Figure, error) {
	ts, err := trains([]point{{p.link(), p.ProbeRateBps}}, p.TrainLen, sc)
	if err != nil {
		return nil, err
	}
	delays := ts[0].DelaysByIndex()
	// The steady-state pool is large (reps × tail indices) and every
	// packet index tests against it: copy and sort it once.
	tailECDF := stats.TailECDF(delays, opt.TailFrom)
	if tailECDF.Len() == 0 {
		return nil, fmt.Errorf("experiments: empty steady-state pool (TailFrom=%d)", opt.TailFrom)
	}
	ksS := Series{Name: "KS value"}
	thrS := Series{Name: "threshold 95% CI"}
	if opt.Packets > p.TrainLen {
		opt.Packets = p.TrainLen
	}
	for i := 0; i < opt.Packets; i++ {
		col := stats.Column(delays, i)
		if len(col) == 0 {
			continue
		}
		res := stats.KSTwoSampleInterpECDF(col, tailECDF, opt.Alpha)
		x := float64(i + 1)
		ksS.X = append(ksS.X, x)
		ksS.Y = append(ksS.Y, res.D)
		thrS.X = append(thrS.X, x)
		thrS.Y = append(thrS.Y, res.Threshold)
	}
	fig := &Figure{
		ID:     id,
		Title:  "KS test of per-packet access delay vs steady state",
		XLabel: "packet #",
		YLabel: "KS value",
		Series: []Series{ksS, thrS},
	}
	if queues := ts[0].QueueByIndex(); len(queues) > 0 && len(queues[0]) > 0 {
		qMeans := stats.RunningMeans(queues)
		qS := Series{Name: "mean contender queue (pkts)"}
		for i := 0; i < opt.Packets && i < len(qMeans); i++ {
			qS.X = append(qS.X, float64(i+1))
			qS.Y = append(qS.Y, qMeans[i])
		}
		fig.Series = append(fig.Series, qS)
	}
	return fig, nil
}

// Fig10Params configures the transient-duration study of Figure 10.
type Fig10Params struct {
	CrossLoads []float64 // swept offered cross loads, Erlangs
	TrainLen   int
	// Cell is the measured link the load sweep runs over, and Cell.Seed
	// is the figure seed. Load li is crossCell(Cell, Cell.Seed+977·li,
	// the load's rate).
	Cell probe.Link
}

// DefaultFig10 mirrors the paper: cross loads up to 1 Erlang.
func DefaultFig10() Fig10Params {
	loads := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	return Fig10Params{
		CrossLoads: loads,
		TrainLen:   500,
		Cell:       probe.Link{ProbeSize: 1500, Seed: 10},
	}
}

// Fig10TransientDuration estimates, for each offered cross load, the
// first probe packet whose mean access delay lies (and stays) within
// each of the paper's tolerances, 0.1 and 0.01, of the steady-state
// mean, probing at 1 Erlang. Load li is a cell of its own on seed
// Cell.Seed+977·li.
func Fig10TransientDuration(p Fig10Params, sc Scale) (*Figure, error) {
	tolerances := []float64{0.1, 0.01}
	cell := p.Cell.WithDefaults()
	cells := make([]probe.Link, len(p.CrossLoads))
	for li, load := range p.CrossLoads {
		if !(load >= 0) || math.IsInf(load, 0) {
			return nil, fmt.Errorf("experiments: fig10: CrossLoads[%d]: must be finite and >= 0, got %g", li, load)
		}
		cells[li] = crossCell(&p.Cell, p.Cell.Seed+int64(li)*977, traffic.RateForLoad(cell.Phy, load, cell.ProbeSize))
	}
	probeRate := traffic.RateForLoad(cell.Phy, 1, cell.ProbeSize)
	byLoad, err := trains(at(cells, probeRate), p.TrainLen, sc)
	if err != nil {
		return nil, err
	}
	series := make([]Series, len(tolerances))
	for ti, tol := range tolerances {
		series[ti] = Series{Name: fmt.Sprintf("tolerance %g", tol)}
	}
	for li := range byLoad {
		means := stats.RunningMeans(byLoad[li].DelaysByIndex())
		// Steady state: mean over the last quarter of indices.
		tailFrom := len(means) * 3 / 4
		tailMean := stats.Mean(means[tailFrom:])
		for ti, tol := range tolerances {
			series[ti].X = append(series[ti].X, p.CrossLoads[li])
			series[ti].Y = append(series[ti].Y, float64(stats.TransientLength(means[:tailFrom], tailMean, tol)))
		}
	}
	return &Figure{
		ID:     "fig10",
		Title:  "Estimated transient duration vs offered cross-traffic load (probe load 1 Erlang)",
		XLabel: "cross load (Erlang)",
		YLabel: "transient length (packets)",
		Series: series,
	}, nil
}
