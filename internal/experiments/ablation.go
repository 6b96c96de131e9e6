package experiments

import (
	"csmabw/internal/mac"
	"csmabw/internal/probe"
	"csmabw/internal/sim"
	"csmabw/internal/stats"
	"csmabw/internal/traffic"
)

// DefaultAblation is the Figure-6 cell of the immediate-access
// ablation: 1500-byte probes against one 4 Mb/s contender, on seed 66.
func DefaultAblation() probe.Link {
	return probe.Link{ProbeSize: 1500, Contenders: []probe.Flow{{RateBps: 4e6, Size: 1500}}, Seed: 66}
}

// AblationImmediateAccess returns the per-index mean access delay of a
// 60-packet train at 5 Mb/s on the cell, with and without the 802.11
// immediate-access rule, over sc.Reps replications each: the first-
// packet acceleration of standard DCF is the mechanism behind the
// paper's Fig. 6 transient. The unit of work is one (variant,
// replication) pair: units 0..Reps-1 are standard DCF, units
// Reps..2*Reps-1 the ablated variant, and replication rep of both
// variants draws from sim.NewStream(cell.Seed).Child(rep). Each worker
// resets one engine for every unit it runs (Reset on a zero engine is
// New).
func AblationImmediateAccess(cell probe.Link, sc Scale) (*Figure, error) {
	const probeBps, trainLen = 5e6, 60
	if err := cell.Validate(); err != nil {
		return nil, err
	}
	l := cell.WithDefaults()
	gI := sim.FromSeconds(float64(l.ProbeSize*8) / probeBps)
	root := sim.NewStream(l.Seed)
	newEngine := func() *mac.Engine { return new(mac.Engine) }
	rows, err := mapUnits(2*sc.Reps, sc, newEngine, func(e *mac.Engine, u int) ([]float64, error) {
		s := root.Child(uint64(u % sc.Reps))
		r := s.Rand()
		start := l.WarmUp + r.ExpTime(50*sim.Millisecond)
		end := start + trainLen*(gI+20*sim.Millisecond)
		cfg := l.MACConfig(traffic.NewTrain(trainLen, gI, l.ProbeSize, start), r, s.Child(0).Seed(), end)
		cfg.DisableImmediateAccess = u >= sc.Reps
		cfg.StopAfterProbes = trainLen
		cfg.RecordFrames = func(station int) bool { return station == 0 }
		if err := e.Reset(cfg); err != nil {
			return nil, err
		}
		var row []float64
		for _, f := range e.Run().ProbeFrames(0) {
			row = append(row, f.AccessDelay().Seconds())
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	series := func(rows [][]float64, name string) Series {
		means := stats.RunningMeans(rows)
		s := Series{Name: name}
		for i, m := range means {
			s.X = append(s.X, float64(i+1))
			s.Y = append(s.Y, m*1e3)
		}
		return s
	}
	return &Figure{
		ID:     "ablation-ia",
		Title:  "Mean access delay per packet: immediate access vs ablated",
		XLabel: "packet #",
		YLabel: "access delay (ms)",
		Series: []Series{
			series(rows[:sc.Reps], "standard DCF (immediate access)"),
			series(rows[sc.Reps:], "no immediate access (ablation)"),
		},
	}, nil
}
