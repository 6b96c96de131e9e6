package experiments

import (
	"fmt"

	"csmabw/internal/mac"
	"csmabw/internal/probe"
	"csmabw/internal/scenario"
)

// This file bridges the declarative scenario layer to the figure
// drivers: a compiled scenario spec carries a complete measured cell
// (probe.Link) plus a probing plan, and the helpers here run that cell
// through the same trains and steady measurements the hand-wired
// registry figures use — so a spec-described cell renders with
// byte-identical reduction code.

// unitLink copies a measured cell for one point of a sweep, on its own
// seed. The flow and schedule slices are copied so a per-point mutation
// (contender rate) cannot alias the cell or the other points; Topology
// is shared deliberately — the drivers never mutate it (the engine
// clones it when events edit edges).
func unitLink(cell *probe.Link, seed int64) probe.Link {
	l := *cell
	l.Seed = seed
	if cell.FIFOCross != nil {
		l.FIFOCross = append([]probe.Flow(nil), cell.FIFOCross...)
	}
	if cell.Contenders != nil {
		l.Contenders = append([]probe.Flow(nil), cell.Contenders...)
	}
	if cell.Schedule != nil {
		l.Schedule = append([]mac.ScheduledEvent(nil), cell.Schedule...)
	}
	return l
}

// sweepPoints probes the cell at each rate, point i on its own unitLink
// copy on seed cell.Seed+base+stride·i.
func sweepPoints(cell *probe.Link, rates []float64, base, stride int64) []point {
	points := make([]point, len(rates))
	for i, r := range rates {
		points[i] = point{unitLink(cell, cell.Seed+base+stride*int64(i)), r}
	}
	return points
}

// crossCell is the cell of one contender level, on its own unitLink
// copy on seed: the cell's first contender carries rateBps and the
// others keep theirs, and a cell without contenders gains a
// probe-sized Poisson one at any nonzero level. At level zero the
// first contender stays in the cell as an idle flow, so a hearing
// graph and station-targeted events still fit, and a cell without
// contenders stays without. Every figure that sweeps a contender sets
// its levels here, so a negative or non-finite level reaches
// Link.Validate as the contender's rate.
func crossCell(cell *probe.Link, seed int64, rateBps float64) probe.Link {
	l := unitLink(cell, seed)
	switch {
	case len(l.Contenders) > 0:
		l.Contenders[0].RateBps = rateBps
	case rateBps != 0:
		l.Contenders = []probe.Flow{{RateBps: rateBps, Size: cell.WithDefaults().ProbeSize}}
	}
	return l
}

// TransientParamsFromCompiled converts a train-plan scenario into the
// transient-experiment parameters: the compiled cell rides along as
// Base, and the probing plan supplies rate and train length.
func TransientParamsFromCompiled(c *scenario.Compiled) (TransientParams, error) {
	if c.Probing.Plan != scenario.PlanTrain {
		return TransientParams{}, fmt.Errorf("experiments: scenario %q has probing plan %q, want %q", c.Name, c.Probing.Plan, scenario.PlanTrain)
	}
	l := c.Link
	size := l.ProbeSize
	if size == 0 {
		size = 1500
	}
	return TransientParams{
		ProbeRateBps: c.Probing.RateBps,
		TrainLen:     c.Probing.TrainLen,
		Contenders:   l.Contenders,
		PacketSize:   size,
		Seed:         l.Seed,
		Base:         &l,
	}, nil
}

// specTrainLen is the spec's train length, or def when the spec names
// none (a steady plan).
func specTrainLen(c *scenario.Compiled, def int) int {
	if c.Probing.TrainLen > 0 {
		return c.Probing.TrainLen
	}
	return def
}

// ScenarioFigure renders a compiled scenario with the driver its
// probing plan selects, under the scenario's name: fig06's access-delay
// transient for a train plan, and for a steady plan the rate response
// swept to the spec's rate, with one curve per flow and each contender's
// named after its station.
func ScenarioFigure(c *scenario.Compiled, sc Scale) (*Figure, error) {
	cells := []probe.Link{c.Link}
	switch c.Probing.Plan {
	case scenario.PlanTrain:
		return meanDelays(c.Name, "Mean access delay vs probe packet number — "+c.Name, cells, c.Probing.TrainLen, c.Probing.RateBps, 150, oneCurve, sc)
	case scenario.PlanSteady:
		x, pts, err := rateResponse(cells, c.Probing.RateBps, sc)
		if err != nil {
			return nil, err
		}
		series := []Series{curve("probe ro (Mb/s)", x, pts[0], probeRate)}
		if len(c.Link.FIFOCross) > 0 {
			series = append(series, curve("FIFO cross (Mb/s)", x, pts[0], fifoRate))
		}
		for ci := range c.Link.Contenders {
			series = append(series, curve(c.StationNames[ci+1]+" (Mb/s)", x, pts[0], crossRate(ci)))
		}
		return &Figure{
			ID:     c.Name,
			Title:  "Steady-state rate response — " + c.Name,
			XLabel: "ri (Mb/s)",
			YLabel: "throughput (Mb/s)",
			Series: series,
		}, nil
	}
	return nil, fmt.Errorf("experiments: scenario %q has unknown probing plan %q", c.Name, c.Probing.Plan)
}
