package experiments

import (
	"fmt"

	"csmabw/internal/scenario"
)

// Driver produces one figure at a given scale with the paper-default
// parameters. Every driver runs its units through mapUnits, so
// sc.Workers bounds its worker pool and its output is byte-identical at
// any worker count.
type Driver func(sc Scale) (*Figure, error)

// CellDriver produces a figure on the measured cell of a compiled
// scenario instead of the paper's. The cell's seed is the figure seed;
// the spec's probing plan supplies what the figure takes from one.
type CellDriver func(c *scenario.Compiled, sc Scale) (*Figure, error)

// Entry is one registry figure: its paper-default driver and, for a
// figure that measures one cell, the driver that runs it on a compiled
// scenario's cell (nil for the figures that compare several cells or
// sweep a cell's own knobs).
type Entry struct {
	ID   string
	Run  Driver
	Cell CellDriver
}

// cellEntry builds the entry of a figure that measures one cell: run
// on the paper defaults, or on the defaults with lower folding a
// compiled scenario in.
func cellEntry[P any](id string, def func() P, lower func(*P, *scenario.Compiled) error, run func(P, Scale) (*Figure, error)) Entry {
	return Entry{
		ID:  id,
		Run: func(sc Scale) (*Figure, error) { return run(def(), sc) },
		Cell: func(c *scenario.Compiled, sc Scale) (*Figure, error) {
			p := def()
			if err := lower(&p, c); err != nil {
				return nil, err
			}
			return run(p, sc)
		},
	}
}

// lowerTransient runs a transient figure on a train-plan spec: the
// spec's cell, probing rate and train length replace the paper's.
func lowerTransient(p *TransientParams, c *scenario.Compiled) (err error) {
	*p, err = TransientParamsFromCompiled(c)
	return err
}

// Registry lists every figure, in the order they appear in the paper,
// followed by the imperfect-channel extensions. cmd/figures iterates
// this to regenerate the full evaluation.
func Registry() []Entry {
	return []Entry{
		{ID: "fig01", Run: func(sc Scale) (*Figure, error) { return Fig1SteadyStateRRC(DefaultFig1(), sc) }},
		{ID: "fig04", Run: func(sc Scale) (*Figure, error) { return Fig4CompleteRRC(DefaultFig4(), sc) }},
		cellEntry("fig06", DefaultFig6, lowerTransient, func(p TransientParams, sc Scale) (*Figure, error) {
			return Fig6MeanAccessDelay(p, sc, 150)
		}),
		cellEntry("fig07", DefaultFig6, lowerTransient, func(p TransientParams, sc Scale) (*Figure, error) {
			return Fig7Histograms(p, sc, p.TrainLen/2-1, 30)
		}),
		// The mechanism behind fig06/fig07's transient: the same train
		// with and without the first packet's immediate access.
		{ID: "ablation-ia", Run: func(sc Scale) (*Figure, error) { return AblationImmediateAccess(DefaultAblation(), sc) }},
		cellEntry("fig08", DefaultFig8, lowerTransient, func(p TransientParams, sc Scale) (*Figure, error) {
			return FigKS("fig08", p, sc, DefaultKSOptions(p.TrainLen))
		}),
		cellEntry("fig09", DefaultFig9, lowerTransient, func(p TransientParams, sc Scale) (*Figure, error) {
			opt := DefaultKSOptions(p.TrainLen)
			opt.Packets = 50
			return FigKS("fig09", p, sc, opt)
		}),
		cellEntry("fig10", DefaultFig10, func(p *Fig10Params, c *scenario.Compiled) error {
			p.Cell = c.Link
			p.TrainLen = specTrainLen(c, p.TrainLen)
			return nil
		}, Fig10TransientDuration),
		cellEntry("fig13", DefaultFig13, func(p *TrainRRCParams, c *scenario.Compiled) error {
			p.Cell = c.Link
			return nil
		}, func(p TrainRRCParams, sc Scale) (*Figure, error) { return TrainRRC("fig13", p, sc) }),
		// On a cell, fig15 is fig13: the FIFO cross flow is the cell's.
		{ID: "fig15", Run: func(sc Scale) (*Figure, error) { return TrainRRC("fig15", DefaultFig15(), sc) }},
		cellEntry("fig16", DefaultFig16, func(p *Fig16Params, c *scenario.Compiled) error {
			p.Cell = c.Link
			return nil
		}, Fig16PacketPair),
		cellEntry("fig17", DefaultFig17, func(p *Fig17Params, c *scenario.Compiled) error {
			p.Cell = c.Link
			p.TrainLen = specTrainLen(c, p.TrainLen)
			return nil
		}, Fig17MSER),
		// Imperfect-channel extensions beyond the paper's validation
		// appendix: frame loss and hidden terminals.
		{ID: "fer-rrc", Run: func(sc Scale) (*Figure, error) { return FERRateResponse(DefaultFERRRC(), sc) }},
		{ID: "fer-transient", Run: func(sc Scale) (*Figure, error) { return FERTransient(DefaultFERTransient(), sc) }},
		{ID: "hidden", Run: func(sc Scale) (*Figure, error) { return HiddenTerminal(DefaultHidden(), sc) }},
		// Heterogeneous-cell extensions: 802.11e EDCA access categories
		// and per-station data rates (the performance anomaly).
		{ID: "edca-transient", Run: func(sc Scale) (*Figure, error) { return EDCATransient(DefaultEDCATransient(), sc) }},
		{ID: "rate-anomaly", Run: func(sc Scale) (*Figure, error) { return RateAnomaly(DefaultRateAnomaly(), sc) }},
		// Closed-loop estimator evaluation: whole estimation campaigns
		// (internal/estimate) scored against measured ground truth.
		{ID: "abest-accuracy", Run: func(sc Scale) (*Figure, error) { return AbestAccuracy(DefaultAbest(), sc) }},
		{ID: "abest-frontier", Run: func(sc Scale) (*Figure, error) { return AbestFrontier(DefaultAbest(), sc) }},
		{ID: "abest-robust", Run: func(sc Scale) (*Figure, error) { return AbestRobust(DefaultAbest(), sc) }},
		{ID: "abest-budget", Run: func(sc Scale) (*Figure, error) { return AbestBudget(DefaultAbest(), sc) }},
		// Time-varying channel extensions: multi-upstream path selection
		// over cells whose parameters change on a schedule mid-run.
		{ID: "selection-regret", Run: func(sc Scale) (*Figure, error) { return SelectionRegret(DefaultPathsel(), sc) }},
		{ID: "failover-lag", Run: func(sc Scale) (*Figure, error) { return FailoverLag(DefaultPathsel(), sc) }},
	}
}

// Lookup returns the driver for a figure ID.
func Lookup(id string) (Driver, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown figure %q", id)
}
