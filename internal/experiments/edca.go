package experiments

import (
	"fmt"

	"csmabw/internal/phy"
	"csmabw/internal/probe"
)

// This file holds the heterogeneous-cell experiments: the paper
// derives its access-delay transient on a homogeneous plain-DCF cell,
// but real 802.11 deployments mix 802.11e EDCA access categories and
// per-station modulation rates — and both change the contention
// dynamics the dispersion estimator reads. The EDCA transient asks how
// the probing flow's category reshapes the transient the MSER
// correction must remove; the rate-anomaly experiment asks what a
// dispersion measurement returns when a slow sender drags the cell's
// achievable throughput down.

// DefaultEDCATransient is the Figure-6 cell with the probe on plain
// DCF, voice, best-effort and background in turn, against a 4 Mb/s
// best-effort contender; curve c runs on seed 31+1013c.
func DefaultEDCATransient() []probe.Link {
	acs := []phy.AccessCategory{phy.ACLegacy, phy.ACVoice, phy.ACBestEffort, phy.ACBackground}
	cells := make([]probe.Link, len(acs))
	for c, ac := range acs {
		cells[c] = probe.Link{
			ProbeSize:  1500,
			ProbeAC:    ac,
			Contenders: []probe.Flow{{RateBps: 4e6, Size: 1500, AC: phy.ACBestEffort}},
			Seed:       31 + int64(c)*1013,
		}
	}
	return cells
}

// EDCATransient reproduces the mean access-delay transient of Figure 6,
// on its 1000-packet trains at 5 Mb/s, on each cell, one curve per
// probing access category. The transient exists because early probe
// packets find the medium idle and later ones queue behind saturated
// contention; a high-priority category (short AIFS, small CWmin) both
// lowers the steady-state access delay and shortens the transient,
// while AC_BK's long AIFS deepens it — so the measurement bias the
// paper corrects is itself a function of the probe's QoS class.
func EDCATransient(cells []probe.Link, sc Scale) (*Figure, error) {
	p := DefaultFig6()
	return meanDelays("edca-transient", "Mean access delay vs probe packet number per access category", cells, p.TrainLen, p.ProbeRateBps, 150,
		func(l probe.Link) string { return fmt.Sprintf("probe %s", l.ProbeAC) }, sc)
}

// RateAnomalyParams configures the heterogeneous-rate bias experiment:
// a short-train dispersion estimate next to the actual saturated share
// as the contender's modulation rate degrades.
type RateAnomalyParams struct {
	// ContenderRates are the contender's data rates in bit/s, one
	// x-axis point each (the probe stays at the PHY rate).
	ContenderRates []float64
	// SatProbeBps is the saturating probe rate used for both the train
	// input rate and the steady-state share measurement.
	SatProbeBps  float64
	TrainLen     int
	CrossRateBps float64
	PacketSize   int
	Seed         int64
}

// DefaultRateAnomaly degrades one saturated contender through the
// 802.11b rate ladder (11, 5.5, 2, 1 Mb/s).
func DefaultRateAnomaly() RateAnomalyParams {
	return RateAnomalyParams{
		ContenderRates: []float64{11e6, 5.5e6, 2e6, 1e6},
		SatProbeBps:    10e6,
		TrainLen:       20,
		CrossRateBps:   4.5e6,
		PacketSize:     1500,
		Seed:           32,
	}
}

// RateAnomaly measures the 802.11 performance-anomaly bias of
// dispersion probing: DCF shares transmission opportunities, not
// airtime, so one slow contender drags every station's carried rate
// toward its own — and a short probing train, already biased high by
// the access-delay transient, now overestimates a share that has
// quietly collapsed. For each contender data rate the figure plots the
// short-train dispersion estimate next to the probe's actual
// steady-state carried rate at the same saturating offered rate; the
// widening gap toward the slow end is the compounded bias. Point i
// measures both on seed Seed+1117i.
func RateAnomaly(p RateAnomalyParams, sc Scale) (*Figure, error) {
	points := make([]point, len(p.ContenderRates))
	for i, r := range p.ContenderRates {
		if r <= 0 {
			return nil, fmt.Errorf("experiments: non-positive contender rate %g", r)
		}
		points[i] = point{probe.Link{
			ProbeSize:  p.PacketSize,
			Contenders: []probe.Flow{{RateBps: p.CrossRateBps, Size: p.PacketSize, DataRateBps: r}},
			Seed:       p.Seed + int64(i)*1117,
		}, p.SatProbeBps}
	}
	ts, err := trains(points, p.TrainLen, sc)
	if err != nil {
		return nil, err
	}
	ss, err := steady(points, sc)
	if err != nil {
		return nil, err
	}
	x := mbps(p.ContenderRates)
	return &Figure{
		ID:     "rate-anomaly",
		Title:  "Dispersion estimate vs carried share under the 802.11 rate anomaly",
		XLabel: "contender data rate (Mb/s)",
		YLabel: "probe rate (Mb/s)",
		Series: []Series{
			rateCurve(fmt.Sprintf("%d-packet train estimate", p.TrainLen), x, ts),
			curve("steady-state carried rate", x, ss, probeRate),
		},
	}, nil
}
