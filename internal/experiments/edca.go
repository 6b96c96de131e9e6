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

// DefaultRateAnomaly is the cell of the heterogeneous-rate bias
// experiment: 1500-byte probes against one 4.5 Mb/s contender, on seed
// 32.
func DefaultRateAnomaly() probe.Link {
	return probe.Link{ProbeSize: 1500, Contenders: []probe.Flow{{RateBps: 4.5e6, Size: 1500}}, Seed: 32}
}

// RateAnomaly measures the 802.11 performance-anomaly bias of
// dispersion probing: DCF shares transmission opportunities, not
// airtime, so one slow contender drags every station's carried rate
// toward its own — and a short probing train, already biased high by
// the access-delay transient, now overestimates a share that has
// quietly collapsed. As the cell's first contender degrades through
// the 802.11b rate ladder (11, 5.5, 2, 1 Mb/s; the probe stays at the
// PHY rate), the figure plots the 20-packet-train dispersion estimate
// next to the probe's actual steady-state carried rate, both at a
// saturating 10 Mb/s; the widening gap toward the slow end is the
// compounded bias. Point i measures both on seed cell.Seed+1117i.
func RateAnomaly(cell probe.Link, sc Scale) (*Figure, error) {
	const probeBps, trainLen = 10e6, 20
	ladder := []float64{11e6, 5.5e6, 2e6, 1e6}
	if len(cell.Contenders) == 0 {
		return nil, fmt.Errorf("experiments: rate-anomaly needs a contender to slow down")
	}
	points := make([]point, len(ladder))
	for i, r := range ladder {
		l := unitLink(&cell, cell.Seed+int64(i)*1117)
		l.Contenders[0].DataRateBps = r
		points[i] = point{l, probeBps}
	}
	ts, err := trains(points, trainLen, sc)
	if err != nil {
		return nil, err
	}
	ss, err := steady(points, sc)
	if err != nil {
		return nil, err
	}
	x := mbps(ladder)
	return &Figure{
		ID:     "rate-anomaly",
		Title:  "Dispersion estimate vs carried share under the 802.11 rate anomaly",
		XLabel: "contender data rate (Mb/s)",
		YLabel: "probe rate (Mb/s)",
		Series: []Series{
			rateCurve(fmt.Sprintf("%d-packet train estimate", trainLen), x, ts),
			curve("steady-state carried rate", x, ss, probeRate),
		},
	}, nil
}
