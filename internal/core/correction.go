package core

import (
	"fmt"

	"csmabw/internal/stats"
)

// CorrectedGap implements the Section 7.4 measurement correction: treat
// the per-packet inter-departure gaps of a probing train as a simulation
// output series with a warm-up transient, run MSER-m on it, discard the
// packets the heuristic marks as transient, and average the rest. The
// result is an estimate of the steady-state output gap obtained without
// lengthening the train.
//
// gaps[i] is the inter-departure time (seconds) between probe packets
// i+1 and i+2 of one train (n-1 gaps for an n-packet train); multiple
// trains may simply be concatenated, matching how the paper aggregates
// repetitions. m is the MSER batch size (the paper uses MSER-2).
func CorrectedGap(gaps []float64, m int) float64 {
	if len(gaps) == 0 {
		panic("core: no gaps to correct")
	}
	kept := stats.TruncateMSER(gaps, m)
	if len(kept) == 0 {
		kept = gaps // degenerate: keep everything rather than divide by 0
	}
	return stats.Mean(kept)
}

// CorrectedGapByPosition applies the MSER-m correction across a set of
// replicated trains: rows[r][i] is the i-th inter-departure gap of
// train r. The per-position mean series (much smoother than any single
// train) determines the truncation point; every train is then truncated
// at that position and the remaining gaps averaged. This is how the
// paper's Figure 17 aggregates repetitions: the heuristic detects the
// transient on the ensemble, not on one noisy 19-gap sample.
func CorrectedGapByPosition(rows [][]float64, m int) float64 {
	means := stats.RunningMeans(rows)
	if len(means) == 0 {
		panic("core: no gaps to correct")
	}
	cut := stats.MSERm(means, m).Cut
	var sum float64
	var n int
	for _, row := range rows {
		for i := cut; i < len(row); i++ {
			sum += row[i]
			n++
		}
	}
	if n == 0 {
		// Degenerate: the cut removed everything; fall back to the
		// uncorrected mean.
		for _, row := range rows {
			for _, g := range row {
				sum += g
				n++
			}
		}
	}
	return sum / float64(n)
}

// RawGapRows is the uncorrected ensemble estimator: the plain mean over
// all gaps of all trains.
func RawGapRows(rows [][]float64) float64 {
	var sum float64
	var n int
	for _, row := range rows {
		for _, g := range row {
			sum += g
			n++
		}
	}
	if n == 0 {
		panic("core: no gaps")
	}
	return sum / float64(n)
}

// TrainRates is the Section 7.4 measurement of an ensemble of
// replicated trains of l-byte probes: rows[r] holds train r's
// inter-departure gaps in seconds. Trains with fewer than two gaps are
// left out; raw is the rate of the rest's plain mean gap (RawGapRows)
// and corrected that of their MSER-m corrected gap
// (CorrectedGapByPosition). ok is false, and both rates 0, when no
// train is usable.
func TrainRates(rows [][]float64, l, m int) (raw, corrected float64, ok bool) {
	usable := make([][]float64, 0, len(rows))
	for _, gaps := range rows {
		if len(gaps) >= 2 {
			usable = append(usable, gaps)
		}
	}
	if len(usable) == 0 {
		return 0, 0, false
	}
	return RateFromGap(l, RawGapRows(usable)), RateFromGap(l, CorrectedGapByPosition(usable, m)), true
}

// RawGap is the uncorrected estimator: the plain mean of the gaps,
// equivalent to Eq. 16's (d_n - d_1)/(n-1) for a single train.
func RawGap(gaps []float64) float64 {
	if len(gaps) == 0 {
		panic("core: no gaps")
	}
	return stats.Mean(gaps)
}

// CorrectedRate converts the MSER-corrected gap to a rate estimate for
// packets of l payload bytes.
func CorrectedRate(l int, gaps []float64, m int) float64 {
	return RateFromGap(l, CorrectedGap(gaps, m))
}

// Gaps converts a departure-time series (seconds) to its successive
// differences. It panics when fewer than two departures are supplied or
// when the series is not strictly ordered in time.
func Gaps(departures []float64) []float64 {
	if len(departures) < 2 {
		panic("core: need at least two departures")
	}
	out := make([]float64, len(departures)-1)
	for i := 1; i < len(departures); i++ {
		d := departures[i] - departures[i-1]
		if d < 0 {
			panic(fmt.Sprintf("core: departures out of order at %d", i))
		}
		out[i-1] = d
	}
	return out
}
