// Package sim provides the deterministic foundations the simulators
// share: a simulated clock measured in integer nanoseconds and seedable
// random-number streams.
//
// The IEEE 802.11 DCF engine in internal/mac (its own event loop) and
// the sample-path queueing simulator in internal/queuesim (a FIFO
// recursion) both run on this clock and these streams, so every
// experiment is reproducible from a seed and never consults the wall
// clock.
package sim

import (
	"fmt"
	"math"
)

// Time is a simulated point in time, in nanoseconds since the start of the
// simulation. Using an integer representation keeps event ordering exact
// and avoids the accumulation error of floating-point clocks.
type Time int64

// Common durations, expressed in Time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable simulated time. It is used as an
// "infinitely far in the future" sentinel.
const MaxTime Time = math.MaxInt64

// MaxSeconds is the longest duration, in seconds, that a flag or a
// spec field may give: a quarter of MaxTime, about 2.3e9 s. FromSeconds
// wraps negative above MaxTime, and a horizon is a sum of a few such
// durations (warm-up, duration and drain), which must not wrap either.
const MaxSeconds = float64(MaxTime/4) / float64(Second)

// Seconds converts t to seconds as a float64.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts t to microseconds as a float64.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// FromSeconds converts a duration in seconds to a Time, rounding to the
// nearest nanosecond.
func FromSeconds(s float64) Time { return Time(math.Round(s * float64(Second))) }

// FromMicros converts a duration in microseconds to a Time, rounding to
// the nearest nanosecond.
func FromMicros(us float64) Time { return Time(math.Round(us * float64(Microsecond))) }

// String renders the time with microsecond resolution, which is the
// natural scale of 802.11 MAC operations.
func (t Time) String() string { return fmt.Sprintf("%.3fus", t.Micros()) }
