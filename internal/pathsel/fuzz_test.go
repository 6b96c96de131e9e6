package pathsel

import (
	"testing"

	"csmabw/internal/mac"
	"csmabw/internal/probe"
	"csmabw/internal/sim"
)

// FuzzPathselConfig drives Run with arbitrary knob combinations. The
// invariant: Validate rejects the config, or the selection loop runs
// panic-free with every epoch's pick in range and the bookkeeping
// (regret sign, oracle bound, switch count) consistent. Fixtures stay
// tiny — two or three quiet paths, short trains — so the fuzzer spends
// its budget on the knob space, not the simulator.
func FuzzPathselConfig(f *testing.F) {
	f.Add(2, 3, 8, 0.3, 0.1, 10.0, "ema", int64(1), 0.25)
	f.Add(3, 2, 12, 1.0, 0.0, 1.0, "ucb", int64(7), 0.5)
	f.Add(2, 1, 2, 0.5, 2.0, 0.0, "last", int64(3), 1.0)
	f.Add(1, 2, 6, 0.9, 0.5, 5.0, "bogus", int64(0), -1.0)
	f.Add(2, 3, 5, -0.5, 1e300, -1.0, "ema", int64(-9), 0.0)
	f.Fuzz(func(t *testing.T, nPaths, epochs, trainLen int,
		alpha, hyst, explore float64, policy string, seed int64, epochSec float64) {
		if nPaths < 0 || nPaths > 3 || epochs > 3 || trainLen > 16 {
			t.Skip("fixture bounds")
		}
		paths := make([]probe.Link, nPaths)
		for i := range paths {
			paths[i] = probe.Link{Seed: seed + int64(i), WarmUp: 20 * sim.Millisecond}
			if i == 1 {
				fer := 0.4
				paths[i].Schedule = []mac.ScheduledEvent{
					{At: 100 * sim.Millisecond, Target: 0, SetFER: &fer},
				}
			}
		}
		cfg := Config{
			Paths:        paths,
			Epochs:       epochs,
			EpochSeconds: epochSec,
			TrainLen:     trainLen,
			RateBps:      8e6,
			Policy:       Policy(policy),
			Alpha:        alpha,
			Hysteresis:   hyst,
			Explore:      explore,
		}
		res, err := Run(cfg, 0, nil)
		if err != nil {
			return // rejected up front: fine
		}
		if len(res.Epochs) != cfg.Epochs {
			t.Fatalf("%d epochs recorded, want %d", len(res.Epochs), cfg.Epochs)
		}
		switches := 0
		for k, ep := range res.Epochs {
			if ep.Selected < 0 || ep.Selected >= nPaths {
				t.Fatalf("epoch %d selected %d of %d paths", k, ep.Selected, nPaths)
			}
			if ep.Routed < 0 || ep.Routed >= nPaths {
				t.Fatalf("epoch %d routed %d of %d paths", k, ep.Routed, nPaths)
			}
			if ep.RegretBps < 0 || ep.BestBps < ep.Meas[ep.Routed].RateBps {
				t.Fatalf("epoch %d accounting %+v", k, ep)
			}
			if ep.Switched {
				switches++
			}
		}
		if switches != res.Switches {
			t.Fatalf("switch count %d vs flags %d", res.Switches, switches)
		}
	})
}
