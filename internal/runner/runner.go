// Package runner is the worker-pool replication engine underneath every
// replicated experiment: it executes N independent units of work across
// a bounded set of workers and merges the results deterministically,
// ordered by unit index regardless of completion order.
//
// Determinism is a contract between this package and its callers:
// MapBatches guarantees that results land at their unit's index and
// that no unit runs twice; the caller guarantees that unit i's work is
// a pure function of i (per-replication RNG derived via
// sim.Stream.Child(i), never shared mutable state). Under that
// contract a figure generated with one worker is byte-identical to the
// same figure generated with any other worker count.
//
// Work is claimed in contiguous chunks of unit indices rather than one
// unit at a time. Paper-style replications are short (~0.1-1 ms), so a
// per-unit claim — one atomic operation, one closure dispatch, one
// cache-line ping between cores per ~0.15 ms of work — is what turned
// the worker sweep into a plateau. Claims are guided: each takes a
// share of the units still unclaimed, max(1, remaining/(2·workers)),
// so the first claims are long and amortize that overhead, and the
// last are single units, so no worker is left holding a long chunk
// while the others have finished. Fixed chunks of a caller's size
// remain for callers that need them (campaign.Run claims one job at a
// time); with one worker the whole range is one claim. Chunking is
// invisible to the results: values land at their unit's index either
// way.
//
// MapBatches also gives every worker goroutine a private state
// value, built once when the worker starts and handed to each unit that
// worker executes. That is the hook for per-worker resource reuse — a
// simulation engine whose arenas and scratch survive across the
// replications a worker runs (mac.Engine.Reset), so a replication
// allocates almost nothing and touches no memory shared with other
// workers.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values below 1 mean "use
// the hardware", i.e. GOMAXPROCS.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// MapBatches runs fn(w, 0), fn(w, 1), …, fn(w, n-1) on up to workers
// goroutines and returns the n results in index order. Workers claim
// contiguous blocks of chunk unit indices at a time from a shared
// counter; a chunk size below 1 selects guided claims of
// max(1, remaining/(2·workers)) units each. Scheduling is dynamic but
// the merge is deterministic: results are identical at any chunk size;
// only the claim granularity — and therefore the dispatch overhead —
// changes.
//
// If any unit fails, MapBatches stops claiming new chunks, abandons the
// unprocessed remainder of every in-flight chunk, waits for in-flight
// units to finish, and returns the failure with the lowest unit index
// among the units that ran (so the reported error is stable across
// schedules that hit the same errors). A nil error guarantees every
// unit ran exactly once.
//
// newWorker, when non-nil, runs once at the start of each worker
// goroutine (never concurrently with that worker's units) and its value
// is passed to every fn call that worker executes — the hook for
// resources that are expensive to build and safe to reuse serially,
// such as a simulation engine reset between replications. With a nil
// newWorker every fn call receives the zero value of W.
//
// The determinism contract extends to worker state: fn(w, i) must
// return the same value for unit i regardless of which worker runs it
// and which units that worker ran before — i.e. w is a cache or arena,
// never a statistic accumulated across units.
func MapBatches[T, W any](n, workers, chunk int, newWorker func() W, fn func(w W, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if chunk < 1 && w == 1 {
		chunk = n
	}
	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	// claim returns the next block of unit indices, empty once every
	// unit is claimed.
	claim := func() (lo, hi int) {
		for {
			lo = int(next.Load())
			size := chunk
			if size < 1 {
				size = guided(n-lo, w)
			}
			hi = min(lo+size, n)
			if lo >= n || next.CompareAndSwap(int64(lo), int64(hi)) {
				return lo, hi
			}
		}
	}
	var failed atomic.Bool
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ws W
			if newWorker != nil {
				ws = newWorker()
			}
			for !failed.Load() {
				lo, hi := claim()
				if lo >= hi {
					return
				}
				for i := lo; i < hi; i++ {
					if failed.Load() {
						return
					}
					v, err := fn(ws, i)
					if err != nil {
						errs[i] = err
						failed.Store(true)
						return
					}
					out[i] = v
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("runner: unit %d: %w", i, err)
		}
	}
	return out, nil
}

// guided is the size of a guided claim with remaining units unclaimed
// on w workers: half of an even share, so about 2·w·ln(remaining)
// claims cover the range and the last ones are single units.
func guided(remaining, w int) int {
	return max(1, remaining/(2*w))
}
