// Package harness runs independent simulation experiments in parallel
// across host cores. The natural unit of parallelism is the whole run:
// build a machine, run it, report. The harness fans a list of such runs
// over a bounded worker pool and commits results in submission order,
// so the output of an experiment grid is byte-identical whether it ran
// on one core or sixteen.
package harness

import (
	"runtime"
	"sync"
	"time"
)

// Workers resolves a worker-count knob: n > 0 is used as given, any
// other value (0, negative) means one worker per available host core.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Occupancy reports how a pool's workers spent a sweep: per-worker run
// counts and busy wall time against the sweep's total wall time. It is
// host-side telemetry only — the simulated results are unaffected, and
// each worker writes only its own slot, so recording is race-free.
type Occupancy struct {
	Workers int      `json:"workers"`
	Runs    []int    `json:"runs_per_worker"`
	BusyNS  []uint64 `json:"busy_ns_per_worker"`
	WallNS  uint64   `json:"wall_ns"`
}

// BusyFraction is the pool's mean utilization: summed busy time over
// workers times wall time. 1.0 means no worker ever sat idle; low
// values flag a sweep whose tail run dominates.
func (o Occupancy) BusyFraction() float64 {
	if o.Workers == 0 || o.WallNS == 0 {
		return 0
	}
	var busy uint64
	for _, b := range o.BusyNS {
		busy += b
	}
	return float64(busy) / (float64(o.Workers) * float64(o.WallNS))
}

// Map runs fn(i) for i in [0, n) on a pool of workers and returns the
// results indexed by i. Determinism guarantees:
//
//   - results[i] is always the value fn produced for index i, no matter
//     which worker ran it or in what order the calls finished;
//   - if any call fails, Map returns the error of the lowest failing
//     index (not the first to fail in wall-clock order);
//   - after a failure, no index above the lowest failing one is
//     *started*; indices already in flight are allowed to finish, and
//     results below the failing index are still filled in.
//
// fn must be safe to call concurrently from multiple goroutines; the
// intended shape is "construct everything the run needs inside fn" so
// distinct indices share nothing mutable.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	results, _, err := MapOccupancy(workers, n, fn)
	return results, err
}

// MapOccupancy is Map plus a per-worker occupancy report: which worker
// ran how many indices and for how long, against the pool's wall time.
func MapOccupancy[T any](workers, n int, fn func(i int) (T, error)) ([]T, Occupancy, error) {
	results := make([]T, n)
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	occ := Occupancy{
		Workers: workers,
		Runs:    make([]int, workers),
		BusyNS:  make([]uint64, workers),
	}
	if n == 0 {
		return results, occ, nil
	}
	wallStart := time.Now()

	var (
		mu       sync.Mutex
		next     int     // next index to hand out
		failedAt int = n // lowest failing index so far
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				mu.Lock()
				// Indices are issued in ascending order, so stopping the
				// issue at the lowest failure never skips an index below it.
				if next >= n || next > failedAt {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				start := time.Now()
				v, err := fn(i)
				occ.Runs[w]++
				occ.BusyNS[w] += uint64(time.Since(start))

				mu.Lock()
				if err != nil {
					if i < failedAt {
						failedAt, firstErr = i, err
					}
				} else {
					results[i] = v
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	occ.WallNS = uint64(time.Since(wallStart))
	if firstErr != nil {
		return results, occ, firstErr
	}
	return results, occ, nil
}

// ForEach is Map without result values.
func ForEach(workers, n int, fn func(i int) error) error {
	_, err := Map(workers, n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}
